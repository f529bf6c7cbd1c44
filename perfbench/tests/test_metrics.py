"""Whole runs on shrunken workloads: metric names, self-time bounds,
digests, the speed probe and the exit code without program sources."""

import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import harness, measure
from perfbench.workloads import (
    WORKLOADS,
    DeadlineCell,
    DenseSharded,
    ServiceFaulted,
    StreamOpen,
)


class TinyStream(StreamOpen):
    RATE = 2_000.0
    EPISODE_REQUESTS = 40
    N_SHAPES = 4


class TinyService(ServiceFaulted):
    N_REQUESTS = 40
    N_SHAPES = 4


class TinyDense(DenseSharded):
    n_setups = 1
    N_RESERVATIONS = 2_000
    N_SHARDS = 2
    N_SHAPES = 2
    EPISODE_REQUESTS = 6


class TinyDeadline(DeadlineCell):
    n_setups = 1
    N_INSTANCES = 1


TINY = {
    "stream_open": TinyStream,
    "service_faulted": TinyService,
    "dense_sharded": TinyDense,
    "deadline_cell": TinyDeadline,
}


def _run(cls, seed, out_dir):
    workload = cls(seed, 0.01, out_dir)
    run = harness.Run(workload, seed, 0.01, out_dir)
    measured, _ = run.measure()
    traced, _, rows = run.trace()
    return run, measured, traced, rows


@pytest.mark.parametrize("name", sorted(TINY))
def test_metric_names_do_not_depend_on_the_seed(name, tmp_path):
    seen = []
    for seed in (1, 2):
        run, measured, traced, rows = _run(TINY[name], seed, tmp_path)
        assert run.problems == []
        assert set(measured) == set(harness.END_TO_END)
        assert set(traced) == set(harness.PER_LAYER)
        seen.append((sorted(measured), sorted(traced)))
        # Self times are never negative and never sum past the window.
        window = sum(r[2] for r in rows)
        assert all(r[2] >= 0 for r in rows[:-1])
        assert sum(r[2] for r in rows[:-1]) <= window
        assert rows[-1][2] >= 0
    assert seen[0] == seen[1]


def test_end_to_end_metrics_are_nonzero(tmp_path):
    _, measured, _, _ = _run(TinyStream, 3, tmp_path)
    assert all(v > 0 for v in measured.values()), measured


def test_measured_episodes_carry_speed_probes(tmp_path):
    workload = TinyDense(1, 0.01, tmp_path)
    _, episodes = harness.Run(workload, 1, 0.01, tmp_path).measure()
    for ep in episodes:
        assert ep.probes
        # The probes ran for about their share of the program's time.
        assert sum(ep.probes) >= measure.Speed().share * (ep.build_s + sum(ep.busy))


def test_speed_probe_pays_its_share_and_keeps_off_a_deadline():
    speed = measure.Speed(share=0.5)
    speed.owe(0.004)
    t0 = time.perf_counter()
    speed.pay(until=t0)
    # No probe fits before the deadline, so none ran.
    assert time.perf_counter() - t0 < measure.PROBE_REF_S
    probes, after = speed.take()
    assert sum(probes) >= 0.002
    assert after == [1] * len(probes)
    off = measure.Speed(share=0.0)
    off.owe(1.0)
    assert off.take() == ([], [])


def test_reference_scaling():
    ref = measure.PROBE_REF_S
    assert measure.to_reference([2 * ref, 2 * ref]) == pytest.approx(0.5)
    assert measure.to_reference([ref / 2, ref * 1.5]) == pytest.approx(1.0)


def test_local_reference_uses_the_probes_around_each_request():
    ref = measure.PROBE_REF_S
    # Six fast probes after request 0, six slow ones after request 10.
    probes = [ref] * 6 + [2 * ref] * 6
    after = [2] * 6 + [12] * 6
    scale = measure.local_reference(probes, after, 12)
    assert scale[0] == pytest.approx(1.0)
    assert scale[10] == pytest.approx(2 / 3)
    assert scale[11] == pytest.approx(0.5)
    few = measure.local_reference([2 * ref], [1], 3)
    assert list(few) == pytest.approx([0.5] * 3)


def test_speed_probe_never_sets_off_the_garbage_collector():
    gc.disable()
    try:
        before = gc.get_count()[0]
        measure._probe_loop()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


def test_digest_record_flags_a_changed_output(tmp_path):
    record = tmp_path / "digests.json"
    assert measure.check_digest(record, "k", "aaa") is None
    assert measure.check_digest(record, "k", "aaa") is None
    assert measure.check_digest(record, "k", "bbb") == "aaa"


def test_exits_nonzero_without_program_sources(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_lists_every_metric():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
