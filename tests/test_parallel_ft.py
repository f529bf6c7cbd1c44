"""Tests for the crash-tolerant sweep harness (repro.experiments.parallel)."""

from __future__ import annotations

import os
import time

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.experiments.parallel import (
    _POOLS,
    FaultTolerance,
    QuarantinedInstance,
    map_stream,
    run_sweep,
)
from repro.experiments.runner import InstanceStream

N = 7


def _toy_stream(n):
    """A regenerable stream of featherweight instances."""
    for i in range(n):
        yield InstanceStream(f"k{i}", None, None)


def _toy_work(inst, *, crash=None, slow=None, boom=None, delay=5.0):
    """Deterministic per-instance work with optional pathologies,
    selected by scenario key so healthy instances are unaffected."""
    if inst.scenario_key == crash:
        os._exit(17)
    if inst.scenario_key == slow:
        time.sleep(delay)
    if inst.scenario_key == boom:
        raise ValueError("pathological instance")
    return (inst.scenario_key, sum(i * i for i in range(200)))


def _keys(outcome):
    return [k for k, _ in outcome.results]


class TestMapStreamBrokenPool:
    def test_raises_and_refreshes_pool(self):
        """The plain (non-FT) path: a dead worker surfaces as
        BrokenProcessPool, and the poisoned pool is dropped so the next
        call forks a fresh one instead of failing forever."""
        with pytest.raises(BrokenProcessPool):
            map_stream(
                _toy_work, _toy_stream, (N,), n_workers=2,
                work_kwargs={"crash": "k3"},
            )
        assert 2 not in _POOLS
        # Recovery: the very next call succeeds on a fresh pool.
        out = map_stream(_toy_work, _toy_stream, (N,), n_workers=2)
        assert [k for k, _ in out] == [f"k{i}" for i in range(N)]


class TestRunSweep:
    def test_matches_map_stream(self):
        plain = map_stream(_toy_work, _toy_stream, (N,), n_workers=1)
        serial = run_sweep(_toy_work, _toy_stream, (N,), n_workers=1)
        parallel = run_sweep(_toy_work, _toy_stream, (N,), n_workers=3)
        assert serial.results == plain
        assert parallel.results == plain
        assert serial.quarantined == [] and parallel.quarantined == []

    def test_worker_crash_isolated(self):
        """A dying worker loses only the pathological instance: the
        chunk is retried, then isolated, and the sweep completes."""
        outcome = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=2,
            work_kwargs={"crash": "k4"},
            fault_tolerance=FaultTolerance(
                max_chunk_retries=1, retry_backoff_s=0.01,
            ),
        )
        assert _keys(outcome) == [f"k{i}" for i in range(N) if i != 4]
        assert len(outcome.quarantined) == 1
        q = outcome.quarantined[0]
        assert q == QuarantinedInstance(4, "k4", "worker process died")

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_timeout_quarantine(self, n_workers):
        outcome = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=n_workers,
            work_kwargs={"slow": "k2"},
            fault_tolerance=FaultTolerance(instance_timeout=0.3),
        )
        assert _keys(outcome) == [f"k{i}" for i in range(N) if i != 2]
        (q,) = outcome.quarantined
        assert q.idx == 2
        assert "timed out after 0.3s" in q.reason

    def test_exception_quarantine(self):
        outcome = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=1,
            work_kwargs={"boom": "k5"},
        )
        assert _keys(outcome) == [f"k{i}" for i in range(N) if i != 5]
        (q,) = outcome.quarantined
        assert q.reason == "ValueError: pathological instance"

    def test_quarantine_stable_across_worker_counts(self):
        a = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=1,
            work_kwargs={"boom": "k1"},
        )
        b = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=3,
            work_kwargs={"boom": "k1"},
        )
        assert a.results == b.results
        assert a.quarantined == b.quarantined


class TestJournal:
    def test_resume_identity_after_truncation(self, tmp_path):
        """An interrupted sweep — journal cut mid-record — resumes and
        produces results identical to the uninterrupted run."""
        path = str(tmp_path / "sweep.jsonl")
        full = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=1,
            work_kwargs={"boom": "k5"},
            fault_tolerance=FaultTolerance(journal=path),
        )
        lines = open(path).read().splitlines(True)
        assert len(lines) == 1 + N  # header + one record per instance
        # Keep the header and three records, plus half of a fourth —
        # the torn write of a crashed process.
        with open(path, "w") as fh:
            fh.writelines(lines[:4] + [lines[4][: len(lines[4]) // 2]])
        resumed = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=2,
            work_kwargs={"boom": "k5"},
            fault_tolerance=FaultTolerance(journal=path),
        )
        assert resumed.resumed == 3
        assert resumed.results == full.results
        assert resumed.quarantined == full.quarantined

    def test_journal_records_quarantines(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=1,
            work_kwargs={"boom": "k0"},
            fault_tolerance=FaultTolerance(journal=path),
        )
        # Resuming recomputes nothing: every instance (including the
        # quarantined one) is loaded from the journal.
        resumed = run_sweep(
            _toy_work, _toy_stream, (N,), n_workers=1,
            fault_tolerance=FaultTolerance(journal=path),
        )
        assert resumed.resumed == N
        (q,) = resumed.quarantined
        assert q.scenario_key == "k0"


def _exit_worker():
    os._exit(3)


class TestBrokenPoolAtSubmit:
    """A cached pool whose worker died after its last call returned is
    already broken when the next sweep submits to it; the harness must
    fork a fresh pool instead of raising."""

    @staticmethod
    def _plant_broken_pool():
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=2)
        with pytest.raises(BrokenProcessPool):
            pool.submit(_exit_worker).result()
        old = _POOLS.pop(2, None)
        if old is not None:
            old.shutdown()
        _POOLS[2] = pool
        return pool

    def test_map_stream_forks_fresh_pool(self):
        broken = self._plant_broken_pool()
        out = map_stream(_toy_work, _toy_stream, (N,), n_workers=2)
        assert [k for k, _ in out] == [f"k{i}" for i in range(N)]
        assert _POOLS[2] is not broken

    def test_run_sweep_forks_fresh_pool(self):
        broken = self._plant_broken_pool()
        outcome = run_sweep(_toy_work, _toy_stream, (N,), n_workers=2)
        assert _keys(outcome) == [f"k{i}" for i in range(N)]
        assert outcome.quarantined == []
        assert _POOLS[2] is not broken
