"""Drives one workload through a measured run or a traced run and turns
what it measured into the benchmark's metrics."""

from __future__ import annotations

import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Any

import numpy as np

from perfbench import layers, measure
from perfbench.tracer import Patcher, Tracer, layer_table
from perfbench.workloads import Episode, Workload

_clock = time.perf_counter

#: End-to-end metrics (``--trace 0``): name -> unit.  Every workload
#: reports all of them, so each is defined for every workload.
#:
#: A run replays the same requests in several episodes, each on fresh
#: program state, and reports the median over its episodes.  Every
#: timing is at the reference speed: as measured, times the ratio of
#: ``measure.PROBE_REF_S`` to the mean speed probe taken between the
#: episode's requests (:class:`measure.Speed`).  A shared host runs the
#: process up to 1.7x slower at times, in proportions that drift from
#: minute to minute; the probes see the same slow spells as the program,
#: so the ratio cancels them.  The times as measured are printed too.
#:
#: * ``setup_s`` — median time to set the program up from the inputs,
#:   each set-up scaled by the probes run right before and after it.
#: * ``wall_s`` — program time of one episode: building its fresh state
#:   plus the time spent on its requests.  This leaves out the speed
#:   probes and, on the open loop, the idle time between sends, which
#:   the load generator sets, not the program.
#: * ``throughput_rps`` — requests of an episode over ``wall_s``.
#: * ``capacity_rps`` — requests over their summed busy time: the rate
#:   one core sustains.
#: * ``latency_p50_ms`` — median per-request latency over the run's
#:   episodes, each latency scaled by the probes nearest its request; on
#:   the open loop timed from the instant the request was due to be
#:   sent.  The 90th
#:   and 99th percentiles are printed but not gated: on a shared 2-core
#:   host they moved by 25% and 60% between runs.
#: * ``served_frac`` — admitted requests (or deadline searches that found
#:   a deadline) over attempts; ``1 - served_frac`` is the rejected share.
#:   It is 1 by construction on ``stream_open`` and ``dense_sharded``,
#:   whose engines run without an admission window.
#: * ``stretch`` — summed turn-around of admitted applications (on the
#:   deadline cell: tightest deadlines found) over their summed
#:   critical-path bounds on the idle platform.
#: * ``cpu_inflation`` — CPU-hours booked over the sequential hours of
#:   the same tasks (on the deadline cell: schedules at the loose
#:   deadline).  Normalised so that the draw of shapes cancels out.
#: * ``peak_rss_mb`` — the process's peak resident memory.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_rps": "1/s",
    "capacity_rps": "1/s",
    "latency_p50_ms": "ms",
    "served_frac": "1",
    "stretch": "1",
    "cpu_inflation": "1",
    "peak_rss_mb": "MB",
}

_LAYER_FIELDS = {
    "calls": "count",
    "self_s": "s",
    "share": "1",
    "us_per_call": "us",
    "cal_per_call": "cal",
}

#: Per-layer metrics (``--trace 1``) besides the five per layer.
_EXTRA: dict[str, str] = {
    "unattributed.self_s": "s",
    "unattributed.share": "1",
    "calendar.probe.batch_mean": "count",
    "core.plan.hit_ratio": "1",
    "cpa.allocation.memo_hit_ratio": "1",
    "service.plan.useful_ratio": "1",
    "service.fsync.p99_us": "us",
    "service.journal.bytes_per_record": "B",
    "service.retries": "count",
    "service.revocations": "count",
    "shard.probe.legs_per_probe": "count",
    "deadline.search.evaluations": "count",
    "deadline.search.no_deadline": "count",
    "generator.late_p99_ms": "ms",
    "trace.overhead_ratio": "1",
    "calibration.splice_us": "us",
    "calibration.heap_us": "us",
}

PER_LAYER: dict[str, str] = {
    **{
        f"{layer}.{name}": unit
        for layer in layers.LAYERS
        for name, unit in _LAYER_FIELDS.items()
    },
    **_EXTRA,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Run:
    """One invocation: a workload, its seed, and what went wrong."""

    def __init__(self, workload: Workload, seed: int, seconds: float, out_dir: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.problems: list[str] = []
        self.calibration = measure.calibrate()
        self._first_digest: str | None = None
        #: Ungated latency percentiles of the measured run, ms.
        self.tail_ms: dict[int, float] = {}
        #: Set-up and wall time as measured, not at the reference speed,
        #: and the median factor to the reference speed.
        self.as_measured: dict[str, float] = {}

    def _check_episode(self, ep: Episode, what: str) -> None:
        """Record the episode's oracle violations, and require it to
        reproduce the outputs of the first episode of its seed, in this
        run and in every earlier run in this checkout."""
        self.problems += [f"{what}: {v}" for v in ep.violations]
        value = measure.digest(ep.rows)
        if self._first_digest is None:
            self._first_digest = value
            key = f"{self.w.name}:seed={self.seed}:seconds={self.seconds:g}"
            first = measure.check_digest(self.out_dir / "digests.json", key, value)
            if first is not None:
                self.problems.append(
                    f"{what}: digest {value[:12]} differs from the first "
                    f"run's {first[:12]} for this seed"
                )
        elif value != self._first_digest:
            self.problems.append(
                f"{what}: digest {value[:12]} differs from the first "
                f"episode's {self._first_digest[:12]}"
            )

    @staticmethod
    def _window(ep: Episode) -> float:
        """Seconds the program worked in an episode, building its fresh
        state included."""
        return ep.build_s + ep.program_s

    # ------------------------------------------------------------------

    def measure(self) -> tuple[dict[str, float], list[Episode]]:
        """Set up several times and run episodes until ``seconds`` of
        set-ups and episodes have been measured; return the end-to-end
        metrics.

        Set-ups and episodes alternate, so that the episodes spread over
        the whole run and a slow spell of a shared host weighs less.
        Each starts on the CPU that is fastest at the time: one CPU of a
        shared host can turn slow for many seconds while the other
        stays fast.
        """
        speed = measure.Speed()
        setups: list[float] = []
        raw_setups: list[float] = []
        episodes: list[Episode] = []
        shared: Any = None
        measured = last = 0.0

        def more_episodes() -> bool:
            # Another episode runs while at least half of it still fits.
            return (
                len(episodes) < self.w.min_episodes
                or measured + last / 2 <= self.seconds
            )

        while len(setups) < self.w.n_setups or more_episodes():
            if len(setups) < self.w.n_setups:
                measure.pin_fastest_cpu()
                # Probes right before and after a set-up sample the speed
                # it ran at.
                before = measure.probe_times(10)
                t0 = _clock()
                shared = self.w.setup()
                raw_setups.append(_clock() - t0)
                measured += raw_setups[-1]
                probes = before + measure.probe_times(10)
                setups.append(raw_setups[-1] * measure.to_reference(probes))
            if more_episodes():
                measure.pin_fastest_cpu()
                ep = self.w.episode(shared, speed)
                last = ep.wall_s
                measured += last
                episodes.append(ep)
                self._check_episode(ep, f"episode {len(episodes)}")
        first = episodes[0]
        if any(len(ep.busy) != len(first.busy) for ep in episodes):
            self.problems.append("episodes timed different numbers of requests")
        n = len(first.busy)
        scale = [measure.to_reference(ep.probes) for ep in episodes]
        wall = statistics.median(k * self._window(ep) for k, ep in zip(scale, episodes))
        busy = statistics.median(k * sum(ep.busy) for k, ep in zip(scale, episodes))
        # Percentiles pool the latencies of every episode, each at the
        # speed around its request.
        lat = np.concatenate(
            [
                np.asarray(ep.latencies)
                * measure.local_reference(ep.probes, ep.probes_after, n)
                for ep in episodes
            ]
        )
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "throughput_rps": n / wall,
            "capacity_rps": n / busy,
            "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
            "served_frac": _ratio(first.served, first.attempts),
            "stretch": _ratio(first.turnaround_s, first.bound_s),
            "cpu_inflation": _ratio(first.cpu_hours, first.seq_hours),
            "peak_rss_mb": measure.peak_rss_mb(),
        }
        self.tail_ms = {
            q: float(np.percentile(lat, q)) * 1e3 for q in (90, 99)
        }
        self.as_measured = {
            "setup_s": statistics.median(raw_setups),
            "wall_s": statistics.median(self._window(ep) for ep in episodes),
            "speed": statistics.median(scale),
        }
        return metrics, episodes

    def trace(self) -> tuple[dict[str, float], list[Episode], list[tuple]]:
        """One untraced set-up and episode, then the same traced; return
        the per-layer metrics and the "where the time goes" rows.  The
        speed probe stays off: its runs would count as program time."""
        off = measure.Speed(share=0.0)
        t0 = _clock()
        shared = self.w.setup()
        plain_setup = _clock() - t0
        measure.pin_fastest_cpu()
        plain = self.w.episode(shared, off)
        self._check_episode(plain, "untraced episode")
        tracer = Tracer()
        counts: Counter[str] = Counter()
        with Patcher() as patcher:
            layers.install(patcher, tracer, counts)
            t0 = _clock()
            shared = self.w.setup()
            traced_setup = _clock() - t0
            measure.pin_fastest_cpu()
            traced = self.w.episode(shared, off)
        self._check_episode(traced, "traced episode")
        tracer.write_spans(
            str(self.out_dir / f"{self.w.name}-seed{self.seed}.spans.jsonl")
        )
        window = traced_setup + self._window(traced)
        rows = layer_table(tracer, layers.LAYERS, window)
        unit = self.calibration["unit_us"]
        metrics: dict[str, float] = {}
        for layer, calls, self_s, share, us in rows[:-1]:
            metrics[f"{layer}.calls"] = calls
            metrics[f"{layer}.self_s"] = self_s
            metrics[f"{layer}.share"] = share
            metrics[f"{layer}.us_per_call"] = us
            metrics[f"{layer}.cal_per_call"] = us / unit
        _, _, rest, rest_share, _ = rows[-1]
        fsync = tracer.durations.get("service.fsync") or [0.0]
        c = traced.counts
        metrics.update(
            {
                "unattributed.self_s": rest,
                "unattributed.share": rest_share,
                "calendar.probe.batch_mean": _ratio(
                    counts["probe.batch_tasks"], counts["probe.batches"]
                ),
                "core.plan.hit_ratio": _ratio(
                    counts["plan.hits"], counts["plan.hits"] + counts["plan.misses"]
                ),
                "cpa.allocation.memo_hit_ratio": (
                    1.0 - _ratio(counts["cpa.computes"], tracer.calls("cpa.allocation"))
                    if tracer.calls("cpa.allocation")
                    else 0.0
                ),
                "service.plan.useful_ratio": _ratio(
                    traced.served, tracer.calls("stream.tentative")
                ),
                "service.fsync.p99_us": float(np.percentile(fsync, 99)) * 1e6,
                "service.journal.bytes_per_record": _ratio(
                    c["journal.bytes"], c["journal.records"]
                ),
                "service.retries": c["retries"],
                "service.revocations": c["revocations"],
                "shard.probe.legs_per_probe": _ratio(
                    tracer.edges[("shard.probe", "calendar.probe")],
                    tracer.calls("shard.probe"),
                ),
                "deadline.search.evaluations": c["evaluations"],
                "deadline.search.no_deadline": c["no_deadline"],
                "generator.late_p99_ms": (
                    float(np.percentile(traced.late, 99)) * 1e3
                    if traced.late
                    else 0.0
                ),
                "trace.overhead_ratio": _ratio(
                    window, plain_setup + self._window(plain)
                ),
                "calibration.splice_us": self.calibration["splice_us"],
                "calibration.heap_us": self.calibration["heap_us"],
            }
        )
        return metrics, [plain, traced], rows


def time_table(rows: list[tuple], overhead: float, unit_us: float) -> str:
    """The "where the time goes" table of a traced run, as Markdown."""
    window = sum(r[2] for r in rows)
    out = [
        f"window {window:.3f} s (set-up plus program time of one episode)",
        "",
        "| layer | calls | self s | share | us/call | cal/call |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    body = sorted((r for r in rows[:-1] if r[1]), key=lambda r: -r[2])
    for layer, calls, self_s, share, us in body:
        out.append(
            f"| {layer} | {calls} | {self_s:.4f} | {share:.1%} | {us:.1f} "
            f"| {us / unit_us:.4f} |"
        )
    _, _, rest, rest_share, _ = rows[-1]
    out.append(f"| (unattributed) | | {rest:.4f} | {rest_share:.1%} | | |")
    out.append(f"| (trace.overhead_ratio) | | | {overhead:.3f} | | |")
    return "\n".join(out)
