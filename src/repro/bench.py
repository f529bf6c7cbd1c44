"""Hot-path performance regression harness (``repro bench``).

Times the hot paths the incremental/vectorized/indexed machinery
optimizes — calendar commit, placement queries (vectorized multi sweeps
and tree-indexed scalar probes on dense calendars), the sweep-level
allocation memo, CPA allocation, and one Table-4 experiment cell —
against a **seed baseline**: the original
implementations this repository shipped with before the optimization
pass.  The baseline is reconstructed in-process by (a) flipping the
module-level switches that gate the incremental paths and (b)
monkeypatching faithful re-implementations of the routines whose
*algorithm* changed (the per-node NumPy-scalar level loops and the
segment-walking placement scans below, kept verbatim from the seed
commit).  Both sides of every comparison are asserted to produce
identical results before their timings are reported.

Timings use a warm-up pass plus min-of-N (the minimum is the standard
noise-robust statistic for micro-benchmarks on a shared box).  Results
are written as JSON (default ``BENCH_hotpath.json`` in the current
directory) so CI can diff runs::

    repro bench                 # full run, writes BENCH_hotpath.json
    repro bench --quick         # reduced sizes, for CI smoke
    repro bench --out perf.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import repro.calendar.calendar as _calmod
import repro.cpa.allocation as _allocmod
from repro.calendar import Reservation, ResourceCalendar
from repro.errors import CalendarError
from repro.cpa.allocation import cpa_allocation
from repro.dag import DagGenParams, TaskGraph, random_task_graph
from repro.experiments.scenarios import ExperimentScale
from repro.experiments.table4 import format_table4, run_table4
from repro.rng import make_rng

# ----------------------------------------------------------------------
# Seed-baseline reference implementations
# ----------------------------------------------------------------------
# Verbatim ports of the seed commit's hot-path routines, used *only* to
# measure the before/after ratio.  Do not call these outside the
# benchmark: the live implementations are in repro.dag.graph and
# repro.calendar.calendar.


def _seed_bottom_levels(self, exec_times) -> np.ndarray:
    w = np.asarray(exec_times, dtype=float)
    if w.shape != (self.n,):
        raise ValueError(
            f"exec_times must have shape ({self.n},), got {w.shape}"
        )
    bl = np.zeros(self.n)
    for i in reversed(self.topological_order):
        succ_max = max((bl[j] for j in self._succs[i]), default=0.0)
        bl[i] = w[i] + succ_max
    return bl


def _seed_top_levels(self, exec_times) -> np.ndarray:
    w = np.asarray(exec_times, dtype=float)
    if w.shape != (self.n,):
        raise ValueError(
            f"exec_times must have shape ({self.n},), got {w.shape}"
        )
    tl = np.zeros(self.n)
    for i in self.topological_order:
        pred_max = max((tl[j] + w[j] for j in self._preds[i]), default=0.0)
        tl[i] = pred_max
    return tl


def _seed_earliest_start(self, earliest, duration, nprocs) -> float:
    self._check_request(duration, nprocs)
    prof = self.availability()
    times, k = prof.times, prof.n_segments
    s = float(earliest)
    i = prof.segment_index(s)
    while True:
        window_end = s + duration
        j = i
        violated_at = None
        while True:
            lo, hi = prof.segment_bounds(j)
            if prof.segment_value(j) < nprocs and lo < window_end:
                violated_at = j
                break
            if hi >= window_end:
                break
            j += 1
        if violated_at is None:
            return s
        j = violated_at
        while j < k and prof.segment_value(j) < nprocs:
            j += 1
        if j >= k:
            raise CalendarError(
                "no feasible start found — availability never recovers "
                f"to {nprocs} processors"
            )
        s = float(times[j])
        i = j


def _seed_latest_start(
    self, latest_finish, duration, nprocs, *, earliest=-np.inf
) -> float | None:
    self._check_request(duration, nprocs)
    prof = self.availability()
    times = prof.times
    window_end = float(latest_finish)
    while True:
        s = window_end - duration
        if s < earliest:
            return None
        j = int(np.searchsorted(times, window_end, side="left")) - 1
        violated_at = None
        while True:
            lo, hi = prof.segment_bounds(j)
            if hi <= s:
                break
            if prof.segment_value(j) < nprocs:
                violated_at = j
                break
            if j < 0:
                break
            j -= 1
        if violated_at is None:
            return s
        lo, _ = prof.segment_bounds(violated_at)
        if not np.isfinite(lo):
            return None
        window_end = float(lo)


def _seed_earliest_starts_multi(
    self, earliest, durations, *, m_offset=0
) -> np.ndarray:
    d = np.asarray(durations, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise CalendarError("durations must be a non-empty 1-D array")
    if m_offset < 0:
        raise CalendarError(f"m_offset must be >= 0, got {m_offset}")
    if m_offset + d.size > self._capacity:
        raise CalendarError(
            f"durations imply up to {m_offset + d.size} processors but "
            f"capacity is {self._capacity}"
        )
    if not np.all(d > 0):
        raise CalendarError("all durations must be positive")
    prof = self.availability()
    k = prof.n_segments
    m = np.arange(m_offset + 1, m_offset + d.size + 1)
    cand = np.full(d.size, float(earliest))
    result = np.full(d.size, np.nan)
    done = np.zeros(d.size, dtype=bool)
    j = prof.segment_index(earliest)
    while True:
        lo, hi = prof.segment_bounds(j)
        v = prof.segment_value(j)
        enough = m <= v
        newly = ~done & enough & (cand + d <= hi)
        result[newly] = cand[newly]
        done |= newly
        broken = ~done & ~enough
        cand[broken] = hi
        if done.all():
            return result
        if j >= k - 1:
            raise CalendarError(
                "availability profile ended before all requests were "
                "placed — internal invariant violated"
            )
        j += 1


@contextmanager
def seed_baseline() -> Iterator[None]:
    """Run the enclosed code against the seed commit's hot paths.

    Flips the incremental switches off (full profile recompiles on every
    commit, full level recomputes in CPA) and swaps in the seed's
    per-node/segment-walking implementations.  Everything is restored on
    exit, even on error.
    """
    saved_flags = (
        _calmod.INCREMENTAL_COMMITS,
        _calmod.VALIDATE_COMMITS,
        _calmod.USE_INDEX,
        _allocmod.INCREMENTAL_LEVELS,
        _allocmod.MEMOIZE_ALLOCATIONS,
    )
    saved_methods = (
        TaskGraph.bottom_levels,
        TaskGraph.top_levels,
        ResourceCalendar.earliest_start,
        ResourceCalendar.latest_start,
        ResourceCalendar.earliest_starts_multi,
    )
    _calmod.INCREMENTAL_COMMITS = False
    _calmod.VALIDATE_COMMITS = True
    _calmod.USE_INDEX = False
    _allocmod.INCREMENTAL_LEVELS = False
    _allocmod.MEMOIZE_ALLOCATIONS = False
    _allocmod.clear_memo()
    TaskGraph.bottom_levels = _seed_bottom_levels
    TaskGraph.top_levels = _seed_top_levels
    ResourceCalendar.earliest_start = _seed_earliest_start
    ResourceCalendar.latest_start = _seed_latest_start
    ResourceCalendar.earliest_starts_multi = _seed_earliest_starts_multi
    try:
        yield
    finally:
        (
            _calmod.INCREMENTAL_COMMITS,
            _calmod.VALIDATE_COMMITS,
            _calmod.USE_INDEX,
            _allocmod.INCREMENTAL_LEVELS,
            _allocmod.MEMOIZE_ALLOCATIONS,
        ) = saved_flags
        (
            TaskGraph.bottom_levels,
            TaskGraph.top_levels,
            ResourceCalendar.earliest_start,
            ResourceCalendar.latest_start,
            ResourceCalendar.earliest_starts_multi,
        ) = saved_methods


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------


def _best_of(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Minimum wall-clock over ``repeats`` calls (after one warm-up).

    Each timed call starts from a freshly collected heap.  Otherwise a
    full (generation-2) collection of everything earlier sections left
    alive (~15 ms after the ``--quick`` sections before the stream ones)
    lands in whichever timing happens to cross the collector's
    threshold, and a ratio of two ~0.1 s timings reads it as a 10-15%
    difference between the paths.  The timed call's own
    young-generation collections still count.
    """
    fn()  # warm-up: caches, lazy imports, pool forks
    best = np.inf
    result = None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _random_reservations(
    n_res: int, capacity: int, seed: int = 7
) -> list[Reservation]:
    """A deterministic batch of non-overflowing small reservations."""
    rng = make_rng(seed)
    out = []
    for i in range(n_res):
        start = float(rng.uniform(0.0, 50_000.0))
        dur = float(rng.uniform(60.0, 3_600.0))
        nprocs = int(rng.integers(1, max(2, capacity // 16)))
        out.append(
            Reservation(start=start, end=start + dur, nprocs=nprocs, label=f"r{i}")
        )
    return out


# ----------------------------------------------------------------------
# Individual benchmarks
# ----------------------------------------------------------------------


def bench_calendar_commit(*, n_res: int, repeats: int) -> dict[str, Any]:
    """Committing ``n_res`` known-feasible reservations, one by one.

    Seed path: strict ``reserve()`` — every add recompiles and
    re-validates the whole profile from the event list (O(R) work per
    commit, O(R^2) total).  Current path: ``reserve_known_feasible()`` —
    one O(R) splice per commit into the already-compiled profile.
    """
    capacity = 128
    batch = _random_reservations(n_res, capacity)

    def seed_path() -> ResourceCalendar:
        cal = ResourceCalendar(capacity, incremental=False)
        for r in batch:
            cal.reserve(r.start, r.end - r.start, r.nprocs, label=r.label)
        cal.availability()
        return cal

    def fast_path() -> ResourceCalendar:
        cal = ResourceCalendar(capacity, incremental=True)
        cal.availability()  # pre-compile, as schedulers do before committing
        for r in batch:
            cal.reserve_known_feasible(
                r.start, r.end - r.start, r.nprocs, label=r.label
            )
        return cal

    seed_s, seed_cal = _best_of(seed_path, repeats)
    fast_s, fast_cal = _best_of(fast_path, repeats)
    if seed_cal.availability() != fast_cal.availability():
        raise AssertionError("calendar-commit paths disagree on the profile")
    return {
        "n_reservations": n_res,
        "seed_s": seed_s,
        "incremental_s": fast_s,
        "speedup": seed_s / fast_s,
    }


def bench_placement_query(*, n_res: int, n_queries: int, repeats: int) -> dict[str, Any]:
    """``earliest_starts_multi`` full-machine sweeps on a busy calendar.

    Seed path walks the availability profile segment by segment with
    Python-level bookkeeping; the current path is one 2-D NumPy sweep.
    """
    capacity = 64
    cal = ResourceCalendar(capacity, incremental=True)
    for r in _random_reservations(n_res, capacity, seed=11):
        cal.add(r)
    cal.availability()
    rng = make_rng(23)
    queries = [
        (
            float(rng.uniform(0.0, 60_000.0)),
            np.asarray(rng.uniform(120.0, 7_200.0, size=capacity)),
        )
        for _ in range(n_queries)
    ]

    def seed_path() -> list[np.ndarray]:
        return [
            _seed_earliest_starts_multi(cal, earliest, d)
            for earliest, d in queries
        ]

    def fast_path() -> list[np.ndarray]:
        # This entry measures the 2-D sweep kernel, not the query memo
        # (bench_sweep_alloc_memo covers caching): drop the memo so the
        # repeated identical queries don't degenerate into dict hits.
        cal._multi_cache = {}
        return [cal.earliest_starts_multi(earliest, d) for earliest, d in queries]

    seed_s, seed_res = _best_of(seed_path, repeats)
    fast_s, fast_res = _best_of(fast_path, repeats)
    for a, b in zip(seed_res, fast_res):
        if not np.array_equal(a, b):
            raise AssertionError("placement-query paths disagree")
    return {
        "n_reservations": n_res,
        "n_queries": n_queries,
        "seed_s": seed_s,
        "vectorized_s": fast_s,
        "speedup": seed_s / fast_s,
    }


def bench_placement_query_indexed(
    *, n_res: int, n_queries: int, repeats: int
) -> dict[str, Any]:
    """Scalar placement probes on a *dense* calendar: seed segment walks
    vs the :class:`~repro.calendar.index.AvailabilityIndex` tree walks.

    The seed answers ``earliest_start``/``latest_start`` by stepping the
    availability profile one segment at a time in Python — O(S) per
    probe, and every probed segment costs NumPy-scalar accessor calls.
    The indexed path descends two flat segment trees, skipping whole
    infeasible regions per descent.  The calendar here is static (built
    once, queried many times), the regime the index is for.
    """
    capacity = 128
    horizon = n_res * 120.0
    rng = make_rng(17)
    cal = ResourceCalendar(capacity, incremental=False, clamp=True)
    for i in range(n_res):
        start = float(rng.uniform(0.0, horizon))
        dur = float(rng.uniform(60.0, 3_600.0))
        nprocs = int(rng.integers(1, max(2, capacity // 16)))
        cal.add(Reservation(start=start, end=start + dur, nprocs=nprocs))
    n_segments = cal.availability().n_segments
    rng = make_rng(29)
    queries = [
        (
            float(rng.uniform(0.0, horizon)),
            float(rng.uniform(120.0, 7_200.0)),
            int(rng.integers(1, capacity + 1)),
        )
        for _ in range(n_queries)
    ]

    def seed_path() -> list[float | None]:
        out: list[float | None] = []
        for earliest, d, m in queries:
            out.append(_seed_earliest_start(cal, earliest, d, m))
            out.append(
                _seed_latest_start(
                    cal, earliest + horizon, d, m, earliest=earliest
                )
            )
        return out

    def indexed_path() -> list[float | None]:
        saved = _calmod.USE_INDEX, _calmod.INDEX_MIN_SEGMENTS
        _calmod.USE_INDEX, _calmod.INDEX_MIN_SEGMENTS = True, 0
        try:
            out: list[float | None] = []
            for earliest, d, m in queries:
                out.append(cal.earliest_start(earliest, d, m))
                out.append(
                    cal.latest_start(
                        earliest + horizon, d, m, earliest=earliest
                    )
                )
            return out
        finally:
            _calmod.USE_INDEX, _calmod.INDEX_MIN_SEGMENTS = saved

    seed_s, seed_res = _best_of(seed_path, repeats)
    idx_s, idx_res = _best_of(indexed_path, repeats)
    if seed_res != idx_res:
        raise AssertionError("indexed placement-query paths disagree")
    return {
        "n_reservations": n_res,
        "n_segments": n_segments,
        "n_queries": n_queries,
        "seed_s": seed_s,
        "indexed_s": idx_s,
        "speedup": seed_s / idx_s,
    }


def bench_sweep_alloc_memo(
    *, n_graphs: int, n_tasks: int, reuses: int, repeats: int
) -> dict[str, Any]:
    """A sweep-shaped allocation workload: memoization off vs on.

    Experiment grids re-solve the same (graph, q) allocation problem in
    many cells (the DAG draw is independent of the phi/reshaping axes).
    This models that reuse directly: ``n_graphs`` distinct DAGs, each
    allocated at two cluster sizes, the whole batch repeated ``reuses``
    times.  With the memo on, each distinct problem is solved once and
    the rest are digest-keyed lookups.
    """
    graphs = [
        random_task_graph(DagGenParams(n=n_tasks), make_rng(1000 + i))
        for i in range(n_graphs)
    ]
    qs = (32, 64)

    def workload() -> list[Any]:
        return [
            cpa_allocation(g, q)
            for _ in range(reuses)
            for g in graphs
            for q in qs
        ]

    def uncached() -> list[Any]:
        saved = _allocmod.MEMOIZE_ALLOCATIONS
        _allocmod.MEMOIZE_ALLOCATIONS = False
        try:
            return workload()
        finally:
            _allocmod.MEMOIZE_ALLOCATIONS = saved

    def memoized() -> list[Any]:
        saved = _allocmod.MEMOIZE_ALLOCATIONS
        _allocmod.MEMOIZE_ALLOCATIONS = True
        _allocmod.clear_memo()  # each repetition pays the same misses
        try:
            return workload()
        finally:
            _allocmod.MEMOIZE_ALLOCATIONS = saved

    plain_s, plain_res = _best_of(uncached, repeats)
    memo_s, memo_res = _best_of(memoized, repeats)
    if plain_res != memo_res:
        raise AssertionError("allocation memo changed a result")
    return {
        "n_graphs": n_graphs,
        "n_tasks": n_tasks,
        "reuses": reuses,
        "distinct_problems": n_graphs * len(qs),
        "total_allocations": n_graphs * len(qs) * reuses,
        "uncached_s": plain_s,
        "memoized_s": memo_s,
        "speedup": plain_s / memo_s,
    }


def bench_cpa_allocation(*, n_tasks: int, q: int, repeats: int) -> dict[str, Any]:
    """One CPA allocation run: full level recomputes vs incremental.

    The seed path additionally pays the per-node NumPy-scalar level
    loops (restored via :func:`seed_baseline`).
    """
    graph = random_task_graph(DagGenParams(n=n_tasks), make_rng(42))

    def seed_path():
        with seed_baseline():
            return cpa_allocation(graph, q, incremental=False)

    def fast_path():
        # memoize=False: this entry measures the incremental-level
        # kernel; the memo has its own entry (sweep_alloc_memo).
        return cpa_allocation(graph, q, incremental=True, memoize=False)

    full_s, seed_res = _best_of(seed_path, repeats)
    inc_s, fast_res = _best_of(fast_path, repeats)
    if seed_res != fast_res:
        raise AssertionError("CPA allocation paths disagree")
    return {
        "n_tasks": n_tasks,
        "q": q,
        "full_s": full_s,
        "incremental_s": inc_s,
        "speedup": full_s / inc_s,
    }


def bench_table4_cell(
    *, dag_instances: int, n_workers: int, repeats: int
) -> dict[str, Any]:
    """One Table-4 cell, end to end: seed serial vs current parallel.

    The cell (OSC_Cluster, phi=0.2, expo reshaping) runs the full
    pipeline — log replay, reservation scenario, CPA, forward
    scheduling — per instance.  The baseline is the seed hot paths run
    serially; the contender is the current code at ``n_workers``
    processes.  Both must format to the identical table.
    """
    scale = ExperimentScale(
        logs=("OSC_Cluster",),
        phis=(0.2,),
        methods=("expo",),
        app_scenarios=2,
        dag_instances=dag_instances,
        start_times=1,
        taggings=1,
    )

    def seed_serial():
        with seed_baseline():
            return run_table4(scale)

    def parallel():
        return run_table4(replace(scale, n_workers=n_workers))

    # Interleave the two measurements so background-load spikes on a
    # shared box hit both sides symmetrically instead of biasing one.
    seed_res = seed_serial()  # warm-up
    par_res = parallel()  # warm-up (forks the worker pool)
    seed_s = par_s = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        seed_res = seed_serial()
        seed_s = min(seed_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        par_res = parallel()
        par_s = min(par_s, time.perf_counter() - t0)
    if format_table4(seed_res) != format_table4(par_res):
        raise AssertionError("table-4 cell paths disagree on the table")
    return {
        "dag_instances": dag_instances,
        "n_workers": n_workers,
        "seed_serial_s": seed_s,
        "parallel_s": par_s,
        "speedup": seed_s / par_s,
    }


def bench_streamed_throughput(
    *, n_requests: int, n_res: int, repeats: int
) -> dict[str, Any]:
    """Admitting a stream of small DAGs: incremental engine vs N passes.

    A busy advance-reservation calendar (``n_res`` competing bookings
    spread over a long horizon) receives ``n_requests`` eight-task
    applications at a sustainable arrival rate.  Baseline: per request,
    rebuild the scenario with everything booked so far and run the batch
    ``schedule_ressched`` — the only way to express a stream with the
    one-shot API (an O(R log R) scenario recompile per request; its
    placement probes run the same windowed scan kernel as the stream's).
    Current path: one ``StreamScheduler`` admitting every
    request against a single generation-tagged calendar via
    ``schedule_ressched_incremental`` — O(1)-amortized ready-queue
    events, batched windowed placement probes, and memoized plans.
    Placements are asserted bitwise-identical before timing.
    """
    from repro.experiments.stream import (
        StreamRequest,
        StreamScheduler,
        schedule_stream_naive,
    )
    from repro.workloads.reservations import ReservationScenario

    capacity = 64
    rng = make_rng(7)
    horizon = 333.0 * n_res
    reservations = []
    for i in range(n_res):
        start = float(rng.uniform(0.0, horizon))
        dur = float(rng.uniform(60.0, 3_600.0))
        nprocs = int(rng.integers(1, max(2, capacity // 16)))
        reservations.append(
            Reservation(start=start, end=start + dur, nprocs=nprocs, label=f"r{i}")
        )
    scenario = ReservationScenario(
        name="stream-bench",
        capacity=capacity,
        now=0.0,
        reservations=tuple(reservations),
        hist_avg_available=capacity / 2,
    )
    graphs = [
        random_task_graph(
            DagGenParams(n=8, max_seq_time=3_600.0), make_rng(1000 + i)
        )
        for i in range(4)
    ]
    requests = [
        StreamRequest(
            request_id=f"req-{k}",
            arrival_offset=k * 1_200.0,
            graph=graphs[k % len(graphs)],
        )
        for k in range(n_requests)
    ]

    def naive_path() -> list:
        _allocmod.clear_memo()
        return schedule_stream_naive(scenario, requests)

    def streamed_path() -> list:
        _allocmod.clear_memo()
        return StreamScheduler(scenario).run(requests).schedules

    naive_s, naive_res = _best_of(naive_path, repeats)
    stream_s, stream_res = _best_of(streamed_path, repeats)
    for a, b in zip(naive_res, stream_res):
        pa = [(p.task, p.start, p.finish, p.nprocs) for p in a.placements]
        pb = [(p.task, p.start, p.finish, p.nprocs) for p in b.placements]
        if pa != pb:
            raise AssertionError("streamed-throughput paths disagree")
    # Observer-effect guard (untimed): a fully instrumented replay —
    # aggregates AND event timeline on — must produce the exact same
    # placements; recording may never perturb the computation.
    from repro.obs import instrumented as _instrumented
    from repro.obs import timeline as _tl

    _allocmod.clear_memo()
    with _tl.recording(sim_epoch=scenario.now) as timeline:
        with _instrumented():
            observed = StreamScheduler(scenario).run(requests).schedules
    for a, b in zip(stream_res, observed):
        pa = [(p.task, p.start, p.finish, p.nprocs) for p in a.placements]
        pb = [(p.task, p.start, p.finish, p.nprocs) for p in b.placements]
        if pa != pb:
            raise AssertionError(
                "timeline instrumentation perturbed streamed placements"
            )
    return {
        "n_requests": n_requests,
        "n_reservations": n_res,
        "naive_s": naive_s,
        "streamed_s": stream_s,
        "speedup": naive_s / stream_s,
        "requests_per_s": n_requests / stream_s,
        "timeline_events": len(timeline),
    }


def bench_service_faulted_stream(
    *, n_requests: int, n_res: int, repeats: int
) -> dict[str, Any]:
    """Robustness-layer overhead: bare stream vs ReservationService.

    The same stream as ``streamed_throughput`` is replayed twice: once
    through the bare ``StreamScheduler`` and once through the
    fault-tolerant ``ReservationService`` at fault rate zero with
    unlimited quotas — the configuration the reduction proof covers, so
    placements are asserted bitwise-identical before timing.  The
    reported ``speedup`` is ``bare_s / service_rate0_s``: the floor in
    ``check_bench_regression.py`` guarantees the CAS/journal/quota
    machinery costs < 15% on the fault-free fast path.  A third,
    untimed-for-speedup replay at a nonzero fault rate with per-tenant
    quotas exercises the full pipeline (revocation, rebooking, commit
    retries) and reports its volume counters.
    """
    from repro.experiments.stream import StreamRequest, StreamScheduler
    from repro.resilience.faults import FaultModel
    from repro.service import ReservationService, ServiceConfig, TenantQuota
    from repro.workloads.reservations import ReservationScenario

    capacity = 64
    rng = make_rng(7)
    horizon = 333.0 * n_res
    reservations = []
    for i in range(n_res):
        start = float(rng.uniform(0.0, horizon))
        dur = float(rng.uniform(60.0, 3_600.0))
        nprocs = int(rng.integers(1, max(2, capacity // 16)))
        reservations.append(
            Reservation(start=start, end=start + dur, nprocs=nprocs, label=f"r{i}")
        )
    scenario = ReservationScenario(
        name="service-bench",
        capacity=capacity,
        now=0.0,
        reservations=tuple(reservations),
        hist_avg_available=capacity / 2,
    )
    graphs = [
        random_task_graph(
            DagGenParams(n=8, max_seq_time=3_600.0), make_rng(1000 + i)
        )
        for i in range(4)
    ]
    tenants = ("acme", "globex", "initech")
    requests = [
        StreamRequest(
            request_id=f"req-{k}",
            arrival_offset=k * 1_200.0,
            graph=graphs[k % len(graphs)],
            mode="batch" if k % 3 else "interactive",
            tenant=tenants[k % len(tenants)],
        )
        for k in range(n_requests)
    ]

    def bare_path() -> list:
        _allocmod.clear_memo()
        return StreamScheduler(scenario).run(requests).schedules

    def service_rate0_path() -> list:
        _allocmod.clear_memo()
        return ReservationService(scenario).run(requests).schedules

    bare_s, bare_res = _best_of(bare_path, repeats)
    svc_s, svc_res = _best_of(service_rate0_path, repeats)
    # Reduction proof before timing is trusted: rate-0 + unlimited
    # quotas must be bitwise-identical to the bare stream.
    for a, b in zip(bare_res, svc_res):
        pa = [(p.task, p.start, p.finish, p.nprocs) for p in a.placements]
        pb = [(p.task, p.start, p.finish, p.nprocs) for p in b.placements]
        if pa != pb:
            raise AssertionError("service rate-0 path diverged from stream")
    # Full-pipeline replay: faults, quotas and shedding all active.
    _allocmod.clear_memo()
    faulted_t0 = time.perf_counter()
    faulted = ReservationService(
        scenario,
        config=ServiceConfig(
            default_quota=TenantQuota(max_active=max(4, n_requests // 8)),
            shed_backlog=max(8, n_requests // 4),
            commit_latency=300.0,
            retry_backoff_base=30.0,
        ),
        fault_model=FaultModel.from_rate(6.0),
        seed=11,
    ).run(requests)
    faulted_s = time.perf_counter() - faulted_t0
    return {
        "n_requests": n_requests,
        "n_reservations": n_res,
        "bare_s": bare_s,
        "service_rate0_s": svc_s,
        "speedup": bare_s / svc_s,
        "faulted_s": faulted_s,
        "faulted_admitted": faulted.n_admitted,
        "faulted_rejected": faulted.n_rejected,
        "faults_applied": faulted.faults_applied,
        "revocations": faulted.revocations,
        "rebooked": faulted.rebooked,
        "commit_retries": sum(o.retries for o in faulted.outcomes),
    }


def bench_sharded_throughput(
    *, n_requests: int, n_res: int, n_shards: int, repeats: int
) -> dict[str, Any]:
    """Streamed admission on a dense calendar: K shards vs one.

    The regime where sharding pays: a *dense* advance-reservation
    calendar (``n_res`` competing bookings → hundreds of thousands of
    profile segments) receiving wide fork-join sweeps.  Unsharded,
    every commit splices the full O(S)-segment profile and invalidates
    the whole platform's probe memos; sharded, a commit splices one
    shard's O(S/K) profile and the facade's generation-tagged probe
    cache re-issues only that shard's leg on the next probe — the other
    K - 1 legs of every retained probe stay provably current.

    Both pristine calendars are built once (the K-shard water-filled
    partition is expensive and untimed); every timed run adopts a fresh
    ``.copy()`` so repeats are independent.  ``speedup`` is the K = 1
    wall-clock over the K = ``n_shards`` wall-clock on the *identical*
    request stream, and the K = 1 report digest is asserted equal to
    the digest of the default engine, which partitions the scenario
    itself (K = 1) — a prebuilt calendar copy must book exactly like a
    fresh one; gated here and in ``check_bench_regression.py``.
    """
    from repro.dag.templates import parameter_sweep
    from repro.experiments.stream import StreamRequest, StreamScheduler
    from repro.shard import ShardedCalendar
    from repro.workloads.reservations import ReservationScenario

    capacity = 64
    rng = make_rng(7)
    horizon = 333.0 * n_res
    reservations = []
    for i in range(n_res):
        start = float(rng.uniform(0.0, horizon))
        dur = float(rng.uniform(60.0, 3_600.0))
        nprocs = int(rng.integers(1, max(2, capacity // 16)))
        reservations.append(
            Reservation(start=start, end=start + dur, nprocs=nprocs, label=f"r{i}")
        )
    scenario = ReservationScenario(
        name="shard-bench",
        capacity=capacity,
        now=0.0,
        reservations=tuple(reservations),
        hist_avg_available=capacity / 2,
    )
    graphs = [
        parameter_sweep(make_rng(1000 + i), n_points=14, stages_per_point=1)
        for i in range(4)
    ]
    requests = [
        StreamRequest(
            request_id=f"req-{k}",
            arrival_offset=k * 2_400.0,
            graph=graphs[k % len(graphs)],
        )
        for k in range(n_requests)
    ]

    base_k1 = ShardedCalendar.partition(
        capacity, scenario.reservations, n_shards=1
    )
    base_k = ShardedCalendar.partition(
        capacity, scenario.reservations, n_shards=n_shards
    )

    def run_on(base: ShardedCalendar) -> Any:
        _allocmod.clear_memo()
        return StreamScheduler(scenario, calendar=base.copy()).run(requests)

    _allocmod.clear_memo()
    unsharded_digest = StreamScheduler(scenario).run(requests).digest()
    k1_s, k1_report = _best_of(lambda: run_on(base_k1), repeats)
    sharded_s, k_report = _best_of(lambda: run_on(base_k), repeats)
    if k1_report.digest() != unsharded_digest:
        raise AssertionError(
            "K=1 prebuilt-calendar stream digest diverged from the "
            "default engine"
        )
    return {
        "n_requests": n_requests,
        "n_reservations": n_res,
        "n_shards": n_shards,
        "unsharded_digest": unsharded_digest,
        "k1_digest": k1_report.digest(),
        "k1_s": k1_s,
        "sharded_s": sharded_s,
        "speedup": k1_s / sharded_s,
        "requests_per_s_k1": n_requests / k1_s,
        "requests_per_s": n_requests / sharded_s,
        "admitted": sum(1 for o in k_report.outcomes if o.admitted),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def run_benchmarks(*, quick: bool = False) -> dict[str, Any]:
    """Run every benchmark and return the report dict."""
    if quick:
        sizes: dict[str, dict[str, int]] = {
            "calendar_commit": {"n_res": 120, "repeats": 2},
            "placement_query": {"n_res": 80, "n_queries": 20, "repeats": 2},
            "placement_query_indexed": {
                "n_res": 400, "n_queries": 40, "repeats": 2,
            },
            "sweep_alloc_memo": {
                "n_graphs": 2, "n_tasks": 40, "reuses": 3, "repeats": 2,
            },
            "cpa_allocation": {"n_tasks": 60, "q": 32, "repeats": 2},
            "table4_cell": {"dag_instances": 2, "n_workers": 2, "repeats": 1},
            # The stream sections' speedups are ratios of two
            # 0.1-0.5 s timings; one shot each lets a shared runner's
            # +-15-40% speed swings decide the ratio, so take min-of-3.
            "streamed_throughput": {
                "n_requests": 100, "n_res": 1000, "repeats": 3,
            },
            "service_faulted_stream": {
                "n_requests": 100, "n_res": 1000, "repeats": 3,
            },
            "sharded_throughput": {
                "n_requests": 40, "n_res": 40000, "n_shards": 8,
                "repeats": 3,
            },
        }
    else:
        sizes = {
            "calendar_commit": {"n_res": 400, "repeats": 3},
            "placement_query": {"n_res": 250, "n_queries": 40, "repeats": 3},
            "placement_query_indexed": {
                "n_res": 3000, "n_queries": 150, "repeats": 3,
            },
            "sweep_alloc_memo": {
                "n_graphs": 3, "n_tasks": 100, "reuses": 5, "repeats": 3,
            },
            "cpa_allocation": {"n_tasks": 150, "q": 64, "repeats": 3},
            "table4_cell": {"dag_instances": 6, "n_workers": 4, "repeats": 5},
            "streamed_throughput": {
                "n_requests": 300, "n_res": 2000, "repeats": 2,
            },
            "service_faulted_stream": {
                "n_requests": 300, "n_res": 2000, "repeats": 2,
            },
            "sharded_throughput": {
                "n_requests": 60, "n_res": 100000, "n_shards": 8,
                "repeats": 2,
            },
        }
    report: dict[str, Any] = {
        "quick": quick,
        "n_cpus": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    print(f"repro bench ({'quick' if quick else 'full'}), "
          f"{report['n_cpus']} CPU(s) visible", flush=True)
    report["calendar_commit"] = bench_calendar_commit(**sizes["calendar_commit"])
    _echo("calendar_commit", report["calendar_commit"],
          "seed_s", "incremental_s")
    report["placement_query"] = bench_placement_query(**sizes["placement_query"])
    _echo("placement_query", report["placement_query"],
          "seed_s", "vectorized_s")
    report["placement_query_indexed"] = bench_placement_query_indexed(
        **sizes["placement_query_indexed"]
    )
    _echo("placement_query_indexed", report["placement_query_indexed"],
          "seed_s", "indexed_s")
    report["sweep_alloc_memo"] = bench_sweep_alloc_memo(
        **sizes["sweep_alloc_memo"]
    )
    _echo("sweep_alloc_memo", report["sweep_alloc_memo"],
          "uncached_s", "memoized_s")
    report["cpa_allocation"] = bench_cpa_allocation(**sizes["cpa_allocation"])
    _echo("cpa_allocation", report["cpa_allocation"],
          "full_s", "incremental_s")
    report["table4_cell"] = bench_table4_cell(**sizes["table4_cell"])
    _echo("table4_cell", report["table4_cell"],
          "seed_serial_s", "parallel_s")
    report["streamed_throughput"] = bench_streamed_throughput(
        **sizes["streamed_throughput"]
    )
    _echo("streamed_throughput", report["streamed_throughput"],
          "naive_s", "streamed_s")
    report["service_faulted_stream"] = bench_service_faulted_stream(
        **sizes["service_faulted_stream"]
    )
    _echo("service_faulted_stream", report["service_faulted_stream"],
          "bare_s", "service_rate0_s")
    report["sharded_throughput"] = bench_sharded_throughput(
        **sizes["sharded_throughput"]
    )
    _echo("sharded_throughput", report["sharded_throughput"],
          "k1_s", "sharded_s")
    return report


def _echo(name: str, entry: dict[str, Any], before: str, after: str) -> None:
    print(
        f"  {name:<18} {entry[before]:8.4f}s -> {entry[after]:8.4f}s   "
        f"{entry['speedup']:5.2f}x",
        flush=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="hot-path performance regression benchmarks",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for CI smoke runs",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_hotpath.json"),
        help="output JSON path (default: ./BENCH_hotpath.json)",
    )
    args = parser.parse_args(argv)
    # Fail on an unwritable --out before spending minutes benchmarking.
    try:
        args.out.touch()
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    report = run_benchmarks(quick=args.quick)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
