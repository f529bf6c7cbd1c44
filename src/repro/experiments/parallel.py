"""Deterministic parallel execution of instance streams.

The table drivers all share one shape of work: enumerate a fully
deterministic instance stream (:mod:`repro.experiments.runner`) and run
an independent, instance-local computation on each element.  This module
fans that shape out over a :class:`~concurrent.futures.ProcessPoolExecutor`
while keeping the results **bitwise identical at any worker count**:

* The stream is never pickled.  Each worker receives only the stream
  *factory*, its arguments (an :class:`ExperimentScale` is a small frozen
  dataclass), a chunk id, and the chunk count; it regenerates the stream
  locally and processes the instances whose global index ``idx`` satisfies
  ``idx % n_chunks == chunk``.  Streams derive every random object from
  the scale's seed and a structural key, so regeneration is exact.
* Workers return ``(idx, scenario_key, result)`` triples; the parent
  merges all chunks **sorted by global index** before accumulating, so
  float accumulation order — and therefore every summary statistic — is
  identical to the serial run.
* Logs are materialized inside each worker as a pure function of
  ``(log_name, seed)`` (:func:`repro.experiments.runner._cached_log`), so
  no multi-megabyte job tuples cross the process boundary.
* When :mod:`repro.obs` instrumentation is enabled, each instance's
  counters/histograms/spans are collected into a **per-instance**
  collector (in the worker) and merged into the parent's ambient
  collector **sorted by global index**.  Integer aggregates (counters,
  bucket counts, span counts) are associative and the float sums see the
  identical fold order, so the merged instrumentation — like the results
  themselves — is bitwise-stable at any worker count.  Records emitted
  while *generating* the stream (scenario calendars compile during
  iteration) are discarded on every path: each worker regenerates the
  whole stream, so keeping them would double-count by ``n_workers``;
  the serial path drops them too so serial and parallel aggregates
  match exactly.

``n_workers=1`` bypasses the pool entirely and runs inline (but still
collects per instance, so serial and parallel aggregates match exactly).

:func:`run_sweep` is the fault-tolerant entry point on top of the same
machinery: per-instance timeouts (SIGALRM inside the worker), chunk
retry with exponential backoff after a worker crash, per-instance
isolation and quarantine of the crashing instance when retries are
exhausted, and an optional JSON-lines journal for checkpoint/resume.
Completed instances keep the bitwise-identical-at-any-worker-count
guarantee: results and instrumentation are folded in global index
order no matter which path (fresh run, retry, resume) produced them.
"""

from __future__ import annotations

import atexit
import base64
import json
import os
import pickle
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ExecutionError, GenerationError
from repro.experiments.runner import InstanceStream
from repro.obs import core as _obs

#: An instance-level computation: ``work(inst, **kwargs) -> result``.
#: Must be a module-level function (workers import it by reference).
InstanceWork = Callable[..., Any]

#: A stream factory: ``factory(*args) -> Iterator[InstanceStream]``.
StreamFactory = Callable[..., Iterator[InstanceStream]]


#: Long-lived pools, keyed by worker count.  Worker startup (fork plus
#: copy-on-write page-table setup for a NumPy-sized parent) costs tens of
#: milliseconds per worker, so table drivers called repeatedly — the
#: benchmark harness, sweeps over scales — share one pool per count
#: instead of re-forking every call.  Workers hold a fork-time snapshot
#: of module globals; flip module-level switches (e.g.
#: ``repro.calendar.calendar.INCREMENTAL_COMMITS``) before the first
#: parallel call, or call :func:`shutdown_pools` to force fresh workers.
_POOLS: dict[int, ProcessPoolExecutor] = {}


def _pool(n_workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(n_workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=n_workers)
        _POOLS[n_workers] = pool
    return pool


def _submit(
    n_workers: int, fn: Callable[..., Any], *args: Any, **kwargs: Any
) -> Future[Any]:
    """Submit to the cached pool.  A pool found broken at submit time (a
    worker died after its last call returned) is handled like a chunk
    lost at result time: dropped, and the call goes to a fresh fork."""
    try:
        return _pool(n_workers).submit(fn, *args, **kwargs)
    except BrokenProcessPool:
        _POOLS.pop(n_workers, None)
        return _pool(n_workers).submit(fn, *args, **kwargs)


def shutdown_pools() -> None:
    """Shut down all cached worker pools (new calls fork fresh workers)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown()


atexit.register(shutdown_pools)


def _collected_call(
    work: InstanceWork, inst: InstanceStream, kwargs: dict[str, Any]
) -> tuple[Any, dict[str, Any] | None]:
    """Run ``work`` on one instance, capturing its instrumentation.

    Returns ``(result, obs_snapshot)``; the snapshot is None when
    instrumentation is disabled.  Collecting per instance (rather than
    per worker) is what makes the aggregates independent of how
    instances are sliced into chunks.
    """
    if not _obs.ENABLED:
        return work(inst, **kwargs), None
    with _obs.collecting() as col:
        result = work(inst, **kwargs)
    return result, col.to_dict()


class _InstanceTimeout(Exception):
    """Raised by the SIGALRM handler guarding one instance."""


@contextmanager
def _alarm(seconds: float | None):
    """Raise :class:`_InstanceTimeout` after ``seconds`` of wall time.

    No-op when ``seconds`` is falsy, on platforms without ``SIGALRM``,
    or off the main thread (signals only deliver there).  Any previously
    armed real-timer (e.g. a test-suite-level timeout) is restored with
    its remaining time on exit, so nested timers compose.
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _handler(signum, frame):
        raise _InstanceTimeout()

    old_handler = signal.signal(signal.SIGALRM, _handler)
    t0 = time.monotonic()
    prev_delay, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)
        if prev_delay:
            remaining = prev_delay - (time.monotonic() - t0)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.001))


class _Quarantined:
    """In-band marker: this instance was quarantined, not computed."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason


def _guarded_call(
    work: InstanceWork,
    inst: InstanceStream,
    kwargs: dict[str, Any],
    timeout: float | None,
) -> tuple[Any, dict[str, Any] | None, str | None]:
    """Run one instance under a timeout, translating any failure into a
    quarantine reason instead of letting it poison the sweep.

    Returns ``(result, obs_snapshot, reason)``; ``reason`` is None on
    success.  ``KeyboardInterrupt``/``SystemExit`` still propagate.
    """
    try:
        with _alarm(timeout):
            result, snap = _collected_call(work, inst, kwargs)
        return result, snap, None
    except _InstanceTimeout:
        return None, None, f"timed out after {timeout:g}s"
    except Exception as exc:  # noqa: BLE001  # lint: ignore[REP005] — worker isolation boundary: any failure quarantines the instance, never crashes the sweep
        return None, None, f"{type(exc).__name__}: {exc}"


def _run_chunk(
    work: InstanceWork,
    factory: StreamFactory,
    factory_args: tuple,
    chunk: int,
    n_chunks: int,
    kwargs: dict[str, Any],
    obs_enabled: bool,
    timeout: float | None = None,
    skip: frozenset[int] = frozenset(),
    guard: bool = False,
) -> list[tuple[int, str, Any, dict[str, Any] | None]]:
    """Worker body: regenerate the stream, process one residue class.

    With ``guard`` set (the fault-tolerant sweep), each instance runs
    under :func:`_guarded_call` and failures come back as
    :class:`_Quarantined` entries; ``skip`` drops already-journaled
    instances on resume.
    """
    # Pool workers hold a fork-time snapshot of module globals; align the
    # instrumentation switch with the parent explicitly so enabling obs
    # after the pool forked still collects (and vice versa).
    _obs.ENABLED = obs_enabled
    out: list[tuple[int, str, Any, dict[str, Any] | None]] = []
    # The chunk-level collector swallows stream-generation records (every
    # worker regenerates the full stream, so they must not be shipped) and
    # keeps long-lived pool workers from accumulating ambient state.
    with _obs.collecting():
        for idx, inst in enumerate(factory(*factory_args)):
            if idx % n_chunks != chunk or idx in skip:
                continue
            if guard:
                result, snap, reason = _guarded_call(work, inst, kwargs, timeout)
                if reason is not None:
                    out.append((idx, inst.scenario_key, _Quarantined(reason), None))
                else:
                    out.append((idx, inst.scenario_key, result, snap))
            else:
                result, snap = _collected_call(work, inst, kwargs)
                out.append((idx, inst.scenario_key, result, snap))
    return out


def _run_single(
    work: InstanceWork,
    factory: StreamFactory,
    factory_args: tuple,
    idx: int,
    kwargs: dict[str, Any],
    obs_enabled: bool,
    timeout: float | None,
) -> tuple[int, str, Any, dict[str, Any] | None]:
    """Worker body for the isolation path: one guarded instance."""
    _obs.ENABLED = obs_enabled
    with _obs.collecting():
        for i, inst in enumerate(factory(*factory_args)):
            if i == idx:
                result, snap, reason = _guarded_call(work, inst, kwargs, timeout)
                if reason is not None:
                    return idx, inst.scenario_key, _Quarantined(reason), None
                return idx, inst.scenario_key, result, snap
    raise ExecutionError(f"stream has no instance with index {idx}")


def map_stream(
    work: InstanceWork,
    factory: StreamFactory,
    factory_args: tuple,
    *,
    n_workers: int = 1,
    work_kwargs: dict[str, Any] | None = None,
) -> list[tuple[str, Any]]:
    """Apply ``work`` to every instance of a stream, possibly in parallel.

    Args:
        work: Instance-level computation (module-level function).
        factory: Stream factory (module-level function); called as
            ``factory(*factory_args)`` in every worker.
        factory_args: Arguments for the factory; must pickle.
        n_workers: Process count.  1 (default) runs inline with no pool.
        work_kwargs: Extra keyword arguments for ``work``; must pickle.

    Returns:
        ``(scenario_key, result)`` pairs in global stream order —
        independent of ``n_workers``.
    """
    if n_workers < 1:
        raise GenerationError(f"n_workers must be >= 1, got {n_workers}")
    kwargs = work_kwargs or {}
    if n_workers == 1:
        out: list[tuple[str, Any]] = []
        ambient = _obs.current()
        # Discard stream-generation records here too, exactly as the
        # workers do, so serial and parallel aggregates are identical.
        with _obs.collecting():
            for inst in factory(*factory_args):
                result, snap = _collected_call(work, inst, kwargs)
                if snap is not None:
                    ambient.merge(snap)
                out.append((inst.scenario_key, result))
        return out
    futures = [
        _submit(
            n_workers, _run_chunk, work, factory, factory_args, chunk,
            n_workers, kwargs, _obs.ENABLED,
        )
        for chunk in range(n_workers)
    ]
    try:
        quads = [t for f in futures for t in f.result()]
    except BrokenProcessPool:
        # A dead worker poisons the whole pool; drop it so the next call
        # forks a fresh one instead of failing forever.
        _POOLS.pop(n_workers, None)
        raise
    quads.sort(key=lambda t: t[0])
    # Fold instrumentation in global index order — the same order the
    # serial path records in, so the merged collector is identical.
    ambient = _obs.current()
    for _, _, _, snap in quads:
        if snap is not None:
            ambient.merge(snap)
    return [(key, result) for _, key, result, _ in quads]


def map_instances(
    work: InstanceWork,
    instances: Iterable[InstanceStream],
    *,
    work_kwargs: dict[str, Any] | None = None,
) -> list[tuple[str, Any]]:
    """Serial counterpart of :func:`map_stream` for an in-hand iterable.

    Table drivers accepting an arbitrary ``Iterable[InstanceStream]``
    (which may not be regenerable in a worker) use this inline path; the
    scale-driven entry points use :func:`map_stream`.
    """
    kwargs = work_kwargs or {}
    out: list[tuple[str, Any]] = []
    for inst in instances:
        result, snap = _collected_call(work, inst, kwargs)
        if snap is not None:
            _obs.current().merge(snap)
        out.append((inst.scenario_key, result))
    return out


# ----------------------------------------------------------------------
# Fault-tolerant sweeps
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultTolerance:
    """Fault-tolerance configuration for :func:`run_sweep`.

    Attributes:
        instance_timeout: Wall-clock seconds one instance may run before
            it is quarantined (None = no timeout).
        max_chunk_retries: Times a chunk lost to a worker crash is
            retried whole (with a fresh pool) before falling back to
            per-instance isolation.
        retry_backoff_s: Sleep before the first chunk retry; doubles per
            retry.
        journal: Path of a JSON-lines checkpoint journal.  Completed and
            quarantined instances are appended as they finish; a later
            ``run_sweep`` with the same journal skips them and merges
            their recorded results, yielding output identical to an
            uninterrupted run.
    """

    instance_timeout: float | None = None
    max_chunk_retries: int = 2
    retry_backoff_s: float = 0.25
    journal: str | None = None


@dataclass(frozen=True)
class QuarantinedInstance:
    """One instance the sweep gave up on, and why."""

    idx: int
    scenario_key: str
    reason: str


@dataclass
class SweepOutcome:
    """Everything a fault-tolerant sweep produced.

    Attributes:
        results: ``(scenario_key, result)`` pairs of completed instances
            in global stream order — the same pairs :func:`map_stream`
            would return, minus quarantined instances.
        quarantined: Instances that timed out, raised, or died with
            their worker, in global stream order.
        resumed: Instances loaded from the journal instead of computed.
    """

    results: list[tuple[str, Any]]
    quarantined: list[QuarantinedInstance] = field(default_factory=list)
    resumed: int = 0


def _encode_payload(result: Any) -> dict[str, str]:
    """Pickle-in-JSON: exact round-trip for arbitrary result objects
    (tuples stay tuples, floats stay bitwise-equal) inside a JSON line."""
    raw = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return {"codec": "pickle", "data": base64.b64encode(raw).decode("ascii")}


def _decode_payload(payload: dict[str, str]) -> Any:
    if payload.get("codec") != "pickle":
        raise ExecutionError(f"unknown journal codec {payload.get('codec')!r}")
    return pickle.loads(base64.b64decode(payload["data"]))


class _Journal:
    """Append-only JSON-lines checkpoint of a sweep.

    One record per line: a header, then ``result`` / ``quarantine``
    records as instances finish.  Loading tolerates a truncated final
    line (the crash may have interrupted a write); everything before it
    is trusted.
    """

    _FORMAT = "repro-sweep-journal"
    _VERSION = 1

    def __init__(self, path: str) -> None:
        self.path = path

    def load(
        self,
    ) -> tuple[dict[int, tuple[str, Any, dict | None]], dict[int, QuarantinedInstance]]:
        done: dict[int, tuple[str, Any, dict | None]] = {}
        quarantined: dict[int, QuarantinedInstance] = {}
        if not os.path.exists(self.path):
            self._write_header()
            return done, quarantined
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines:
            self._write_header()
            return done, quarantined
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            raise ExecutionError(f"{self.path}: not a sweep journal") from None
        if header.get("format") != self._FORMAT:
            raise ExecutionError(
                f"{self.path}: unexpected journal format {header.get('format')!r}"
            )
        for line in lines[1:]:
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                break  # truncated tail of an interrupted write
            if rec["type"] == "result":
                done[rec["idx"]] = (
                    rec["key"], _decode_payload(rec["payload"]), rec.get("obs"),
                )
            elif rec["type"] == "quarantine":
                quarantined[rec["idx"]] = QuarantinedInstance(
                    idx=rec["idx"], scenario_key=rec["key"], reason=rec["reason"],
                )
        return done, quarantined

    def _write_header(self) -> None:
        self._append({"format": self._FORMAT, "version": self._VERSION})

    def _append(self, rec: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def result(self, idx: int, key: str, result: Any, snap: dict | None) -> None:
        self._append({
            "type": "result", "idx": idx, "key": key,
            "payload": _encode_payload(result), "obs": snap,
        })

    def quarantine(self, q: QuarantinedInstance) -> None:
        self._append({
            "type": "quarantine", "idx": q.idx, "key": q.scenario_key,
            "reason": q.reason,
        })


def run_sweep(
    work: InstanceWork,
    factory: StreamFactory,
    factory_args: tuple,
    *,
    n_workers: int = 1,
    work_kwargs: dict[str, Any] | None = None,
    fault_tolerance: FaultTolerance | None = None,
) -> SweepOutcome:
    """Fault-tolerant :func:`map_stream`.

    Same contract — ``work`` applied to every instance of a regenerable
    stream, results in global stream order, instrumentation folded in
    index order — plus: instances that time out, raise, or crash their
    worker are quarantined instead of aborting the sweep; chunks lost to
    a dead worker are retried against a fresh pool with exponential
    backoff, then isolated instance by instance so only the pathological
    instance is lost; and an optional journal checkpoints every finished
    instance so an interrupted sweep resumes where it stopped.

    Completed instances are bitwise-identical to a plain
    :func:`map_stream` run at any worker count, with or without resume.
    """
    if n_workers < 1:
        raise GenerationError(f"n_workers must be >= 1, got {n_workers}")
    ft = fault_tolerance or FaultTolerance()
    kwargs = work_kwargs or {}
    journal = _Journal(ft.journal) if ft.journal else None
    done: dict[int, tuple[str, Any, dict | None]] = {}
    quarantined: dict[int, QuarantinedInstance] = {}
    if journal is not None:
        done, quarantined = journal.load()
    resumed = len(done) + len(quarantined)
    if resumed and _obs.ENABLED:
        _obs.incr("harness.resumed", resumed)

    def _absorb(idx: int, key: str, result: Any, snap: dict | None) -> None:
        if isinstance(result, _Quarantined):
            q = QuarantinedInstance(idx=idx, scenario_key=key, reason=result.reason)
            quarantined[idx] = q
            if journal is not None:
                journal.quarantine(q)
            if _obs.ENABLED:
                _obs.incr("harness.quarantined")
        else:
            done[idx] = (key, result, snap)
            if journal is not None:
                journal.result(idx, key, result, snap)

    skip = frozenset(done) | frozenset(quarantined)
    ambient = _obs.current()
    if n_workers == 1:
        # Inline path: guarded per instance, generation records discarded
        # exactly like the workers do.
        with _obs.collecting():
            for idx, inst in enumerate(factory(*factory_args)):
                if idx in skip:
                    continue
                result, snap, reason = _guarded_call(work, inst, kwargs, ft.instance_timeout)
                if reason is not None:
                    _absorb(idx, inst.scenario_key, _Quarantined(reason), None)
                else:
                    _absorb(idx, inst.scenario_key, result, snap)
    else:
        pending: list[tuple[int, int]] = [(chunk, 0) for chunk in range(n_workers)]
        while pending:
            batch, pending = pending, []
            futures = {
                _submit(
                    n_workers, _run_chunk, work, factory, factory_args, chunk,
                    n_workers, kwargs, _obs.ENABLED,
                    timeout=ft.instance_timeout, skip=skip, guard=True,
                ): (chunk, tries)
                for chunk, tries in batch
            }
            broken: list[tuple[int, int]] = []
            for fut, (chunk, tries) in futures.items():
                try:
                    for idx, key, result, snap in fut.result():
                        _absorb(idx, key, result, snap)
                except BrokenProcessPool:
                    broken.append((chunk, tries))
            if not broken:
                continue
            # A dead worker poisons the whole pool; fork a fresh one and
            # retry the lost chunks (their results never arrived, so
            # nothing is double-counted).
            _POOLS.pop(n_workers, None)
            for chunk, tries in broken:
                if tries < ft.max_chunk_retries:
                    if _obs.ENABLED:
                        _obs.incr("harness.chunk_retries")
                    time.sleep(ft.retry_backoff_s * (2 ** tries))
                    pending.append((chunk, tries + 1))
                else:
                    _isolate_chunk(
                        work, factory, factory_args, chunk, n_workers,
                        kwargs, skip, ft, _absorb,
                    )

    # Fold results and instrumentation in global index order — identical
    # to the serial, parallel, and resumed paths alike.
    for idx in sorted(done):
        snap = done[idx][2]
        if snap is not None:
            ambient.merge(snap)
    return SweepOutcome(
        results=[(done[idx][0], done[idx][1]) for idx in sorted(done)],
        quarantined=[quarantined[idx] for idx in sorted(quarantined)],
        resumed=resumed,
    )


def _isolate_chunk(
    work: InstanceWork,
    factory: StreamFactory,
    factory_args: tuple,
    chunk: int,
    n_chunks: int,
    kwargs: dict[str, Any],
    skip: frozenset[int],
    ft: FaultTolerance,
    absorb: Callable[[int, str, Any, dict | None], None],
) -> None:
    """Last resort for a chunk that keeps killing workers: submit its
    instances one at a time, so a crash condemns exactly one instance
    (quarantined with a worker-death reason) and the rest survive."""
    targets: list[tuple[int, str]] = []
    with _obs.collecting():  # discard parent-side stream-generation records
        for idx, inst in enumerate(factory(*factory_args)):
            if idx % n_chunks == chunk and idx not in skip:
                targets.append((idx, inst.scenario_key))
    for idx, key in targets:
        future = _submit(
            n_chunks, _run_single, work, factory, factory_args, idx, kwargs,
            _obs.ENABLED, ft.instance_timeout,
        )
        try:
            absorb(*future.result())
        except BrokenProcessPool:
            _POOLS.pop(n_chunks, None)
            absorb(idx, key, _Quarantined("worker process died"), None)
