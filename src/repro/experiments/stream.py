"""Arrival-driven scheduling of many DAGs against one shared calendar.

The paper schedules one application per calendar snapshot.  An online
multi-tenant service instead sees a *stream* of applications: requests
arrive over time, and each must be scheduled immediately against the
platform's current booking state — the competing reservations plus
every previously admitted application's task reservations.

Event model.  Requests are admitted in non-decreasing arrival-offset
order (the replay order :func:`repro.workloads.parse_request_stream`
guarantees).  Admission is greedy and immediate: request ``r`` is
scheduled at instant ``scenario.now + r.arrival_offset`` with the full
RESSCHED heuristic via the incremental engine
(:func:`repro.core.schedule_ressched_incremental`), committing its task
reservations into the one shared, generation-tagged
:class:`~repro.shard.ShardedCalendar` (one shard unless asked for more).
Already-booked requests are never revisited (advance reservations are
contracts).

:func:`schedule_stream_naive` is the reference baseline: per request it
rebuilds a full :class:`~repro.workloads.reservations.ReservationScenario`
holding everything booked so far and runs the batch
:func:`~repro.core.schedule_ressched` — N full passes.  Both paths
produce bitwise-identical placements; ``repro bench`` asserts this
before timing them (the ``streamed_throughput`` section).

Counters (``stream.*`` family, in RunReports when instrumented):

==============================  ========================================
counter                         meaning
==============================  ========================================
``stream.requests``             requests admitted
``stream.events``               task-completion events processed
``stream.batched_probes``       batched placement-probe calendar queries
``stream.probe_tasks``          tasks probed across those batches
``stream.probe_reused``         cached probes reused across events
``stream.probe_invalidated``    cached probes dropped by a commit
``stream.memo.hit`` / ``.miss`` plan-memo hits / misses (repeated DAG
                                shapes cost zero allocation work)
``stream.rejected``             requests turned away by admission control
==============================  ========================================

When :data:`repro.obs.timeline.ENABLED` is on, every admission also
emits timed events (``request_arrived``, ``placement_committed`` or
``request_rejected``) under the request's trace id, and the probe /
ready-queue layers underneath inherit that trace scope — see
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

import hashlib

from repro.core.incremental import PlanMemo, schedule_ressched_incremental
from repro.core.ressched import ResSchedAlgorithm, schedule_ressched
from repro.shard import ShardedCalendar, ShardProbePool
from repro.dag import TaskGraph
from repro.errors import ServiceError
from repro.obs import core as _obs
from repro.obs import stopwatch
from repro.obs import timeline as _tl
from repro.obs.slo import percentile_nearest_rank
from repro.schedule import Schedule
from repro.workloads.requests import RequestSpec
from repro.workloads.reservations import ReservationScenario


@dataclass(frozen=True)
class StreamRequest:
    """One application arriving in a request stream.

    Attributes:
        request_id: Unique identifier.
        arrival_offset: Seconds after the stream epoch (``scenario.now``)
            at which the request arrives.
        graph: The application to schedule.
        mode: ``"interactive"`` or ``"batch"`` (replay metadata).
        priority: ``"low"`` / ``"mid"`` / ``"high"`` (replay metadata).
        tenant: Owning tenant, carried on timeline events so multi-
            tenant SLO series can be sliced per tenant.
    """

    request_id: str
    arrival_offset: float
    graph: TaskGraph
    mode: str = "interactive"
    priority: str = "mid"
    tenant: str = "default"


@dataclass(frozen=True)
class StreamOutcome:
    """The admission result of one request.

    Attributes:
        request: The admitted request.
        arrival: Absolute arrival instant (``epoch + arrival_offset``).
        schedule: The committed schedule (``schedule.now == arrival``);
            for a rejected request, the tentative schedule that was
            discarded (its reservations were never booked).
        latency_s: Wall-clock seconds this admission's scheduling took
            (a measurement — not deterministic, excluded from any
            compute-derived result).
        admitted: Whether the placements were committed; ``False`` when
            admission control rejected the request.
    """

    request: StreamRequest
    arrival: float
    schedule: Schedule
    latency_s: float
    admitted: bool = True

    @property
    def turnaround(self) -> float:
        """The admitted application's turn-around time."""
        return self.schedule.turnaround


@dataclass(frozen=True)
class StreamReport:
    """Aggregate view of one replayed stream."""

    outcomes: tuple[StreamOutcome, ...]

    @property
    def n_requests(self) -> int:
        """Requests seen (admitted + rejected)."""
        return len(self.outcomes)

    @property
    def n_admitted(self) -> int:
        """Requests whose placements were committed."""
        return sum(1 for o in self.outcomes if o.admitted)

    @property
    def n_rejected(self) -> int:
        """Requests turned away by admission control."""
        return sum(1 for o in self.outcomes if not o.admitted)

    @property
    def schedules(self) -> list[Schedule]:
        """The committed schedules, in admission order."""
        return [o.schedule for o in self.outcomes if o.admitted]

    def latency_percentiles(
        self, qs: Sequence[float] = (50.0, 99.0)
    ) -> dict[str, float]:
        """Scheduling-latency percentiles in milliseconds, keyed
        ``"p<q>"`` — nearest-rank semantics, shared with the SLO series
        (:func:`repro.obs.slo.percentile_nearest_rank`)."""
        lat = [o.latency_s for o in self.outcomes]
        return {
            f"p{q:g}": percentile_nearest_rank(lat, q) * 1e3 for q in qs
        }

    def digest(self) -> str:
        """SHA-256 over the deterministic outcome content.

        Covers request ids, admission dispositions, and every committed
        placement's ``(task, start, nprocs, duration)`` — exactly the
        compute-derived results, no wall-clock measurements.  Two runs
        with the same digest placed every task identically; the K=1
        sharded-vs-unsharded and pooled-vs-serial equivalences are
        asserted on this value.
        """
        h = hashlib.sha256()
        for o in self.outcomes:
            h.update(o.request.request_id.encode())
            h.update(b"+" if o.admitted else b"-")
            for p in o.schedule.placements:
                h.update(
                    f"{p.task}:{p.start!r}:{p.nprocs}:{p.duration!r};".encode()
                )
        return h.hexdigest()

    def summary(self) -> dict:
        """JSON-ready aggregate numbers for reports."""
        total_latency = sum(o.latency_s for o in self.outcomes)
        admitted = [o for o in self.outcomes if o.admitted]
        return {
            "n_requests": self.n_requests,
            "admitted": len(admitted),
            "rejected": self.n_requests - len(admitted),
            "digest": self.digest(),
            "scheduling_s": total_latency,
            "requests_per_s": (
                self.n_requests / total_latency if total_latency > 0 else 0.0
            ),
            "latency_ms": self.latency_percentiles(),
            "mean_turnaround_s": (
                float(np.mean([o.turnaround for o in admitted]))
                if admitted
                else float("nan")
            ),
        }


class StreamScheduler:
    """Admits a request stream against one shared calendar.

    One instance owns the platform's booking state for the whole stream:
    a single calendar seeded with the scenario's competing reservations,
    mutated by every admission's committed task reservations.  Plans
    (priority orders, bounds, execution tables) are memoized by graph
    content digest across requests, and the CPA allocations behind them
    hit the process-wide allocation memo, so repeated DAG shapes cost
    zero allocation work after their first admission.

    Args:
        scenario: Platform snapshot at the stream epoch; its ``now`` is
            the epoch all arrival offsets are relative to.
        algorithm: RESSCHED heuristic applied to every request.
        cpa_stopping: CPA stopping criterion for plan building.
        tie_break: Completion-tie resolution, as in the batch scheduler.
        memo: Optional shared :class:`~repro.core.incremental.PlanMemo`
            (several streams can share one).
        admission_window: Optional admission-control bound, seconds: a
            request whose earliest tentative start exceeds
            ``arrival + admission_window`` is rejected and its
            placements are discarded (scheduled against a throwaway
            :meth:`~repro.shard.ShardedCalendar.copy`, so the shared
            calendar is untouched).  ``None`` (the default)
            admits everything and keeps the bitwise-identical-to-naive
            fast path.
        shards: Number of calendar shards K (default 1).  The platform
            is partitioned into a :class:`~repro.shard.ShardedCalendar`
            of K shards: placement probes fan out and reduce per shard,
            and each placement is hosted wholly by one shard.  K = 1 is
            the unsharded engine — the facade short-circuits to its
            single shard.
        shard_workers: Fan the per-shard probe legs out to this many
            worker processes via :class:`~repro.shard.ShardProbePool`
            (0 = serial fan-out).  Results are bitwise identical at any
            worker count; call :meth:`close` when done to release the
            workers.
        calendar: Optional pre-built booking calendar to adopt instead
            of partitioning the scenario — it must cover the scenario's
            capacity and competing reservations (the caller vouches;
            nothing is re-validated) and carries its own shard count.
            The benchmarks use this to amortize one expensive
            :meth:`ShardedCalendar.partition` over many timed runs (each
            run adopts a fresh ``.copy()``).  Mutually exclusive with
            ``shards`` and ``shard_workers``.
    """

    def __init__(
        self,
        scenario: ReservationScenario,
        algorithm: ResSchedAlgorithm = ResSchedAlgorithm(),
        *,
        cpa_stopping: str = "stringent",
        tie_break: str = "fewest",
        memo: PlanMemo | None = None,
        admission_window: float | None = None,
        shards: int = 1,
        shard_workers: int = 0,
        calendar: ShardedCalendar | None = None,
    ):
        if admission_window is not None and not admission_window >= 0:
            raise ServiceError(
                f"admission_window must be >= 0, got {admission_window}"
            )
        if calendar is not None and (shards != 1 or shard_workers):
            raise ServiceError(
                "a pre-built calendar carries its own shards; pass neither "
                "shards nor shard_workers with it"
            )
        self._scenario = scenario
        self._algorithm = algorithm
        self._cpa_stopping = cpa_stopping
        self._tie_break = tie_break
        self._memo = PlanMemo() if memo is None else memo
        self._admission_window = (
            None if admission_window is None else float(admission_window)
        )
        self._pool: ShardProbePool | None = None
        if calendar is not None:
            self._calendar = calendar
        else:
            self._calendar = ShardedCalendar.partition(
                scenario.capacity,
                scenario.reservations,
                n_shards=int(shards),
            )
            if shard_workers:
                self._pool = ShardProbePool(self._calendar, int(shard_workers))
                self._calendar.attach_pool(self._pool)
        self._calendar.availability()  # pre-compile once for the stream
        self._last_offset = 0.0
        self._outcomes: list[StreamOutcome] = []

    @property
    def scenario(self) -> ReservationScenario:
        """The stream-epoch platform snapshot."""
        return self._scenario

    @property
    def calendar(self) -> ShardedCalendar:
        """The shared calendar holding everything booked so far."""
        return self._calendar

    def close(self) -> None:
        """Release the shard probe pool, if one was created."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    @property
    def outcomes(self) -> tuple[StreamOutcome, ...]:
        """Admissions so far, in order."""
        return tuple(self._outcomes)

    def tentative_schedule(
        self,
        request: StreamRequest,
        *,
        arrival: float,
        calendar: ShardedCalendar,
    ) -> Schedule:
        """Plan ``request`` at ``arrival`` against ``calendar``.

        The pure planning half of :meth:`admit`: builds (or reuses) the
        memoized plan and runs the incremental engine against the given
        calendar — normally a :meth:`~repro.shard.ShardedCalendar.copy`
        of the shared one, so nothing is committed until the caller
        adopts it.  :class:`repro.service.ReservationService` composes
        this with :meth:`adopt` for its optimistic-concurrency commits.
        """
        plan = self._memo.plan(
            request.graph,
            self._scenario,
            self._algorithm,
            cpa_stopping=self._cpa_stopping,
        )
        return schedule_ressched_incremental(
            request.graph,
            self._scenario,
            self._algorithm,
            tie_break=self._tie_break,
            calendar=calendar,
            now=arrival,
            plan=plan,
        )

    def adopt(self, calendar: ShardedCalendar) -> None:
        """Commit a staged copy of the shared calendar.

        The commit half of a tentative-then-commit admission: the caller
        planned against a :meth:`~repro.shard.ShardedCalendar.copy` and
        hands it back; only its touched shard legs are swapped in
        (:meth:`~repro.shard.ShardedCalendar.commit`).

        Raises:
            ShardCommitError: If a touched leg moved since the copy.
            CalendarError: If ``calendar`` was not copied from the
                shared calendar.
        """
        self._calendar.commit(calendar)

    def admit(self, request: StreamRequest) -> StreamOutcome:
        """Schedule one request at its arrival instant and book it.

        Raises:
            ServiceError: If the request arrives out of order (offsets
                must be non-decreasing) or before the stream epoch.
        """
        offset = float(request.arrival_offset)
        if offset < 0:
            raise ServiceError(
                f"request {request.request_id!r}: arrival_offset must be "
                f">= 0, got {offset}"
            )
        if offset < self._last_offset:
            raise ServiceError(
                f"request {request.request_id!r} arrives at offset "
                f"{offset} after a request at {self._last_offset}; "
                "admit requests in non-decreasing arrival order"
            )
        self._last_offset = offset
        arrival = self._scenario.now + offset
        if _tl.ENABLED:
            _tl.emit(
                "request_arrived",
                arrival,
                trace=request.request_id,
                tenant=request.tenant,
                tasks=request.graph.n,
                mode=request.mode,
                priority=request.priority,
            )
            _tl.push_trace(request.request_id, request.tenant)
        # With admission control on, schedule tentatively against a
        # cheap calendar copy; commit = adopt the copy, reject = drop it.
        target = (
            self._calendar
            if self._admission_window is None
            else self._calendar.copy()
        )
        try:
            with stopwatch("stream.admit") as sw:
                schedule = self.tentative_schedule(
                    request, arrival=arrival, calendar=target
                )
        finally:
            if _tl.ENABLED:
                _tl.pop_trace()
        admitted = True
        if self._admission_window is not None:
            first_start = min(
                (p.start for p in schedule.placements), default=arrival
            )
            if first_start - arrival > self._admission_window:
                admitted = False
            else:
                self.adopt(target)
        if admitted:
            if _obs.ENABLED:
                _obs.incr("stream.requests")
                _obs.observe("stream.request.tasks", request.graph.n)
            if _tl.ENABLED:
                _tl.emit(
                    "placement_committed",
                    # Sim time = scheduled first start, so SLO queue
                    # depth reads as admitted-but-not-started backlog.
                    min(
                        (p.start for p in schedule.placements),
                        default=arrival,
                    ),
                    trace=request.request_id,
                    tenant=request.tenant,
                    latency_s=sw.wall_s,
                    makespan=schedule.turnaround,
                    tasks=request.graph.n,
                )
        else:
            if _obs.ENABLED:
                _obs.incr("stream.rejected")
            if _tl.ENABLED:
                _tl.emit(
                    "request_rejected",
                    arrival,
                    trace=request.request_id,
                    tenant=request.tenant,
                    latency_s=sw.wall_s,
                    reason="admission-window",
                    wait_s=first_start - arrival,
                )
        outcome = StreamOutcome(
            request=request,
            arrival=arrival,
            schedule=schedule,
            latency_s=sw.wall_s,
            admitted=admitted,
        )
        self._outcomes.append(outcome)
        return outcome

    def run(self, requests: Sequence[StreamRequest]) -> StreamReport:
        """Admit every request in order and return the report."""
        for request in requests:
            self.admit(request)
        return StreamReport(outcomes=tuple(self._outcomes))


def schedule_stream_naive(
    scenario: ReservationScenario,
    requests: Sequence[StreamRequest],
    algorithm: ResSchedAlgorithm = ResSchedAlgorithm(),
    *,
    cpa_stopping: str = "stringent",
    tie_break: str = "fewest",
) -> list[Schedule]:
    """The N-full-passes reference: batch-reschedule per request.

    For each request, build a fresh scenario whose reservation set is
    the original competing reservations plus every task reservation
    booked so far, and run the batch :func:`~repro.core.schedule_ressched`
    on it.  Placements are bitwise-identical to
    :class:`StreamScheduler`'s — this is the equivalence oracle and the
    benchmark baseline, not a production path.
    """
    booked = list(scenario.reservations)
    schedules: list[Schedule] = []
    last_offset = 0.0
    for request in requests:
        offset = float(request.arrival_offset)
        if offset < 0 or offset < last_offset:
            raise ServiceError(
                f"request {request.request_id!r}: arrival offsets must be "
                "non-negative and non-decreasing"
            )
        last_offset = offset
        scenario_r = replace(
            scenario,
            now=scenario.now + offset,
            reservations=tuple(booked),
        )
        schedule = schedule_ressched(
            request.graph,
            scenario_r,
            algorithm,
            cpa_stopping=cpa_stopping,
            tie_break=tie_break,
        )
        booked.extend(schedule.reservations())
        schedules.append(schedule)
    return schedules


def requests_from_specs(
    specs: Sequence[RequestSpec], graphs: Sequence[TaskGraph]
) -> list[StreamRequest]:
    """Pair replayed request specs with application DAGs, round-robin.

    A replay CSV carries arrival metadata but no applications; this
    assigns ``graphs[k % len(graphs)]`` to the ``k``-th spec — the
    deterministic bridge between :mod:`repro.workloads.requests` and the
    stream driver.
    """
    if not graphs:
        raise ServiceError("requests_from_specs needs at least one graph")
    return [
        StreamRequest(
            request_id=spec.request_id,
            arrival_offset=spec.arrival_offset,
            graph=graphs[k % len(graphs)],
            mode=spec.mode,
            priority=spec.priority,
            tenant=spec.tenant,
        )
        for k, spec in enumerate(specs)
    ]
