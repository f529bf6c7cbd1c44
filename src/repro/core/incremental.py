"""Incremental scheduler state for arrival-driven RESSCHED scheduling.

:func:`repro.core.ressched.schedule_ressched` is batch: every call
rebuilds the priority order, walks the tasks, and recomputes each task's
readiness from its predecessors' placements.  That is the right shape
for one application, but a stream of N applications admitted against one
shared calendar pays N full passes of setup for work that changes only
locally per event.

This module keeps the per-DAG scheduling state as first-class data, the
dask/distributed graph-state idiom: redundant forward/reverse dependency
dicts, an indegree map, and a heap-backed ready queue keyed by
``(bottom-level priority, task id)``, all maintained in O(1) dict work
per edge (plus one O(log n) heap push per newly-ready task) on each
task-completion event.  On top of it,
:func:`schedule_ressched_incremental` places one DAG into an existing —
possibly shared and already-booked — calendar, batching the placement
probes of all simultaneously-ready tasks into one
:meth:`~repro.calendar.calendar.ResourceCalendar.earliest_starts_batch`
query per event and retaining probe answers across events while they
provably stay exact.

The result is **bitwise-identical** to :func:`schedule_ressched` on the
same instance (a Hypothesis property test enforces this):

* *Pop order equals the batch priority order.*  The batch scheduler
  visits tasks in ``sorted(range(n), key=(-bl[i], i))`` order, which is
  topological because bottom levels strictly decrease along edges.  The
  heap pops ready tasks by the same ``(-bl[i], i)`` key; whenever the
  heap is popped, every task ordered before the globally-next unplaced
  task is already placed, so that task is ready and is the heap minimum.
* *Retained probes stay exact.*  Commits only reduce availability, and a
  commit ``[start, finish)`` that intersects none of a cached probe's
  candidate windows ``[s_k, s_k + d_k)`` leaves each ``s_k`` feasible
  and everything earlier infeasible; splices preserve breakpoint floats
  outside the spliced interval, so a fresh query would return the same
  bits.  The engine invalidates any cached probe whose window envelope
  overlaps the committed interval (conservative, hence safe).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.bottom_levels import bl_exec_times
from repro.core.bounds import allocation_bounds
from repro.core.context import ProblemContext
from repro.core.ressched import ResSchedAlgorithm, _ressched_decision
from repro.dag import TaskGraph
from repro.errors import GenerationError
from repro.obs import core as _obs
from repro.obs import timeline as _tl
from repro.schedule import Schedule, TaskPlacement
from repro.workloads.reservations import ReservationScenario

from repro.calendar import ResourceCalendar

if TYPE_CHECKING:  # import cycle guard (typing only)
    from repro.shard import ShardedCalendar


@dataclass(frozen=True)
class ResschedPlan:
    """The immutable inputs one RESSCHED pass derives from its context.

    Everything here depends only on the graph content, the platform size
    ``p``, the rounded availability ``q``, and the algorithm — not on the
    scheduling instant or the booked reservations — which is what makes
    plans reusable across a request stream (see :class:`PlanMemo`).

    Attributes:
        algorithm: The BL/BD combination the plan was built for.
        priorities: Per-task heap keys ``-bottom_level``; ordering by
            ``(priorities[i], i)`` reproduces the batch scheduler's
            priority order exactly.
        bounds: Per-task allocation bounds (candidate counts ``1..b_i``).
        exec_tables: Per-task execution-time vectors ``T_i(m)`` for
            ``m = 1..p``; probes slice them to ``bounds``.
    """

    algorithm: ResSchedAlgorithm
    priorities: np.ndarray
    bounds: np.ndarray
    exec_tables: tuple[np.ndarray, ...]


def build_plan(ctx: ProblemContext, algorithm: ResSchedAlgorithm) -> ResschedPlan:
    """Derive the :class:`ResschedPlan` of one (context, algorithm) pair."""
    bl = ctx.graph.bottom_levels(bl_exec_times(ctx, algorithm.bl))
    return ResschedPlan(
        algorithm=algorithm,
        priorities=-bl,
        bounds=allocation_bounds(ctx, algorithm.bd),
        exec_tables=tuple(ctx.exec_tables),
    )


class PlanMemo:
    """Content-addressed memo of :class:`ResschedPlan` across a stream.

    Keyed by ``(graph content digest, p, q, cpa_stopping, bl, bd)`` —
    the full input closure of :func:`build_plan` — so repeated DAG
    shapes in a request stream cost zero priority/bound/allocation work
    after their first admission.  The CPA allocations behind a plan are
    additionally shared process-wide by the allocation memo
    (:mod:`repro.cpa.allocation`), which this memo reaches through
    :class:`ProblemContext` on every miss.
    """

    def __init__(self, cap: int = 512):
        self._cap = int(cap)
        self._store: dict[tuple, ResschedPlan] = {}

    def __len__(self) -> int:
        return len(self._store)

    def plan(
        self,
        graph: TaskGraph,
        scenario: ReservationScenario,
        algorithm: ResSchedAlgorithm,
        *,
        cpa_stopping: str = "stringent",
    ) -> ResschedPlan:
        """The plan for ``graph`` under ``scenario``'s platform, cached."""
        q = int(
            min(max(round(scenario.hist_avg_available), 1), scenario.capacity)
        )
        key = (
            graph.content_digest,
            scenario.capacity,
            q,
            cpa_stopping,
            algorithm.bl,
            algorithm.bd,
        )
        hit = self._store.get(key)
        if hit is not None:
            if _obs.ENABLED:
                _obs.incr("stream.memo.hit")
            return hit
        if _obs.ENABLED:
            _obs.incr("stream.memo.miss")
        ctx = ProblemContext(graph, scenario, cpa_stopping=cpa_stopping)
        plan = build_plan(ctx, algorithm)
        if len(self._store) >= self._cap:
            if _obs.ENABLED:
                _obs.incr("stream.memo.evict")
            self._store = {}
        self._store[key] = plan
        return plan


class SchedulerState:
    """Incremental ready-set state of one admitted DAG.

    Holds the graph's dependency structure redundantly in both
    directions (forward successor dict and reverse predecessor dict),
    the live indegree of every unplaced task, each task's earliest-start
    floor (``max(now, ready_floor, finished predecessors)``), and a heap
    of ready tasks keyed by ``(priority, task id)``.  A task-completion
    event (:meth:`complete`) updates all of it in O(out-degree) dict
    operations plus one heap push per newly-ready successor — no global
    recompute.

    The priorities must order tasks exactly as the batch scheduler's
    ``sorted(range(n), key=(priorities[i], i))``; with
    ``priorities = -bottom_levels`` the heap pop order provably equals
    the batch visiting order (see the module docstring).
    """

    __slots__ = (
        "_succs",
        "_preds",
        "_indegree",
        "_priorities",
        "_ready_at",
        "_heap",
        "_n",
        "_n_placed",
    )

    def __init__(
        self,
        graph: TaskGraph,
        priorities: np.ndarray,
        *,
        now: float,
        ready_floors: "Sequence[float] | None" = None,
    ):
        n = graph.n
        if len(priorities) != n:
            raise ValueError(
                f"priorities must have one entry per task ({n}), got "
                f"{len(priorities)}"
            )
        if ready_floors is not None and len(ready_floors) != n:
            raise ValueError(
                f"ready_floors must have one entry per task ({n}), got "
                f"{len(ready_floors)}"
            )
        self._n = n
        self._n_placed = 0
        self._succs = {i: graph.successors(i) for i in range(n)}
        self._preds = {i: graph.predecessors(i) for i in range(n)}
        self._indegree = {i: len(self._preds[i]) for i in range(n)}
        self._priorities = [float(p) for p in priorities]
        # Earliest-start floor per task; grows monotonically as
        # predecessors finish, reproducing the batch scheduler's
        # max(now/floor, predecessor finishes) fold bitwise (float max
        # is exact and order-independent).
        if ready_floors is None:
            self._ready_at = {i: float(now) for i in range(n)}
        else:
            self._ready_at = {
                i: max(float(now), float(ready_floors[i])) for i in range(n)
            }
        self._heap: list[tuple[float, int]] = [
            (self._priorities[i], i) for i in range(n) if self._indegree[i] == 0
        ]
        heapq.heapify(self._heap)
        if _tl.ENABLED and self._heap:
            _tl.emit(
                "task_ready", float(now), n=len(self._heap), pending=n
            )

    @property
    def done(self) -> bool:
        """True once every task has been placed."""
        return self._n_placed == self._n

    @property
    def n_placed(self) -> int:
        """Tasks placed so far."""
        return self._n_placed

    def ready_at(self, task: int) -> float:
        """Current earliest-start floor of ``task`` (final once ready)."""
        return self._ready_at[task]

    def ready_tasks(self) -> list[int]:
        """The ready (unplaced, all-predecessors-placed) tasks, in pop
        order."""
        return [i for _, i in sorted(self._heap)]

    def pop(self) -> int:
        """Remove and return the highest-priority ready task."""
        if not self._heap:
            raise ValueError("no ready task to pop")
        _, i = heapq.heappop(self._heap)
        return i

    def complete(self, task: int, finish: float) -> list[int]:
        """Record ``task`` finishing at ``finish``; returns newly-ready
        tasks.

        Decrements each successor's indegree, lifts its earliest-start
        floor to ``finish`` if later, and pushes it onto the ready heap
        when its last predecessor just completed.
        """
        self._n_placed += 1
        f = float(finish)
        newly: list[int] = []
        for s in self._succs[task]:
            self._indegree[s] -= 1
            if f > self._ready_at[s]:
                self._ready_at[s] = f
            if self._indegree[s] == 0:
                heapq.heappush(self._heap, (self._priorities[s], s))
                newly.append(s)
        if _tl.ENABLED and newly:
            _tl.emit(
                "task_ready",
                f,
                n=len(newly),
                pending=self._n - self._n_placed,
            )
        return newly


def schedule_ressched_incremental(
    graph: TaskGraph,
    scenario: ReservationScenario,
    algorithm: ResSchedAlgorithm = ResSchedAlgorithm(),
    *,
    context: ProblemContext | None = None,
    cpa_stopping: str = "stringent",
    tie_break: str = "fewest",
    ready_floors: "Sequence[float] | None" = None,
    calendar: "ResourceCalendar | ShardedCalendar | None" = None,
    now: float | None = None,
    plan: ResschedPlan | None = None,
) -> Schedule:
    """RESSCHED via the incremental engine; bitwise-identical to
    :func:`~repro.core.ressched.schedule_ressched`.

    The extra keyword arguments are what make it streamable:

    Args:
        graph: The application.
        scenario: Platform snapshot (capacity, competing reservations, P').
        algorithm: BL/BD combination to run.
        context: Optional pre-built :class:`ProblemContext` (single-DAG
            callers comparing algorithms); ignored when ``plan`` is given.
        cpa_stopping: CPA stopping criterion when ``context``/``plan``
            are absent.
        tie_break: ``"fewest"`` (default) or ``"most"``, as in the batch
            scheduler.
        ready_floors: Optional per-task earliest-start floors.
        calendar: Target calendar to place into; the task reservations
            are committed into it, so a stream driver passes one shared
            calendar across calls.  Accepts a
            :class:`~repro.shard.ShardedCalendar` (probes then fan out
            per shard and placements route to their hosting shard).
            Defaults to a fresh ``scenario.calendar()``.
        now: Scheduling instant override (a request's arrival time);
            defaults to ``scenario.now``.
        plan: Precomputed :class:`ResschedPlan` (from :class:`PlanMemo`);
            must have been built for this graph/platform/algorithm.

    Returns:
        A complete, feasible schedule, bitwise-equal to the batch path's.
    """
    if tie_break not in ("fewest", "most"):
        raise ValueError(
            f"tie_break must be 'fewest' or 'most', got {tie_break!r}"
        )
    if ready_floors is not None and len(ready_floors) != graph.n:
        raise ValueError(
            f"ready_floors must have one entry per task "
            f"({graph.n}), got {len(ready_floors)}"
        )
    if plan is None:
        ctx = context or ProblemContext(graph, scenario, cpa_stopping=cpa_stopping)
        if ctx.graph is not graph or ctx.scenario is not scenario:
            raise GenerationError(
                "provided context wraps a different graph or scenario"
            )
        plan = build_plan(ctx, algorithm)
    elif plan.algorithm != algorithm:
        raise GenerationError(
            f"provided plan was built for {plan.algorithm.name}, not "
            f"{algorithm.name}"
        )
    cal = scenario.calendar() if calendar is None else calendar
    t0 = scenario.now if now is None else float(now)

    bounds = plan.bounds
    tables = plan.exec_tables
    state = SchedulerState(
        graph, plan.priorities, now=t0, ready_floors=ready_floors
    )
    # Cached probe per ready task: (starts, window envelope lo/hi, the
    # event it was computed at).  Dict, not set: iteration order must be
    # deterministic.
    probes: dict[int, tuple[np.ndarray, float, float, int]] = {}
    placements: list[TaskPlacement | None] = [None] * graph.n
    prov: list[dict] | None = [] if _obs.ENABLED else None

    def _run() -> None:
        event = 0
        while not state.done:
            fresh = [i for i in state.ready_tasks() if i not in probes]
            if fresh:
                batch = cal.earliest_starts_batch(
                    [
                        (state.ready_at(i), tables[i][: int(bounds[i])])
                        for i in fresh
                    ]
                )
                for i, starts in zip(fresh, batch):
                    windows = starts + tables[i][: int(bounds[i])]
                    # A sharded calendar probes processor counts no
                    # single shard can host as +inf; those entries are
                    # statically infeasible forever, so they never
                    # constrain the invalidation envelope.  All-finite
                    # (unsharded) probes take the first branch bitwise.
                    # (`x[x.argmax()]` is `x.max()` without the Python-level
                    # reduction wrapper that dominates on short arrays.)
                    hi = float(windows[windows.argmax()])
                    if not math.isfinite(hi):
                        finite = windows[np.isfinite(windows)]
                        hi = (
                            float(finite.max())
                            if finite.size
                            else float(starts.min())
                        )
                    probes[i] = (
                        starts,
                        float(starts[starts.argmin()]),
                        hi,
                        event,
                    )
                if prov is not None:
                    _obs.incr("stream.batched_probes")
                    _obs.incr("stream.probe_tasks", len(fresh))

            i = state.pop()
            starts, _lo, _hi, probed_at = probes.pop(i)
            durations = tables[i][: int(bounds[i])]
            completions = starts + durations
            if tie_break == "fewest":
                # argmin returns the first minimum: the fewest processors
                # among exact completion ties.
                j = int(completions.argmin())
            else:
                # Last minimum: the most processors among ties.
                j = int(completions.size - 1 - completions[::-1].argmin())
            m, start, dur = j + 1, float(starts[j]), float(durations[j])
            if prov is not None:
                _obs.incr("stream.events")
                if probed_at != event:
                    _obs.incr("stream.probe_reused")
                _obs.incr("ressched.tasks")
                _obs.incr("ressched.placement_probes", int(durations.size))
                _obs.observe("ressched.candidates_per_task", durations.size)
                rec = _ressched_decision(
                    algorithm.name, graph, i, state.ready_at(i), starts,
                    completions, j,
                )
                _obs.decision(rec)
                prov.append(rec)
            # The placement came out of this calendar's own query, so commit
            # via the fast path (no strict capacity re-validation).
            cal.reserve_known_feasible(start, dur, m, label=graph.task(i).name)
            finish = start + dur
            if probes:
                # Drop cached probes whose window envelope overlaps the
                # committed interval [start, finish); survivors provably
                # still answer a fresh query bit for bit.
                dead = [
                    t
                    for t, (_s, lo, hi, _ev) in probes.items()
                    if lo < finish and start < hi
                ]
                for t in dead:
                    del probes[t]
                if prov is not None and dead:
                    _obs.incr("stream.probe_invalidated", len(dead))
            placements[i] = TaskPlacement(
                task=i, start=start, nprocs=m, duration=dur
            )
            if _tl.ENABLED:
                _tl.emit(
                    "task_placed",
                    start,
                    task=i,
                    nprocs=m,
                    duration=dur,
                    finish=finish,
                )
            state.complete(i, finish)
            event += 1

    # One span per whole schedule call, not per event; with obs disabled
    # even the no-op span call is skipped.
    if _obs.ENABLED:
        with _obs.span(f"ressched.{algorithm.name}.incremental"):
            _run()
    else:
        _run()

    return Schedule(
        graph=graph,
        now=t0,
        placements=tuple(placements),  # type: ignore[arg-type]
        algorithm=algorithm.name,
        provenance=tuple(prov) if prov is not None else None,
    )
