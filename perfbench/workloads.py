"""The benchmark's four workloads.

Each workload makes its inputs (the program receives only the
generated inputs), sets the program up, and runs *episodes*: one
episode replays the workload's whole input against freshly set-up
program state, so every episode of a seed must give the same digest.

Inputs split into a fixed *platform* — the competing reservation book,
the catalogue of application shapes, the requests' arrival instants in
simulated time (the SWF submit times on the service), and the fault
trace, generated from :data:`PLATFORM_SEED` — and the *request mix*
drawn from ``--seed``: which shape each request brings, its tenant,
class and priority, and the open loop's wall-clock send times.  The
deadline cell runs a fixed instance set whose order the seed draws.  A
platform that changed with the seed would make the work per run differ
several-fold between seeds, far beyond any regression bound; arrival
instants drawn per seed moved ``stretch`` by 11% between seeds.

* ``stream_open`` — open-loop online admission: Poisson wall-clock
  sends at a fixed offered rate into ``StreamScheduler.admit``.
* ``service_faulted`` — closed-loop replay through
  ``ReservationService.run`` with quotas, shedding, injected faults and
  an fsync'd journal.
* ``dense_sharded`` — closed-loop admission of wide fork-joins into an
  8-shard ``ShardedCalendar`` holding 100k reservations.
* ``deadline_cell`` — the Table 6/7 protocol: tightest deadline per
  Table 7 algorithm, then every algorithm at 1.5x the loosest.

A *request* is the unit a user waits for: one admission on the stream
workloads; on the deadline cell one tightest-deadline search or one
schedule at the loose deadline.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro.core.deadline as deadline_mod
import repro.core.tightest as tightest_mod
import repro.cpa.allocation as allocation_mod
from repro.calendar import Reservation
from repro.core.context import ProblemContext
from repro.core.incremental import PlanMemo
from repro.core.ressched import ResSchedAlgorithm
from repro.dag import DagGenParams, TaskGraph, random_task_graph
from repro.dag.templates import parameter_sweep
from repro.errors import InfeasibleError
from repro.experiments.runner import iter_grid5000_instances
from repro.experiments.scenarios import ExperimentScale
from repro.experiments.stream import (
    StreamRequest,
    StreamScheduler,
    requests_from_specs,
)
from repro.experiments.table6 import LOOSE_FACTOR
from repro.experiments.table7 import TABLE7_ALGORITHMS
from repro.resilience.faults import FaultModel
from repro.schedule import Schedule
from repro.service import ReservationService, ServiceConfig, TenantQuota
from repro.service.journal import ServiceJournal
from repro.shard import ShardedCalendar
from repro.workloads import parse_request_stream
from repro.workloads.presets import preset
from repro.workloads.reservations import ReservationScenario
from repro.workloads.synthetic import generate_log

from perfbench import measure, oracle
from perfbench.tracer import Patcher

_clock = time.perf_counter
HOUR = 3600.0
CAPACITY = 64
#: Root seed of the platform data every seed shares (HPDC 2008's
#: opening day, as in ``ExperimentScale``).
PLATFORM_SEED = 20080623


@dataclass
class Episode:
    """What one episode measured and produced."""

    #: Elapsed seconds of the episode's requests.
    wall_s: float = 0.0
    #: Of ``wall_s``, the seconds the program worked: less the speed
    #: probes and, on the open loop, the idle time between sends.
    program_s: float = 0.0
    #: Seconds spent building the episode's fresh program state.
    build_s: float = 0.0
    #: Per request, in request order: seconds spent inside the program.
    busy: list[float] = field(default_factory=list)
    #: Per request, in request order: the latency its user sees, seconds.
    #: On a closed loop this is ``busy``; on the open loop it runs from
    #: the instant the request was due to be sent.
    latencies: list[float] = field(default_factory=list)
    #: Open loop only: how late the generator sent a request that found
    #: the program idle, seconds.
    late: list[float] = field(default_factory=list)
    #: Speed-probe times taken between the episode's requests, seconds,
    #: and for each the number of debts owed before it ran
    #: (:meth:`perfbench.measure.Speed.take`).
    probes: list[float] = field(default_factory=list)
    probes_after: list[int] = field(default_factory=list)
    requests: int = 0
    #: Results delivered, out of ``attempts`` (admissions, or deadline
    #: searches that found a deadline).
    served: int = 0
    attempts: int = 0
    #: Requests that errored or were dead-lettered.
    failed: int = 0
    #: Turn-around (or tightest deadline) and its critical-path bound.
    turnaround_s: float = 0.0
    bound_s: float = 0.0
    #: CPU-hours booked and the sequential hours of the same tasks.
    cpu_hours: float = 0.0
    seq_hours: float = 0.0
    #: Oracle violations.
    violations: list[str] = field(default_factory=list)
    #: Rows whose digest identifies the outputs.
    rows: list[Any] = field(default_factory=list)
    #: Workload-specific counts for the per-layer report.
    counts: Counter[str] = field(default_factory=Counter)


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def competing_scenario(n_res: int, name: str) -> ReservationScenario:
    """``n_res`` competing reservations on a 64-processor platform,
    spread ``333 s`` apart on average (the ``streamed_throughput``
    bench shape)."""
    rng = _rng(PLATFORM_SEED, n_res)
    horizon = 333.0 * n_res
    starts = rng.uniform(0.0, horizon, n_res)
    durs = rng.uniform(60.0, 3_600.0, n_res)
    procs = rng.integers(1, CAPACITY // 16, n_res)
    reservations = tuple(
        Reservation(start=float(s), end=float(s + d), nprocs=int(m), label=f"r{i}")
        for i, (s, d, m) in enumerate(zip(starts, durs, procs))
    )
    return ReservationScenario(
        name=name,
        capacity=CAPACITY,
        now=0.0,
        reservations=reservations,
        hist_avg_available=CAPACITY / 2,
    )


def _task_params(graph: TaskGraph) -> list[tuple[float, float]]:
    out = []
    for i in range(graph.n):
        task = graph.task(i)
        alpha = getattr(task.model, "alpha", None)
        if alpha is None:
            raise TypeError(f"task {task.name!r} has no Amdahl alpha")
        out.append((task.seq_time, alpha))
    return out


def check_schedule(
    schedule: Schedule,
    arrival: float,
    capacity: int,
    deadline: float | None = None,
) -> list[str]:
    """The oracle's per-application checks on one program schedule."""
    graph = schedule.graph
    out = oracle.schedule_violations(
        placements=[(p.start, p.nprocs, p.duration) for p in schedule.placements],
        tasks=_task_params(graph),
        edges=graph.edges,
        capacity=capacity,
        arrival=arrival,
        deadline=deadline,
    )
    if schedule.now != arrival:
        out.append(f"schedule is anchored at {schedule.now}, not {arrival}")
    return out


def critical_path_s(graph: TaskGraph, nprocs: int) -> float:
    """Lower bound on turn-around: the longest path with every task on
    ``nprocs`` processors of an idle platform."""
    finish: dict[int, float] = {}
    for v in graph.topological_order:
        t = graph.task(v)
        ready = max((finish[u] for u in graph.predecessors(v)), default=0.0)
        finish[v] = ready + oracle.amdahl_time(t.seq_time, t.model.alpha, nprocs)
    return max(finish.values())


def seq_hours(graph: TaskGraph) -> float:
    return sum(graph.task(i).seq_time for i in range(graph.n)) / HOUR


def add_quality(ep: Episode, schedule: Schedule) -> None:
    """Accumulate an admitted application's turn-around against its
    critical-path bound, and its CPU-hours against its sequential work."""
    ep.turnaround_s += schedule.turnaround
    ep.bound_s += critical_path_s(schedule.graph, CAPACITY)
    ep.cpu_hours += schedule.cpu_hours
    ep.seq_hours += seq_hours(schedule.graph)


def placement_rows(schedule: Schedule) -> tuple[tuple[float, int, float], ...]:
    return tuple((p.start, p.nprocs, p.duration) for p in schedule.placements)


def booked_intervals(
    scenario: ReservationScenario, schedules: list[Schedule]
) -> list[tuple[float, float, int]]:
    """The booked state when no fault changed it: the competing
    reservations plus every placement of ``schedules``."""
    out = [(r.start, r.end, r.nprocs) for r in scenario.reservations]
    for s in schedules:
        out.extend((p.start, p.start + p.duration, p.nprocs) for p in s.placements)
    return out


def _daggen_pool(seed: int, n_shapes: int) -> list[TaskGraph]:
    return [
        random_task_graph(DagGenParams(n=8, max_seq_time=3_600.0), _rng(seed, 2, i))
        for i in range(n_shapes)
    ]


def _warm(memo: PlanMemo, graphs: list[TaskGraph], scenario: ReservationScenario) -> None:
    for g in graphs:
        memo.plan(g, scenario, ResSchedAlgorithm())


class Workload:
    """Interface the harness drives."""

    name = ""
    #: Set-ups timed per run; ``setup_s`` is their median.
    n_setups = 5
    #: Episodes per run at the least, however long they take; a timing
    #: is the median of the episodes'.
    min_episodes = 3

    def setup(self) -> Any:
        """Timed: build the program state episodes share."""
        raise NotImplementedError

    def episode(self, shared: Any, speed: measure.Speed) -> Episode:
        """Run one episode on fresh program state built from ``shared``,
        paying ``speed`` its share of the time between requests."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# stream_open


class StreamOpen(Workload):
    """Open-loop online admission into the unsharded default engine."""

    name = "stream_open"
    #: Two episodes of 1000 requests: 2000 admissions a run at least.
    min_episodes = 2
    #: Offered load, requests per wall second: about 40% of the capacity
    #: a shared 2-core x86 host gives as measured (Python 3.11), 25% of
    #: ``capacity_rps`` at the reference speed.  Below half the capacity
    #: most requests find the program idle, so the median latency follows
    #: the program's speed rather than the queue's.
    RATE = 200.0
    N_SHAPES = 32
    #: Fewer requests let the request mix of a seed move ``stretch`` by
    #: more than 10% (500 requests: 12% spread across seeds).
    EPISODE_REQUESTS = 1_000

    def __init__(self, seed: int, seconds: float, out_dir: Path) -> None:
        rng = _rng(seed, 1)
        self.scenario = competing_scenario(2_000, "stream-open")
        self.shapes = _daggen_pool(PLATFORM_SEED, self.N_SHAPES)
        n = self.EPISODE_REQUESTS
        picks = rng.integers(0, self.N_SHAPES, n)
        offsets = np.cumsum(_rng(PLATFORM_SEED, 1).exponential(1_200.0, n))
        self.requests = [
            StreamRequest(
                request_id=f"req-{k}",
                arrival_offset=float(offsets[k]),
                graph=self.shapes[int(picks[k])],
            )
            for k in range(n)
        ]
        self.send_at = np.cumsum(rng.exponential(1.0 / self.RATE, n)).tolist()

    def setup(self) -> PlanMemo:
        allocation_mod.clear_memo()
        memo = PlanMemo()
        _warm(memo, self.shapes, self.scenario)
        # Building the engine (its calendar) is set-up work too; each
        # episode builds its own, outside the timed requests.
        StreamScheduler(self.scenario, memo=memo)
        return memo

    def episode(self, memo: PlanMemo, speed: measure.Speed) -> Episode:
        ep = Episode(requests=len(self.requests), attempts=len(self.requests))
        b0 = _clock()
        sched = StreamScheduler(self.scenario, memo=memo)
        ep.build_s = _clock() - b0
        busy, lat, late = ep.busy, ep.latencies, ep.late
        admit = sched.admit
        speed.owe(ep.build_s)
        free_at = 0.0
        t0 = _clock()
        for req, offset in zip(self.requests, self.send_at):
            due = t0 + offset
            # Probes use the idle time before a send, never delay one.
            speed.pay(until=due)
            _wait_until(due)
            start = _clock()
            if free_at <= due:
                late.append(start - due)
            admit(req)
            free_at = _clock()
            busy.append(free_at - start)
            lat.append(free_at - due)
            speed.owe(busy[-1])
        ep.wall_s = _clock() - t0
        ep.program_s = sum(busy)
        ep.probes, ep.probes_after = speed.take()
        schedules = []
        for o in sched.outcomes:
            s = o.schedule
            schedules.append(s)
            ep.served += o.admitted
            add_quality(ep, s)
            ep.violations += check_schedule(s, o.arrival, CAPACITY)
            ep.rows.append((o.request.request_id, o.admitted, placement_rows(s)))
        ep.violations += oracle.capacity_violations(
            CAPACITY, booked_intervals(self.scenario, schedules)
        )
        return ep


def _wait_until(due: float) -> None:
    """Sleep, then spin, until ``due`` on the performance clock."""
    while True:
        left = due - _clock()
        if left <= 0:
            return
        if left > 0.002:
            time.sleep(left - 0.001)


# ----------------------------------------------------------------------
# service_faulted


class ServiceFaulted(Workload):
    """Closed-loop trace replay through the journaled, faulted service."""

    name = "service_faulted"
    N_REQUESTS = 1_000
    N_SHAPES = 32
    TENANTS = ("acme", "globex", "initech")
    MAX_ACTIVE = (3, 4, 6)
    FAULTS_PER_DAY = 2.0
    #: Stretch of the SWF submit times: at 1x the stream books more
    #: processors than the platform has, and every fault then revokes
    #: hundreds of far-future bookings.
    ARRIVAL_SCALE = 2.0

    def __init__(self, seed: int, seconds: float, out_dir: Path) -> None:
        rng = _rng(seed, 3)
        self.scenario = competing_scenario(2_000, "service-faulted")
        self.shapes = _daggen_pool(PLATFORM_SEED, self.N_SHAPES)
        # Sim-time arrivals: the submit times of a synthetic SWF log,
        # written as request-CSV rows and read back by the program.
        jobs = generate_log(preset("CTC_SP2"), _rng(PLATFORM_SEED, 4))
        submits = [j.submit for j in jobs[: self.N_REQUESTS]]
        if len(submits) < self.N_REQUESTS:
            raise RuntimeError("the SWF preset log is too short")
        modes = rng.choice(["interactive", "batch"], self.N_REQUESTS, p=[0.4, 0.6])
        prios = rng.choice(["low", "mid", "high"], self.N_REQUESTS)
        tenants = rng.integers(0, len(self.TENANTS), self.N_REQUESTS)
        lines = ["request_id,arrival_offset,mode,priority,tenant"]
        for k, t in enumerate(submits):
            offset_ms = (t - submits[0]) * self.ARRIVAL_SCALE * 1e3
            lines.append(
                f"req-{k},{offset_ms:.3f},{modes[k]},{prios[k]},"
                f"{self.TENANTS[tenants[k]]}"
            )
        specs = parse_request_stream(lines)
        # Shapes go to requests round-robin, in an order the seed draws.
        order = rng.permutation(self.N_SHAPES)
        self.requests = requests_from_specs(specs, [self.shapes[i] for i in order])
        self.config = ServiceConfig(
            quotas={
                t: TenantQuota(max_active=m)
                for t, m in zip(self.TENANTS, self.MAX_ACTIVE)
            },
            shed_backlog=24,
            commit_latency=300.0,
            retry_backoff_base=30.0,
        )
        self.faults = FaultModel.from_rate(self.FAULTS_PER_DAY)
        (out_dir / "journal").mkdir(parents=True, exist_ok=True)
        self.journal = out_dir / "journal" / f"service-{seed}.jsonl"

    def _service(self, memo: PlanMemo) -> ReservationService:
        for path in (self.journal, Path(str(self.journal) + ".deadletter")):
            path.unlink(missing_ok=True)
        return ReservationService(
            self.scenario,
            config=self.config,
            fault_model=self.faults,
            seed=PLATFORM_SEED,
            journal_path=str(self.journal),
            memo=memo,
        )

    def setup(self) -> PlanMemo:
        allocation_mod.clear_memo()
        memo = PlanMemo()
        _warm(memo, self.shapes, self.scenario)
        self._service(memo)
        return memo

    def episode(self, memo: PlanMemo, speed: measure.Speed) -> Episode:
        ep = Episode(requests=len(self.requests), attempts=len(self.requests))
        b0 = _clock()
        service = self._service(memo)
        ep.build_s = _clock() - b0
        speed.owe(ep.build_s)
        busy = ep.busy
        start = [0.0]

        def stamp(fn: Callable[..., Any]) -> Callable[..., Any]:
            def record_outcome(self: Any, outcome: Any) -> None:
                fn(self, outcome)
                busy.append(_clock() - start[0])
                speed.owe(busy[-1])
                speed.pay()
                start[0] = _clock()

            return record_outcome

        # A request completes once its outcome is journaled; the next is
        # sent right away (closed loop), once the speed probe has run.
        with Patcher() as patcher:
            patcher.replace(ServiceJournal, "record_outcome", stamp)
            t0 = start[0] = _clock()
            report = service.run(self.requests)
            ep.wall_s = _clock() - t0
        # Every probe ran inside ``run``: the hook pays off the whole debt.
        ep.probes, ep.probes_after = speed.take()
        ep.program_s = ep.wall_s - sum(ep.probes)
        ep.latencies = busy
        ep.counts["journal.bytes"] = self.journal.stat().st_size
        ep.counts["journal.records"] = len(busy) + report.faults_applied
        ep.counts["retries"] = sum(o.retries for o in report.outcomes)
        ep.counts["revocations"] = report.revocations
        ep.failed = len(report.dead_letters)
        for o in report.outcomes:
            placements: tuple[Any, ...] = ()
            if o.admitted:
                s = o.schedule
                ep.served += 1
                add_quality(ep, s)
                ep.violations += check_schedule(s, o.arrival, CAPACITY)
                placements = placement_rows(s)
            ep.rows.append((o.request.request_id, o.status, o.reason, o.retries, placements))
        ep.rows.append(
            (report.faults_applied, report.faults_denied, report.revocations, report.rebooked)
        )
        ep.rows.extend(report.booked)
        ep.violations += oracle.capacity_violations(
            CAPACITY, [(b[0], b[1], b[2]) for b in report.booked]
        )
        ep.violations += repaired_violations(service, report)
        if len(busy) != len(self.requests):
            ep.violations.append(
                f"{len(busy)} outcomes journaled for {len(self.requests)} requests"
            )
        return ep


def repaired_violations(service: ReservationService, report: Any) -> list[str]:
    """The oracle's checks on the bookings each admitted request holds
    after the run, when faults have revoked and rebooked some of its
    tasks: durations, precedence and start >= arrival on the final
    placements, and every final booking present in the booked state."""
    booked = Counter((b[0], b[1], b[2]) for b in report.booked)
    # The service's record of each request's live reservations, as the
    # fault repairs left them.
    live = service._committed
    out: list[str] = []
    for o in report.outcomes:
        if not o.admitted:
            continue
        rid = o.request.request_id
        graph = o.request.graph
        held = live[rid].reservations
        if sorted(held) != list(range(graph.n)):
            out.append(f"{rid}: holds bookings for tasks {sorted(held)} of {graph.n}")
            continue
        placements = [
            (held[i].start, held[i].nprocs, held[i].end - held[i].start)
            for i in range(graph.n)
        ]
        out += [
            f"{rid} after repair: {v}"
            for v in oracle.schedule_violations(
                placements=placements,
                tasks=_task_params(graph),
                edges=graph.edges,
                capacity=CAPACITY,
                arrival=o.arrival,
            )
        ]
        for r in held.values():
            key = (r.start, r.end, r.nprocs)
            if booked[key] < 1:
                out.append(f"{rid}: booking {key} is missing from the booked state")
            booked[key] -= 1
    return out


# ----------------------------------------------------------------------
# dense_sharded


class DenseSharded(Workload):
    """Closed-loop fork-join admission into a dense 8-shard calendar."""

    name = "dense_sharded"
    n_setups = 3
    #: Four episodes of 250 requests: 1000 admissions a run.
    min_episodes = 4
    N_RESERVATIONS = 100_000
    N_SHARDS = 8
    N_SHAPES = 32
    #: Short episodes, so that a run holds many; fewer than 250
    #: requests let the request mix of a seed move ``stretch`` by 10%.
    EPISODE_REQUESTS = 250

    def __init__(self, seed: int, seconds: float, out_dir: Path) -> None:
        rng = _rng(seed, 5)
        self.scenario = competing_scenario(self.N_RESERVATIONS, "dense-sharded")
        self.shapes = [
            parameter_sweep(_rng(PLATFORM_SEED, 6, i), n_points=14, stages_per_point=1)
            for i in range(self.N_SHAPES)
        ]
        picks = rng.integers(0, self.N_SHAPES, self.EPISODE_REQUESTS)
        offsets = np.cumsum(
            _rng(PLATFORM_SEED, 5).exponential(4_800.0, self.EPISODE_REQUESTS)
        )
        self.requests = [
            StreamRequest(
                request_id=f"req-{k}",
                arrival_offset=float(offsets[k]),
                graph=self.shapes[int(picks[k])],
            )
            for k in range(self.EPISODE_REQUESTS)
        ]

    def setup(self) -> tuple[ShardedCalendar, PlanMemo]:
        allocation_mod.clear_memo()
        base = ShardedCalendar.partition(
            CAPACITY, self.scenario.reservations, n_shards=self.N_SHARDS
        )
        memo = PlanMemo()
        _warm(memo, self.shapes, self.scenario)
        return base, memo

    def episode(
        self, shared: tuple[ShardedCalendar, PlanMemo], speed: measure.Speed
    ) -> Episode:
        base, memo = shared
        ep = Episode(requests=len(self.requests), attempts=len(self.requests))
        b0 = _clock()
        sched = StreamScheduler(self.scenario, calendar=base.copy(), memo=memo)
        ep.build_s = _clock() - b0
        admit = sched.admit
        busy = ep.busy
        speed.owe(ep.build_s)
        t0 = _clock()
        for req in self.requests:
            start = _clock()
            admit(req)
            busy.append(_clock() - start)
            speed.owe(busy[-1])
            speed.pay()
        ep.wall_s = _clock() - t0
        ep.probes, ep.probes_after = speed.take()
        ep.program_s = ep.wall_s - sum(ep.probes)
        ep.latencies = busy
        schedules = []
        for o in sched.outcomes:
            s = o.schedule
            schedules.append(s)
            ep.served += o.admitted
            add_quality(ep, s)
            ep.violations += check_schedule(s, o.arrival, CAPACITY)
            ep.rows.append((o.request.request_id, o.admitted, placement_rows(s)))
        ep.violations += oracle.capacity_violations(
            CAPACITY, booked_intervals(self.scenario, schedules)
        )
        return ep


# ----------------------------------------------------------------------
# deadline_cell


class DeadlineCell(Workload):
    """The Table 6/7 protocol on a fixed set of smoke-scale instances."""

    name = "deadline_cell"
    N_INSTANCES = 3

    def __init__(self, seed: int, seconds: float, out_dir: Path) -> None:
        # The smoke scale's n=10 application on the Grid'5000 log: one
        # DAG per start time, in an order the seed draws.
        scale = replace(
            ExperimentScale.smoke(),
            app_scenarios=1,
            dag_instances=self.N_INSTANCES,
            start_times=self.N_INSTANCES,
            seed=PLATFORM_SEED,
        )
        instances = [
            (inst.graph, inst.scenario) for inst in iter_grid5000_instances(scale)
        ]
        order = _rng(seed, 7).permutation(len(instances))
        self.instances = [instances[i] for i in order]

    def _contexts(self) -> list[ProblemContext]:
        """Each instance's shared context, with the allocations and
        execution-time tables its requests all read built up front."""
        contexts = [ProblemContext(g, s) for g, s in self.instances]
        for ctx in contexts:
            ctx.cpa_p, ctx.cpa_q, ctx.exec_tables
        return contexts

    def setup(self) -> None:
        allocation_mod.clear_memo()
        self._contexts()

    def episode(self, shared: None, speed: measure.Speed) -> Episode:
        ep = Episode()
        b0 = _clock()
        contexts = self._contexts()
        ep.build_s = _clock() - b0
        speed.owe(ep.build_s)
        t0 = _clock()
        results = [self._cell(ctx, ep, speed) for ctx in contexts]
        ep.wall_s = _clock() - t0
        ep.probes, ep.probes_after = speed.take()
        ep.program_s = ep.wall_s - sum(ep.probes)
        ep.latencies = ep.busy
        ep.requests = len(ep.busy)
        for ctx, (tight, loose_deadline, loose) in zip(contexts, results):
            now = ctx.scenario.now
            for alg in TABLE7_ALGORITHMS:
                ep.attempts += 1
                found = tight[alg]
                if found is None:
                    ep.rows.append((alg, None))
                    continue
                ep.served += 1
                ep.counts["evaluations"] += found.evaluations
                ep.turnaround_s += found.turnaround(now)
                ep.bound_s += critical_path_s(ctx.graph, ctx.scenario.capacity)
                ep.violations += self._check(found.result, ctx, found.deadline)
                ep.rows.append((alg, found.deadline, placement_rows(found.result.schedule)))
            for alg, res in loose.items():
                if res.feasible:
                    ep.cpu_hours += res.cpu_hours
                    ep.seq_hours += seq_hours(ctx.graph)
                    ep.violations += self._check(res, ctx, loose_deadline)
                    ep.rows.append((alg, loose_deadline, placement_rows(res.schedule)))
                else:
                    ep.rows.append((alg, loose_deadline, None))
        ep.counts["no_deadline"] = ep.attempts - ep.served
        return ep

    @staticmethod
    def _cell(
        ctx: ProblemContext, ep: Episode, speed: measure.Speed
    ) -> tuple[dict[str, Any], float | None, dict[str, Any]]:
        """One instance through the protocol, timing every request."""
        graph, scenario = ctx.graph, ctx.scenario

        def timed(fn: Callable[..., Any], *args: Any) -> Any:
            start = _clock()
            try:
                return fn(*args, context=ctx)
            finally:
                ep.busy.append(_clock() - start)
                speed.owe(ep.busy[-1])
                speed.pay()

        tight: dict[str, Any] = {}
        for alg in TABLE7_ALGORITHMS:
            try:
                tight[alg] = timed(tightest_mod.tightest_deadline, graph, scenario, alg)
            except InfeasibleError:
                tight[alg] = None
        finite = [t.turnaround(scenario.now) for t in tight.values() if t is not None]
        if not finite:
            return tight, None, {}
        loose_deadline = scenario.now + LOOSE_FACTOR * max(finite)
        loose = {
            alg: timed(deadline_mod.schedule_deadline, graph, scenario, loose_deadline, alg)
            for alg in TABLE7_ALGORITHMS
        }
        return tight, loose_deadline, loose

    @staticmethod
    def _check(result: Any, ctx: ProblemContext, deadline: float) -> list[str]:
        s = result.schedule
        out = check_schedule(s, ctx.scenario.now, ctx.scenario.capacity, deadline)
        out += oracle.capacity_violations(
            ctx.scenario.capacity,
            booked_intervals(ctx.scenario, [s]),
        )
        return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (StreamOpen, ServiceFaulted, DenseSharded, DeadlineCell)
}
