"""The oracle accepts the program's schedules and rejects corrupted ones,
also after fault repairs."""

import ast
from pathlib import Path

from perfbench import oracle
from perfbench.workloads import (
    CAPACITY,
    ServiceFaulted,
    booked_intervals,
    check_schedule,
    competing_scenario,
    repaired_violations,
    _daggen_pool,
)
from repro.calendar import Reservation
from repro.core.incremental import PlanMemo
from repro.experiments.stream import StreamRequest, StreamScheduler


def _stream(n=6):
    scenario = competing_scenario(200, "t")
    shapes = _daggen_pool(3, 3)
    reqs = [
        StreamRequest(f"r{k}", 900.0 * k, shapes[k % 3]) for k in range(n)
    ]
    report = StreamScheduler(scenario).run(reqs)
    return scenario, report


def test_oracle_imports_no_program_code():
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("repro") for a in node.names)
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("repro")


def test_program_output_passes():
    scenario, report = _stream()
    for o in report.outcomes:
        assert check_schedule(o.schedule, o.arrival, CAPACITY) == []
    assert oracle.capacity_violations(
        CAPACITY, booked_intervals(scenario, report.schedules)
    ) == []


def test_over_capacity_is_rejected():
    scenario, report = _stream()
    booked = booked_intervals(scenario, report.schedules)
    s, nprocs = report.schedules[0].placements[0].start, 1
    # A whole-platform booking on top of a task that is already booked.
    booked.append((s, s + 10.0, CAPACITY))
    assert oracle.capacity_violations(CAPACITY, booked)
    assert oracle.capacity_violations(4, [(0.0, 5.0, 3), (2.0, 3.0, 2)])
    # Back-to-back bookings do not overlap.
    assert oracle.capacity_violations(4, [(0.0, 5.0, 3), (5.0, 6.0, 4)]) == []


def test_broken_precedence_is_rejected():
    _, report = _stream()
    sched = report.schedules[0]
    u, v = sched.graph.edges[0]
    pl = [(p.start, p.nprocs, p.duration) for p in sched.placements]
    tasks = [(sched.graph.task(i).seq_time, sched.graph.task(i).model.alpha) for i in range(sched.graph.n)]
    ok = oracle.schedule_violations(
        placements=pl, tasks=tasks, edges=sched.graph.edges,
        capacity=CAPACITY, arrival=sched.now,
    )
    assert ok == []
    pl[v] = (pl[u][0], pl[v][1], pl[v][2])  # v starts with its predecessor
    bad = oracle.schedule_violations(
        placements=pl, tasks=tasks, edges=sched.graph.edges,
        capacity=CAPACITY, arrival=sched.now,
    )
    assert any("predecessor" in m for m in bad)


def test_wrong_duration_arrival_and_deadline_are_rejected():
    placements = [(10.0, 2, 5.0)]
    tasks = [(10.0, 0.0)]
    assert oracle.schedule_violations(
        placements=placements, tasks=tasks, edges=[], capacity=4, arrival=10.0
    ) == []
    assert oracle.schedule_violations(
        placements=[(10.0, 2, 6.0)], tasks=tasks, edges=[], capacity=4, arrival=10.0
    )
    assert oracle.schedule_violations(
        placements=placements, tasks=tasks, edges=[], capacity=4, arrival=11.0
    )
    assert oracle.schedule_violations(
        placements=placements, tasks=tasks, edges=[], capacity=4,
        arrival=10.0, deadline=14.0,
    )


class _FaultyService(ServiceFaulted):
    N_REQUESTS = 40
    N_SHAPES = 4
    #: Dense enough that repairs move tasks of admitted requests.
    FAULTS_PER_DAY = 100.0


def test_corrupted_repair_is_rejected(tmp_path):
    w = _FaultyService(1, 0.01, tmp_path)
    service = w._service(PlanMemo())
    report = service.run(w.requests)
    assert report.rebooked > 0
    assert repaired_violations(service, report) == []
    # A task that a repair moved, and that has a predecessor.
    rid, u, v = next(
        (o.request.request_id, u, v)
        for o in report.outcomes
        if o.admitted
        for u, v in o.request.graph.edges
        if service._committed[o.request.request_id].reservations[v].start
        != o.schedule.placements[v].start
    )
    held = service._committed[rid].reservations
    moved = held[v]
    # Rebooked alongside its predecessor instead of after it.
    held[v] = Reservation(
        start=held[u].start,
        end=held[u].start + (moved.end - moved.start),
        nprocs=moved.nprocs,
        label=moved.label,
    )
    bad = repaired_violations(service, report)
    assert any("predecessor" in m for m in bad)
    assert any("missing from the booked state" in m for m in bad)
    # Rebooked in place but for the wrong length.
    held[v] = Reservation(
        start=moved.start, end=moved.end + 60.0, nprocs=moved.nprocs, label=moved.label
    )
    assert any("lasts" in m for m in repaired_violations(service, report))
