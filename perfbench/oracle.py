"""An independent correctness oracle over plain tuples.

It shares no code with the program: it imports nothing from ``repro``
and works on numbers the benchmark extracts from the program's outputs.
Every check returns a list of violation messages; an empty list means
the check passed.

* :func:`capacity_violations` — an exact event sweep over booked
  intervals: at no instant may the booked processors exceed capacity.
* :func:`schedule_violations` — per application: every duration is the
  task's Amdahl execution time on its processor count, no task starts
  before its predecessors finish, every start is at or after the
  arrival, and the completion meets the deadline if there is one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: Tolerance on times, seconds.  The program compares times with the
#: same tolerance; an overload must also last longer than this to count.
EPS = 1e-6


def amdahl_time(seq_time: float, alpha: float, nprocs: int) -> float:
    """Execution time of a task with serial fraction ``alpha``."""
    return seq_time * (alpha + (1.0 - alpha) / nprocs)


def capacity_violations(
    capacity: int,
    intervals: Iterable[tuple[float, float, int]],
    *,
    limit: int = 5,
) -> list[str]:
    """Sweep ``(start, end, nprocs)`` intervals in time order and report
    every stretch, longer than :data:`EPS`, where the booked processors
    exceed ``capacity``.  All events at one instant are applied together
    before the load is compared."""
    events: dict[float, int] = {}
    out: list[str] = []
    for start, end, nprocs in intervals:
        if not end > start or nprocs < 1:
            out.append(f"malformed interval [{start}, {end}) x{nprocs}")
            continue
        events[start] = events.get(start, 0) + nprocs
        events[end] = events.get(end, 0) - nprocs
    load = 0
    prev = float("-inf")
    for t in sorted(events):
        if load > capacity and t - prev > EPS:
            out.append(
                f"capacity {capacity} exceeded ({load} booked) on "
                f"[{prev}, {t})"
            )
            if len(out) >= limit:
                return out
        load += events[t]
        prev = t
    if load != 0:
        out.append(f"event sweep ends with {load} processors still booked")
    return out


def schedule_violations(
    *,
    placements: Sequence[tuple[float, int, float]],
    tasks: Sequence[tuple[float, float]],
    edges: Iterable[tuple[int, int]],
    capacity: int,
    arrival: float,
    deadline: float | None = None,
) -> list[str]:
    """Check one application's placements.

    Args:
        placements: ``(start, nprocs, duration)`` per task, by task index.
        tasks: ``(seq_time, alpha)`` per task, by task index.
        edges: Precedence edges ``(u, v)``: ``v`` may start only once
            ``u`` has finished.
        capacity: Platform size.
        arrival: Instant the application arrived; no task starts before.
        deadline: Completion deadline, if any.
    """
    out: list[str] = []
    if len(placements) != len(tasks):
        return [f"{len(placements)} placements for {len(tasks)} tasks"]
    for i, ((start, nprocs, duration), (seq, alpha)) in enumerate(
        zip(placements, tasks)
    ):
        if not 1 <= nprocs <= capacity:
            out.append(f"task {i} on {nprocs} of {capacity} processors")
            continue
        want = amdahl_time(seq, alpha, nprocs)
        if abs(duration - want) > 1e-9 * max(1.0, want):
            out.append(f"task {i} lasts {duration}, expected {want}")
        if start < arrival - EPS:
            out.append(f"task {i} starts at {start} before arrival {arrival}")
        if deadline is not None and start + duration > deadline + EPS:
            out.append(
                f"task {i} finishes at {start + duration} after the "
                f"deadline {deadline}"
            )
    for u, v in edges:
        finish_u = placements[u][0] + placements[u][2]
        if placements[v][0] < finish_u - EPS:
            out.append(
                f"task {v} starts at {placements[v][0]} before its "
                f"predecessor {u} finishes at {finish_u}"
            )
    return out
