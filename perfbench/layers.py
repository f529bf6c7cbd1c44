"""The layers the traced run splits time over, and where each is patched.

Every layer is timed from outside, by wrapping the public functions
named below where the program resolves them.  A few wrappers also count
what passes through them (probe batch sizes, memo hits), so that the
ratios are measured where the work happens.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Callable

import repro.core.context as context_mod
import repro.core.deadline as deadline_mod
import repro.core.tightest as tightest_mod
import repro.cpa.allocation as allocation_mod
import repro.cpa.mapping as mapping_mod
import repro.experiments.stream as stream_mod
from repro.calendar.calendar import ResourceCalendar
from repro.core.incremental import PlanMemo
from repro.dag.graph import TaskGraph
from repro.service.core import ReservationService
from repro.service.journal import ServiceJournal
from repro.shard.calendar import ShardedCalendar

from perfbench.tracer import Patcher, Tracer

RC = ResourceCalendar
SC = ShardedCalendar

#: layer -> the (owner, attribute) pairs whose calls it times.
TARGETS: dict[str, tuple[tuple[Any, str], ...]] = {
    "cpa.allocation": (
        (context_mod, "cpa_allocation"),
        (mapping_mod, "cpa_allocation"),
    ),
    "core.plan": ((PlanMemo, "plan"),),
    "core.incremental": ((stream_mod, "schedule_ressched_incremental"),),
    "calendar.probe": ((RC, "earliest_starts_batch"), (RC, "earliest_start")),
    "calendar.probe_multi": ((RC, "earliest_starts_multi"),),
    "calendar.latest": ((RC, "latest_starts_multi"),),
    "calendar.commit": (
        (RC, "reserve_known_feasible"),
        (RC, "add"),
        (RC, "remove"),
    ),
    "calendar.copy": ((RC, "copy"),),
    "calendar.build": ((RC, "__init__"),),
    "stream.tentative": ((stream_mod.StreamScheduler, "tentative_schedule"),),
    "stream.adopt": ((stream_mod.StreamScheduler, "adopt"),),
    "service.journal": (
        (ServiceJournal, "record_outcome"),
        (ServiceJournal, "record_fault"),
    ),
    "service.fsync": ((os, "fsync"),),
    "service.self": ((ReservationService, "run"),),
    "shard.probe": (
        (SC, "earliest_starts_batch"),
        (SC, "earliest_start"),
        (SC, "earliest_starts_multi"),
    ),
    "shard.commit": (
        (SC, "reserve_known_feasible"),
        (SC, "add"),
        (SC, "remove"),
        (SC, "commit"),
    ),
    "shard.copy": ((SC, "copy"),),
    "shard.partition": ((SC, "partition"),),
    "deadline.search": ((tightest_mod, "tightest_deadline"),),
    "deadline.backward": (
        (tightest_mod, "schedule_deadline"),
        (deadline_mod, "schedule_deadline"),
    ),
    "deadline.remap": ((deadline_mod, "cpa_map"), (TaskGraph, "subgraph")),
}

LAYERS: tuple[str, ...] = tuple(TARGETS)


def _counting_batch(counts: Counter[str]) -> Callable[[Any], Any]:
    def make(fn: Any) -> Any:
        def earliest_starts_batch(self: Any, requests: Any, *a: Any, **k: Any) -> Any:
            counts["probe.batches"] += 1
            counts["probe.batch_tasks"] += len(requests)
            return fn(self, requests, *a, **k)

        return earliest_starts_batch

    return make


def _counting_plan(counts: Counter[str]) -> Callable[[Any], Any]:
    def make(fn: Any) -> Any:
        def plan(self: Any, *a: Any, **k: Any) -> Any:
            before = len(self)
            out = fn(self, *a, **k)
            counts["plan.hits" if len(self) == before else "plan.misses"] += 1
            return out

        return plan

    return make


def _counting(counts: Counter[str], key: str) -> Callable[[Any], Any]:
    def make(fn: Any) -> Any:
        def counted(*a: Any, **k: Any) -> Any:
            counts[key] += 1
            return fn(*a, **k)

        return counted

    return make


def install(patcher: Patcher, tracer: Tracer, counts: Counter[str]) -> None:
    """Wrap every layer target in its span, and add the counters."""
    # Counters go in first so that they sit inside the span and their
    # (tiny) cost is charged to the layer they count.
    patcher.replace(RC, "earliest_starts_batch", _counting_batch(counts))
    patcher.replace(PlanMemo, "plan", _counting_plan(counts))
    # The allocation memo answers hits without computing; counting the
    # computes gives the misses.
    patcher.replace(
        allocation_mod, "_cpa_allocation", _counting(counts, "cpa.computes")
    )
    tracer.keep_durations("service.fsync")
    for layer, targets in TARGETS.items():
        patcher.trace(tracer, layer, targets)
