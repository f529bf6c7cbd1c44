"""Digest pins for the online engines' calendar path.

The expected values were captured before the streamed engine and the
service moved to one calendar type (a K-shard ``ShardedCalendar``, with
K = 1 standing for the unsharded platform) and one fault-repair
routine.  They pin the faulted service's report digest and fault
counters at K in {1, 2, 4} under two fault models, and the streamed
engine's digest at K in {1, 4}, so any behaviour change in that path
shows up here.
"""

from __future__ import annotations

import pytest

from repro.experiments.stream import StreamScheduler
from repro.resilience.faults import FaultModel
from repro.service import ReservationService

from test_shard import DOWNTIME, _requests, _scenario

MODELS = {"rate150": FaultModel.from_rate(150.0), "downtime": DOWNTIME}

#: (model, shards) -> (digest, (revocations, rebooked, applied, denied)).
SERVICE_PINS = {
    ("rate150", 1): (
        "cd3a2bbe8a56b96c6a05fa1321be86e2faed8c2dfd2792e55c52cfb49a1ec0b9",
        (224, 262, 207, 153),
    ),
    ("rate150", 2): (
        "609827c7d87dfdc3ebb3fe009d29a26baa35270ed7e08ba37c076e53f6d992be",
        (135, 183, 207, 154),
    ),
    ("rate150", 4): (
        "88ac75a27d43a7589c6580b7f9413c778e62391c49415d2fec604764fe410ccb",
        (105, 132, 207, 147),
    ),
    ("downtime", 1): (
        "b18e1e0781665514d0b2b863b6d11011be924d9fed46c4ba37d5bc105941dbfa",
        (318, 354, 422, 373),
    ),
    ("downtime", 2): (
        "c672688cdcb422ba5a22081b2c3152810f9b4ff364c19dba5d8017601d5753f4",
        (89, 129, 422, 384),
    ),
    ("downtime", 4): (
        "e129c13088e8d45a43257590ce8d38adc422a6fd155afb9609df7012b1ad69cc",
        (89, 129, 422, 376),
    ),
}

STREAM_PINS = {
    1: "cd9ccb981b69a1040f509417a25038ce8d0ade55e3247014a52046df03f09e31",
    4: "dafba6e0e3bdfa06a21554a0663d993768053fbca36dd926de7e77fc9ff69db6",
}


@pytest.mark.parametrize("model,shards", sorted(SERVICE_PINS))
def test_faulted_service_digest_pinned(model, shards):
    report = ReservationService(
        _scenario(), fault_model=MODELS[model], seed=3, shards=shards
    ).run(_requests())
    digest, counters = SERVICE_PINS[(model, shards)]
    assert (
        report.revocations,
        report.rebooked,
        report.faults_applied,
        report.faults_denied,
    ) == counters
    assert report.digest() == digest


@pytest.mark.parametrize("shards", sorted(STREAM_PINS))
def test_stream_digest_pinned(shards):
    report = StreamScheduler(_scenario(), shards=shards).run(_requests())
    assert report.digest() == STREAM_PINS[shards]
