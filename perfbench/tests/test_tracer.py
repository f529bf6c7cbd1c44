"""The tracer's wrappers: restoration and self-time accounting."""

import time
from collections import Counter

import pytest

from perfbench import layers
from perfbench.tracer import Patcher, Tracer, layer_table


class Stand:
    def plain(self, x):
        return x + 1

    @classmethod
    def klass(cls, x):
        return (cls, x)

    @staticmethod
    def static(x):
        return x * 2


def _snapshot():
    owners = {(owner, name) for targets in layers.TARGETS.values() for owner, name in targets}
    owners |= {
        (layers.RC, "earliest_starts_batch"),
        (layers.PlanMemo, "plan"),
        (layers.allocation_mod, "_cpa_allocation"),
    }
    return {(owner, name): vars(owner)[name] for owner, name in owners}


def test_install_restores_every_patched_attribute():
    before = _snapshot()
    with Patcher() as patcher:
        layers.install(patcher, Tracer(), Counter())
        during = _snapshot()
        assert all(during[k] is not before[k] for k in before)
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)


def test_restore_on_error_and_descriptor_kinds():
    raw = dict(vars(Stand))
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with Patcher() as patcher:
            patcher.trace(tracer, "stand", [(Stand, "plain"), (Stand, "klass"), (Stand, "static")])
            assert Stand().plain(1) == 2
            assert Stand.klass(3) == (Stand, 3)
            assert Stand.static(4) == 8
            raise RuntimeError("boom")
    for name in ("plain", "klass", "static"):
        assert vars(Stand)[name] is raw[name]
    assert tracer.calls("stand") == 3


def test_self_times_are_non_negative_and_within_wall():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_t = tracer.timed("leaf", leaf)
    middle_t = tracer.timed("middle", lambda: (time.sleep(0.001), leaf_t(), leaf_t()))
    top_t = tracer.timed("top", lambda: (middle_t(), leaf_t()))
    t0 = time.perf_counter()
    top_t()
    wall = time.perf_counter() - t0
    rows = layer_table(tracer, ["top", "middle", "leaf"], wall)
    for _, _, self_s, share, _ in rows:
        assert self_s >= 0 and share >= 0
    assert sum(r[2] for r in rows[:-1]) <= wall
    assert tracer.calls("leaf") == 3
    assert tracer.edges[("middle", "leaf")] == 2
    assert tracer.edges[("top", "leaf")] == 1
    # Self times partition the root span exactly.
    assert abs(sum(tracer.self_s(x) for x in ("top", "middle", "leaf")) - tracer.total_s("top")) < 1e-9
    assert len(tracer.spans) == 5 and tracer.spans[0][3] == -1
