"""The windowed scan kernels and the two-endpoint commit splice.

The linear placement probes resolve rows in pure Python over the first
``BATCH_WINDOW_SEGMENTS`` profile segments and hand the rows still open
to a vectorized pass (forward) or a row-vectorized segment loop
(backward).  The Hypothesis calendars of ``test_perf_paths`` stay below
64 segments, so at the default window that handoff never runs there.
This file reruns the scalar-vs-multi equivalence suite at windows of 1,
2 and 64 segments, so the handoff runs on almost every example, and
checks the batch probe against the scalar query at each window.

``StepFunction.with_interval_delta`` tests only the jumps at the two
interval endpoints for cancellation; the splice cases below make both
cancel, and make the result collapse to the constant base.
"""

from __future__ import annotations

import numpy as np
import pytest
import test_perf_paths as perf
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.calendar.calendar as calmod
from repro.calendar import ResourceCalendar, StepFunction
from repro.rng import make_rng

WINDOWS = (1, 2, 64)


@pytest.fixture(params=WINDOWS, ids=lambda w: f"window{w}")
def scan_window(request):
    """Run the test with ``BATCH_WINDOW_SEGMENTS`` set to each window."""
    saved = calmod.BATCH_WINDOW_SEGMENTS
    calmod.BATCH_WINDOW_SEGMENTS = request.param
    try:
        yield request.param
    finally:
        calmod.BATCH_WINDOW_SEGMENTS = saved


@pytest.mark.usefixtures("scan_window")
class TestScalarMultiAtWindows(perf.TestScalarMultiEquivalence):
    """``TestScalarMultiEquivalence`` (earliest, earliest with
    ``m_offset``, latest) at every window in :data:`WINDOWS`."""


class TestBatchAtWindows:
    """``earliest_starts_batch`` against the scalar query, which shares no
    code with the scan kernels (it reads the memoized free runs)."""

    @pytest.mark.parametrize("window", WINDOWS)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 200), n_reqs=st.integers(1, 4))
    def test_batch_matches_scalar(self, window, seed, n_reqs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(calmod, "BATCH_WINDOW_SEGMENTS", window)
            rng = make_rng(seed)
            cal = ResourceCalendar(16, clamp=True)
            for _ in range(int(rng.integers(10, 60))):
                start = float(rng.integers(0, 5_000))
                cal.reserve(
                    start, float(rng.integers(10, 800)), int(rng.integers(1, 17))
                )
            requests = [
                (
                    float(rng.integers(-100, 6_000)),
                    rng.integers(1, 900, size=int(rng.integers(1, 17))).astype(
                        float
                    ),
                )
                for _ in range(n_reqs)
            ]
            batch = cal.earliest_starts_batch(requests)
            for (earliest, d), got in zip(requests, batch):
                for k in range(d.size):
                    want = cal.earliest_start(earliest, float(d[k]), k + 1)
                    assert got[k] == want, f"count {k + 1} diverges"


class TestEscalationCounter:
    def test_small_window_escalates_and_counts(self, monkeypatch):
        from repro import obs

        monkeypatch.setattr(calmod, "BATCH_WINDOW_SEGMENTS", 1)
        cal = ResourceCalendar(8)
        for k in range(6):
            cal.reserve(100.0 * k, 50.0, 8)
        d = np.array([500.0, 400.0])
        with obs.instrumented() as col:
            starts = cal.earliest_starts_multi(0.0, d)
            latest = cal.latest_starts_multi(600.0, d)
        assert starts.tolist() == [550.0, 550.0]
        # Only the free time before the first reservation is long enough.
        assert latest.tolist() == [-500.0, -400.0]
        assert col.counters["calendar.batch.escalations"] >= 2


# ----------------------------------------------------------------------
# Splice endpoints
# ----------------------------------------------------------------------


def _rebuild(events, base, start, end, delta):
    return StepFunction.from_deltas(
        list(events) + [(start, delta), (end, -delta)], base=base
    )


def _assert_bitwise(got: StepFunction, want: StepFunction) -> None:
    assert got.base == want.base
    assert got.times.tobytes() == want.times.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


class TestSpliceEndpoints:
    def test_both_endpoint_jumps_cancel(self):
        # base 8; [0,5): 6, [5,10): 5, [10,20): 7, then 8.  Adding 2 on
        # [0, 10) lifts [0,5) to the base and [5,10) to the value after
        # 10, so both endpoint breakpoints vanish; the one at 5 stays.
        events = [(0.0, -2.0), (5.0, -1.0), (10.0, 2.0), (20.0, 1.0)]
        prof = StepFunction.from_deltas(events, base=8.0)
        got = prof.with_interval_delta(0.0, 10.0, 2.0)
        assert got.times.tolist() == [5.0, 20.0]
        assert got.values.tolist() == [7.0, 8.0]
        _assert_bitwise(got, _rebuild(events, 8.0, 0.0, 10.0, 2.0))

    def test_collapse_to_constant_base(self):
        events = [(3.0, -4.0), (9.0, 4.0)]
        prof = StepFunction.from_deltas(events, base=12.0)
        got = prof.with_interval_delta(3.0, 9.0, 4.0)
        assert got.times.size == 0 and got.values.size == 0
        assert got == StepFunction.constant(12.0)
        _assert_bitwise(got, _rebuild(events, 12.0, 3.0, 9.0, 4.0))

    def test_collapse_with_interior_breakpoints(self):
        events = [(0.0, -3.0), (4.0, -2.0), (6.0, 2.0), (8.0, 3.0)]
        prof = StepFunction.from_deltas(events, base=10.0)
        # Undo the whole profile piece by piece: the last splice leaves
        # nothing but the base.
        step = prof.with_interval_delta(4.0, 6.0, 2.0)
        got = step.with_interval_delta(0.0, 8.0, 3.0)
        assert got == StepFunction.constant(10.0)

    @settings(max_examples=150, deadline=None)
    @given(
        spec=perf.reservation_lists,
        picks=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    )
    def test_cancelling_splice_equals_rebuild(self, spec, picks):
        """Splices aligned to existing breakpoints with the delta that
        cancels the start jump: the end jump cancels whenever the values
        line up too.  Either way the result equals the rebuild, bitwise."""
        events = [(float(s), -float(n)) for s, d, n in spec] + [
            (float(s + d), float(n)) for s, d, n in spec
        ]
        prof = StepFunction.from_deltas(events, base=perf.CAPACITY)
        if prof.times.size < 2:
            return
        i0 = picks[0] % (prof.times.size - 1)
        i1 = i0 + 1 + picks[1] % (prof.times.size - 1 - i0)
        start, end = float(prof.times[i0]), float(prof.times[i1])
        before = prof.base if i0 == 0 else float(prof.values[i0 - 1])
        delta = before - float(prof.values[i0])
        got = prof.with_interval_delta(start, end, delta)
        _assert_bitwise(got, _rebuild(events, perf.CAPACITY, start, end, delta))

    @settings(max_examples=100, deadline=None)
    @given(
        spec=perf.reservation_lists,
        start=st.integers(-20, 260),
        dur=st.integers(1, 50),
        delta=st.integers(-6, 6).filter(lambda x: x != 0),
    )
    def test_shifted_range_is_exact(self, spec, start, dur, delta):
        """The range a splice reports as shifted holds exactly the values
        covering ``[start, end)``; every other value is an old one."""
        events = [(float(s), -float(n)) for s, d, n in spec] + [
            (float(s + d), float(n)) for s, d, n in spec
        ]
        prof = StepFunction.from_deltas(events, base=perf.CAPACITY)
        got, lo, hi = prof._splice(float(start), float(start + dur), float(delta))
        for i, (t, v) in enumerate(zip(got.times, got.values)):
            inside = start <= t < start + dur
            assert inside == (lo <= i < hi)
            assert v == prof(t) + (delta if inside else 0.0)
