"""Tests for the sharded calendar engine (repro.shard).

Covers the partitioning/water-filling invariants, the deterministic
probe fan-out/reduce (including the generation-tagged facade probe
cache), the two-phase cross-shard commit protocol, the K = 1 bitwise
reduction to the unsharded engine (stream and service), whole-shard
downtime faults forcing cross-shard repair, the shard fault rule
(victims come from shard ``idx % K``, latest first), sharded
kill-and-resume, and process-pool probe fan-out digest equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.calendar import Reservation, ResourceCalendar
from repro.dag import DagGenParams, random_task_graph
from repro.errors import CalendarError, ShardCommitError
from repro.experiments.stream import StreamRequest, StreamScheduler
from repro.obs import core as obs_core
from repro.resilience.faults import FaultModel
from repro.rng import make_rng
from repro.service import ReservationService
from repro.shard import ShardedCalendar, shard_capacities
from repro.workloads.reservations import ReservationScenario


def _reservations(n=20, seed=5, capacity=32, horizon=30_000.0):
    rng = make_rng(seed)
    out = []
    for i in range(n):
        start = float(rng.uniform(0.0, horizon))
        dur = float(rng.uniform(300.0, 4_000.0))
        out.append(
            Reservation(
                start=start,
                end=start + dur,
                nprocs=int(rng.integers(1, max(2, capacity // 4))),
                label=f"r{i}",
            )
        )
    return tuple(out)


def _scenario(capacity=32, n_res=6, seed=5):
    return ReservationScenario(
        name="shard-test",
        capacity=capacity,
        now=0.0,
        reservations=_reservations(n=n_res, seed=seed, capacity=4),
        hist_avg_available=capacity / 2,
    )


def _requests(n=8, spacing=900.0, n_shapes=3, n_tasks=5):
    graphs = [
        random_task_graph(DagGenParams(n=n_tasks), make_rng(100 + i))
        for i in range(n_shapes)
    ]
    return [
        StreamRequest(
            request_id=f"q{k}",
            arrival_offset=k * spacing,
            graph=graphs[k % n_shapes],
        )
        for k in range(n)
    ]


def _profile_equal(a, b, lo=0.0, hi=60_000.0):
    """Two availability profiles agree at every breakpoint of either."""
    cuts = sorted(
        {lo, hi}
        | {float(t) for t in a.times if lo < t < hi}
        | {float(t) for t in b.times if lo < t < hi}
    )
    return all(
        a.min_over(x, y) == b.min_over(x, y)
        for x, y in zip(cuts[:-1], cuts[1:])
    )


#: Downtime-dominated model: each fault requests ~the whole platform,
#: which the sharded path clips to one shard — a whole-shard outage.
DOWNTIME = FaultModel(
    downtimes_per_day=400.0,
    downtime_procs=(0.9, 1.0),
    downtime_duration=(4 * 3600.0, 8 * 3600.0),
)


class TestPartition:
    def test_capacities_split_near_even_and_sum(self):
        assert shard_capacities(32, 4) == (8, 8, 8, 8)
        assert shard_capacities(10, 4) == (3, 3, 2, 2)
        assert sum(shard_capacities(67, 8)) == 67

    def test_capacity_smaller_than_shards_rejected(self):
        with pytest.raises(CalendarError, match="non-empty"):
            shard_capacities(3, 4)

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_water_filling_conserves_availability(self, n_shards):
        res = _reservations(n=25)
        sharded = ShardedCalendar.partition(32, res, n_shards=n_shards)
        unsharded = ResourceCalendar(32, res)
        assert _profile_equal(sharded.availability(), unsharded.availability())
        assert sharded.capacity == 32
        assert len(sharded) >= len(res)

    def test_overflow_raises_and_mutates_nothing(self):
        sharded = ShardedCalendar.partition(8, (), n_shards=4)
        sharded.add(Reservation(start=0.0, end=100.0, nprocs=6, label="a"))
        before = sharded.reservations
        with pytest.raises(CalendarError, match="exceeds"):
            sharded.add(Reservation(start=50.0, end=150.0, nprocs=3, label="b"))
        assert sharded.reservations == before

    def test_split_reservation_removes_whole(self):
        sharded = ShardedCalendar.partition(8, (), n_shards=4)
        r = Reservation(start=0.0, end=100.0, nprocs=6, label="wide")
        sharded.add(r)
        assert sharded.shard_of(r) is None  # split across shards
        sharded.remove(r)
        assert len(sharded) == 0
        with pytest.raises(CalendarError, match="not booked"):
            sharded.remove(r)


class TestProbeReduce:
    def _batch(self, seed=9, n=6, m=12):
        rng = make_rng(seed)
        return [
            (
                float(rng.uniform(0.0, 20_000.0)),
                np.asarray(rng.uniform(100.0, 5_000.0, size=m)),
            )
            for _ in range(n)
        ]

    def test_k1_batch_is_bitwise_unsharded(self):
        res = _reservations()
        sharded = ShardedCalendar.partition(32, res, n_shards=1)
        unsharded = ResourceCalendar(32, res)
        batch = self._batch()
        for a, b in zip(
            sharded.earliest_starts_batch(batch),
            unsharded.earliest_starts_batch(batch),
        ):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_reduce_is_elementwise_min_over_shards(self, n_shards):
        sharded = ShardedCalendar.partition(
            32, _reservations(), n_shards=n_shards
        )
        batch = self._batch(m=32)
        answers = sharded.earliest_starts_batch(batch)
        for (e, d), got in zip(batch, answers):
            legs = []
            for s in sharded.shards:
                cap = s.capacity
                starts = np.full(len(d), np.inf)
                starts[:cap] = s.earliest_starts_multi(e, d[:cap])
                legs.append(starts)
            assert np.array_equal(got, np.minimum.reduce(legs))

    def test_probe_cache_serves_identical_answers_after_commit(self):
        sharded = ShardedCalendar.partition(32, _reservations(), n_shards=4)
        batch = self._batch(m=8)
        first = sharded.earliest_starts_batch(batch)
        # Commit into one shard; cached legs for the other shards stay
        # valid, the touched shard's leg re-probes.
        t = float(first[0][0])
        sharded.reserve_known_feasible(t, 500.0, 1, label="x")
        cached = sharded.earliest_starts_batch(batch)
        cold = ShardedCalendar([s.copy() for s in sharded.shards])
        fresh = cold.earliest_starts_batch(batch)
        for a, b in zip(cached, fresh):
            assert np.array_equal(a, b)

    def test_probe_cache_hits_are_counted(self):
        sharded = ShardedCalendar.partition(32, _reservations(), n_shards=4)
        batch = self._batch(m=8)
        sharded.earliest_starts_batch(batch)
        obs_core.enable()
        try:
            with obs.collecting() as col:
                sharded.earliest_starts_batch(batch)
        finally:
            obs_core.disable()
        assert col.counters["cache.shard.probe.hit"] == 4 * len(batch)
        assert col.counters["cache.shard.probe.miss"] == 0

    def test_scalar_earliest_start_matches_min_over_shards(self):
        sharded = ShardedCalendar.partition(32, _reservations(), n_shards=4)
        expect = min(
            s.earliest_start(1_000.0, 800.0, 2) for s in sharded.shards
        )
        assert sharded.earliest_start(1_000.0, 800.0, 2) == expect

    def test_oversized_probe_rejected_platformwide(self):
        sharded = ShardedCalendar.partition(8, (), n_shards=4)
        with pytest.raises(CalendarError, match="capacity"):
            sharded.earliest_starts_batch([(0.0, np.ones(9) * 100.0)])


class TestTwoPhaseCommit:
    def test_commit_swaps_touched_legs_only(self):
        base = ShardedCalendar.partition(32, (), n_shards=4)
        staged = base.copy()
        staged.reserve_in(2, 0.0, 100.0, 3, label="staged")
        # Concurrent progress on an *untouched* shard must survive.
        base.reserve_in(0, 0.0, 100.0, 2, label="concurrent")
        base.commit(staged)
        labels = sorted(r.label for r in base.reservations)
        assert labels == ["concurrent", "staged"]

    def test_stale_touched_shard_aborts_with_names(self):
        base = ShardedCalendar.partition(32, (), n_shards=4)
        staged = base.copy()
        staged.reserve_in(1, 0.0, 100.0, 2, label="staged")
        base.reserve_in(1, 0.0, 100.0, 2, label="conflict")
        with pytest.raises(ShardCommitError) as exc:
            base.commit(staged)
        assert exc.value.stale_shards == (1,)
        # The abort left the base untouched by the staged leg.
        assert [r.label for r in base.reservations] == ["conflict"]

    def test_foreign_staged_copy_rejected(self):
        base = ShardedCalendar.partition(32, (), n_shards=4)
        other = ShardedCalendar.partition(32, (), n_shards=4)
        with pytest.raises(CalendarError, match="not copied"):
            base.commit(other.copy())

    @settings(max_examples=25, deadline=None)
    @given(
        n_shards=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(0, 2**16),
        n_ops=st.integers(1, 6),
    )
    def test_abort_retry_is_deterministic(self, n_shards, seed, n_ops):
        """Random conflicting interleavings: a staged copy either
        commits or aborts with ShardCommitError, a fresh retry always
        lands, and the whole dance replays bitwise."""

        def run():
            rng = make_rng(seed)
            base = ShardedCalendar.partition(16, (), n_shards=n_shards)
            aborted = 0
            for i in range(n_ops):
                staged = base.copy()
                t = float(rng.uniform(0.0, 10_000.0))
                staged.reserve_known_feasible(t, 500.0, 1, label=f"s{i}")
                if rng.uniform() < 0.5:
                    # Concurrent write racing the staged commit.
                    base.reserve_known_feasible(
                        float(rng.uniform(0.0, 10_000.0)),
                        500.0,
                        1,
                        label=f"c{i}",
                    )
                try:
                    base.commit(staged)
                except ShardCommitError:
                    aborted += 1
                    retry = base.copy()
                    retry.reserve_known_feasible(t, 500.0, 1, label=f"s{i}")
                    base.commit(retry)  # nothing raced: must land
            booked = tuple(
                sorted(
                    (r.start, r.end, r.nprocs, r.label)
                    for r in base.reservations
                )
            )
            return booked, base.generations, aborted

        first, second = run(), run()
        assert first == second
        booked, _, aborted = first
        assert len(booked) >= n_ops  # every staged op eventually landed
        if n_shards == 1:
            # One shard: every concurrent write conflicts by definition.
            assert aborted == sum(1 for s, e, n, lbl in booked
                                  if lbl.startswith("c"))


class TestK1Reduction:
    def test_stream_digest_matches_unsharded(self):
        plain = StreamScheduler(_scenario()).run(_requests())
        k1 = StreamScheduler(_scenario(), shards=1).run(_requests())
        assert k1.digest() == plain.digest()

    def test_faulted_service_digest_matches_unsharded(self):
        model = FaultModel.from_rate(150.0)
        plain = ReservationService(
            _scenario(), fault_model=model, seed=3
        ).run(_requests())
        k1 = ReservationService(
            _scenario(), fault_model=model, seed=3, shards=1
        ).run(_requests())
        assert k1.digest() == plain.digest()
        assert plain.revocations > 0  # the faults actually bit


class TestShardedService:
    def test_whole_shard_downtime_forces_cross_shard_repair(self):
        obs_core.enable()
        try:
            with obs.collecting() as col:
                svc = ReservationService(
                    _scenario(), fault_model=DOWNTIME, seed=3, shards=4
                )
                report = svc.run(_requests())
        finally:
            obs_core.disable()
        assert report.revocations > 0
        assert report.rebooked >= report.revocations
        # Repairs migrated off the faulted shard through the facade
        # reduce — the rebalance counter saw them.
        assert col.counters["shard.rebalances"] > 0
        assert col.counters["shard.commits"] > 0

    def test_sharded_faulted_run_is_deterministic(self):
        def run():
            svc = ReservationService(
                _scenario(), fault_model=DOWNTIME, seed=3, shards=4
            )
            return svc.run(_requests()).digest()

        assert run() == run()

    def test_all_requests_complete_despite_outages(self):
        report = ReservationService(
            _scenario(), fault_model=DOWNTIME, seed=3, shards=4
        ).run(_requests())
        assert report.n_admitted == len(_requests())


class TestProbePool:
    def test_pooled_stream_digest_matches_serial(self):
        serial = StreamScheduler(_scenario(), shards=4).run(_requests())
        pooled_engine = StreamScheduler(
            _scenario(), shards=4, shard_workers=2
        )
        try:
            pooled = pooled_engine.run(_requests())
        finally:
            pooled_engine.close()
        assert pooled.digest() == serial.digest()


class TestShardFaultRule:
    """An arrival/downtime fault revokes only bookings hosted by shard
    ``idx % K`` of its trace index, latest ``(start, request, task)``
    first."""

    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize(
        "model", [FaultModel.from_rate(150.0), DOWNTIME], ids=["rate", "down"]
    )
    def test_victims_come_from_the_faulted_shard_latest_first(
        self, monkeypatch, n_shards, model
    ):
        svc = ReservationService(
            _scenario(), fault_model=model, seed=3, shards=n_shards
        )
        current = {}
        picks = []
        removed = []
        apply_fault = ReservationService._apply_fault
        pick_victim = ReservationService._pick_victim
        remove_from_shard = ShardedCalendar.remove_from_shard

        def spy_apply(self, fault, idx):
            current["fault"], current["idx"] = fault, idx
            return apply_fault(self, fault, idx)

        def spy_pick(self, t, window, *rest):
            k = current["idx"] % n_shards
            hosted = list(self.calendar.shards[k].reservations)
            eligible = [
                (res.start, rid, task)
                for rid in self._order
                for task, res in self._committed[rid].reservations.items()
                if res.start > t
                and res.start < window.end
                and res.end > window.start
                and res in hosted
            ]
            victim = pick_victim(self, t, window, *rest)
            expected = max(eligible, default=None)
            assert victim == (None if expected is None else expected[1:])
            picks.append(expected)
            return victim

        def spy_remove(self, shard, reservation):
            assert shard == current["idx"] % n_shards
            assert reservation in self.shards[shard].reservations
            others = [
                s.reservations for j, s in enumerate(self.shards) if j != shard
            ]
            remove_from_shard(self, shard, reservation)
            assert others == [
                s.reservations for j, s in enumerate(self.shards) if j != shard
            ]
            removed.append(reservation)

        monkeypatch.setattr(ReservationService, "_apply_fault", spy_apply)
        monkeypatch.setattr(ReservationService, "_pick_victim", spy_pick)
        monkeypatch.setattr(ShardedCalendar, "remove_from_shard", spy_remove)
        report = svc.run(_requests())
        assert report.revocations > 0
        assert len(removed) == len(picks) == report.revocations


class TestShardedResume:
    """A killed sharded run resumed over its journal reproduces the
    uninterrupted run, even when a fault in an admission's commit window
    freed capacity on a lower shard than the one hosting it."""

    @pytest.mark.parametrize("n_shards", [1, 4])
    @pytest.mark.parametrize(
        "model", [FaultModel.from_rate(150.0), DOWNTIME], ids=["rate", "down"]
    )
    def test_kill_and_resume_matches_uninterrupted(
        self, tmp_path, n_shards, model
    ):
        journal = str(tmp_path / "journal.jsonl")

        def service(**kw):
            return ReservationService(
                _scenario(), fault_model=model, seed=3, shards=n_shards, **kw
            )

        service(journal_path=journal).run(_requests(), stop_after=5)
        resumed = service(journal_path=journal).run(_requests())
        reference = service().run(_requests())
        assert resumed.resumed == 5
        assert resumed.digest() == reference.digest()
