"""Sharded resource calendar: K partitions behind one facade.

The single process-local :class:`~repro.calendar.ResourceCalendar` is
the streamed engine's throughput ceiling: every probe memo, every
availability splice, and every :class:`AvailabilityIndex` rebuild
serializes through one compiled profile, so one commit invalidates the
caches for the *entire* platform.  :class:`ShardedCalendar` partitions
the platform into ``K`` shards — each an independent strict
``ResourceCalendar`` with its own profile, index, query memos, and
generation counter — and recovers the calendar API on top:

* **Probes fan out, reduced deterministically.**
  :meth:`earliest_starts_batch` issues one batched query per shard
  (durations truncated to the shard's capacity, missing processor
  counts padded with ``+inf``) and reduces elementwise by
  ``(earliest_start, shard_id)``: the minimum start wins, ties go to
  the lowest shard id.  The reduction is a pure function of the shard
  answers, so serial and process-pool fan-out are bitwise identical.

* **Commits route to one shard.**  A placement the probe reduce
  reported feasible is hosted *wholly* by one shard;
  :meth:`reserve_known_feasible` commits into the first (lowest-id)
  shard whose availability covers the window.  Because availability
  only decreases between a probe and its commit (any overlapping
  commit re-probes via the engine's envelope invalidation), the first
  feasible shard at commit time is exactly the shard that produced the
  winning probe answer.

* **Two-phase cross-shard commits.**  :meth:`copy` captures the
  per-shard generation vector as a CAS token and records every shard
  the copy subsequently writes to.  :meth:`validate_commit` compares
  only the *touched* legs against the live generations and raises
  :class:`~repro.errors.ShardCommitError` naming the stale shards;
  :meth:`commit` swaps only the touched shard legs into the base, so
  concurrent fault-driven progress on untouched shards is preserved
  and a conflict aborts nothing but its own legs.  The retry/backoff
  machinery in :mod:`repro.service` (which already handles
  ``CommitConflictError``) drives re-planning.

* **K = 1 reduces bitwise to the unsharded engine.**  With one shard
  every facade method short-circuits to the underlying calendar — same
  arrays, same memo keys, same generation arithmetic — so the online
  engines (:mod:`repro.experiments.stream`, :mod:`repro.service`) hold
  a one-shard facade by default and have no separate unsharded path.

Competing (external) reservations are spread across shards by
availability-aware water-filling (:meth:`add`): whole-interval pieces
first from a rotating start shard, then time-sliced remainders, with a
strict :class:`~repro.errors.CalendarError` when the platform-wide
capacity is genuinely exceeded — the same raise a strict
``ResourceCalendar`` gives.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt
from typing import Any, Collection, Iterable, Sequence, cast

from repro.calendar import Reservation, ResourceCalendar, StepFunction
from repro.errors import CalendarError, ShardCommitError
from repro.obs import core as _obs
from repro.obs import timeline as _tl

__all__ = ["ShardedCalendar", "shard_capacities"]

#: Key identifying a reservation across the facade's piece bookkeeping.
_ResKey = tuple[float, float, int, str]

#: Facade probe-cache entries before the whole cache is dropped
#: (mirrors the per-calendar multi-query memo cap).
_PROBE_CACHE_CAP = 4096


def _res_key(r: Reservation) -> _ResKey:
    return (r.start, r.end, r.nprocs, r.label)


def shard_capacities(capacity: int, n_shards: int) -> tuple[int, ...]:
    """Split ``capacity`` processors over ``n_shards`` near-evenly.

    The first ``capacity % n_shards`` shards get one extra processor,
    so the split is deterministic and ``sum == capacity``.
    """
    if n_shards < 1:
        raise CalendarError(f"n_shards must be >= 1, got {n_shards}")
    if capacity < n_shards:
        raise CalendarError(
            f"cannot split capacity {capacity} into {n_shards} non-empty "
            "shards"
        )
    base, extra = divmod(capacity, n_shards)
    return tuple(base + (1 if k < extra else 0) for k in range(n_shards))


class ShardedCalendar:
    """``K`` independent shard calendars behind the calendar API.

    Args:
        shards: The shard calendars, already populated.  Shard ids are
            positions in this sequence.  Heterogeneous capacities are
            allowed (the multi-cluster seed builds one shard per
            cluster); :meth:`partition` builds a near-even split of one
            platform.
    """

    def __init__(self, shards: Sequence[ResourceCalendar]) -> None:
        if not shards:
            raise CalendarError("a ShardedCalendar needs at least one shard")
        self._shards: list[ResourceCalendar] = list(shards)
        #: Split external reservations: facade-key -> [(shard, piece)].
        self._pieces: dict[_ResKey, list[tuple[int, Reservation]]] = {}
        #: Rotating start shard for water-filling, advanced per add.
        self._fill_rot = 0
        # Two-phase commit state (populated on copies by :meth:`copy`).
        self._parent: "ShardedCalendar | None" = None
        self._tokens: tuple[int, ...] = ()
        self._touched: set[int] = set()
        #: Piece-map delta accumulated on a staged copy, replayed onto
        #: the base by :meth:`commit` (leg-wise, like the shard swaps).
        self._pieces_added: dict[_ResKey, list[tuple[int, Reservation]]] = {}
        self._pieces_removed: set[_ResKey] = set()
        # Optional process-pool probe fan-out (repro.shard.pool); the
        # pool mirrors every mutation into its replica log.
        self._pool: Any | None = None
        #: Shard id of the most recent routed commit (-1 before any);
        #: the service reads it to attribute a rebooking to a shard.
        self._last_commit_shard = -1
        #: Hosting shard of every placement routed on a staged copy
        #: (several shards only; see :meth:`hosts_of`).
        self._routes: dict[Reservation, int] = {}
        # Combined-profile cache for availability(), keyed by the
        # generation vector it was built at.
        self._combined: StepFunction | None = None
        self._combined_gens: tuple[int, ...] = ()
        #: Facade probe cache: request key -> (per-shard answer legs,
        #: generation vector the legs were computed at).  Staleness is
        #: self-detecting — a leg whose tagged generation differs from
        #: the shard's live generation is re-probed, the rest are served
        #: from the cache — so a commit to one shard leaves the other
        #: K - 1 legs of every retained probe valid.
        self._probe_cache: dict[
            tuple[float, bytes],
            tuple[
                tuple[npt.NDArray[np.float64], ...],
                tuple[int, ...],
            ],
        ] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def partition(
        cls,
        capacity: int,
        reservations: Iterable[Reservation] = (),
        *,
        n_shards: int,
        clamp: bool = False,
    ) -> "ShardedCalendar":
        """Partition one platform of ``capacity`` processors into
        ``n_shards`` shards and water-fill ``reservations`` onto them.

        With ``n_shards == 1`` the reservations go to the single shard
        verbatim (bulk-validated exactly like the unsharded
        constructor), so the facade reduces bitwise to
        ``ResourceCalendar(capacity, reservations)``.
        """
        res = tuple(reservations)
        if n_shards == 1:
            return cls([ResourceCalendar(capacity, res, clamp=clamp)])
        caps = shard_capacities(capacity, n_shards)
        sharded = cls(
            [ResourceCalendar(c, clamp=clamp) for c in caps]
        )
        for r in res:
            sharded.add(r)
        return sharded

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def shards(self) -> tuple[ResourceCalendar, ...]:
        """The shard calendars, by shard id."""
        return tuple(self._shards)

    @property
    def capacity(self) -> int:
        """Total processors across all shards."""
        return sum(s.capacity for s in self._shards)

    @property
    def generations(self) -> tuple[int, ...]:
        """Per-shard commit generations — the CAS vector."""
        return tuple(s.generation for s in self._shards)

    @property
    def generation(self) -> int:
        """Scalar generation: the sum of the shard generations.

        Strictly increases on every mutation anywhere on the platform,
        so one number still tells whether anything moved (the service's
        ``commit_conflict`` timeline events report it); the two-phase
        commit compares the full vector instead.
        """
        return sum(s.generation for s in self._shards)

    @property
    def last_commit_shard(self) -> int:
        """Shard that hosted the most recent routed commit (-1: none)."""
        return self._last_commit_shard

    def hosts_of(self, booked: Collection[Reservation]) -> tuple[int, ...]:
        """On a staged copy: the shard each of ``booked`` — reservations
        committed by :meth:`reserve_known_feasible` — was routed to.

        One shard hosts everything on a one-shard calendar, so routes
        are only recorded (and looked up) with several shards.
        """
        if len(self._shards) == 1:
            return (0,) * len(booked)
        return tuple(self._routes[r] for r in booked)

    @property
    def reservations(self) -> tuple[Reservation, ...]:
        """All reservations, concatenated in shard order.

        Split external reservations appear as their per-shard pieces;
        with one shard this is the shard's list verbatim.
        """
        out: list[Reservation] = []
        for s in self._shards:
            out.extend(s.reservations)
        return tuple(out)

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def shard_of(self, reservation: Reservation) -> int | None:
        """The shard hosting ``reservation`` whole, or ``None``.

        Split external reservations live on several shards and report
        ``None``; scheduler placements are always whole-shard.
        """
        for k, s in enumerate(self._shards):
            if reservation in s.reservations:
                return k
        return None

    def availability(self) -> StepFunction:
        """The platform-wide availability profile (sum over shards).

        Cold-path convenience: per-shard profiles stay compiled
        incrementally, but the sum is rebuilt whenever any shard moved.
        Hot paths query shards through the facade methods instead.
        """
        if len(self._shards) == 1:
            return self._shards[0].availability()
        gens = self.generations
        if self._combined is None or self._combined_gens != gens:
            combined = self._shards[0].availability()
            for s in self._shards[1:]:
                combined = combined + s.availability()
            self._combined = combined
            self._combined_gens = gens
        return self._combined

    def min_available(self, t0: float, t1: float) -> int:
        """Minimum *total* free processors over ``[t0, t1)``.

        Note this is an upper bound on what one placement can use: a
        single reservation must fit wholly inside one shard (see
        :meth:`fits`).
        """
        return int(self.availability().min_over(t0, t1))

    def fits(self, start: float, duration: float, nprocs: int) -> bool:
        """True when some *single* shard has ``nprocs`` free on
        ``[start, start + duration)`` — the sharded hosting rule."""
        end = start + duration
        for s in self._shards:
            if nprocs <= s.capacity and (
                s.availability().min_over(start, end) >= nprocs
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # Placement probes (fan-out / reduce)
    # ------------------------------------------------------------------

    def earliest_starts_batch(
        self,
        requests: Sequence[
            tuple[float, npt.NDArray[np.float64] | Sequence[float]]
        ],
    ) -> list[npt.NDArray[np.float64]]:
        """Batched earliest-start probes, fanned out over all shards.

        Per request ``(earliest, durations)`` the answer is, for each
        processor count ``m = 1..len(durations)``, the minimum over
        shards of the shard-local earliest start (``+inf`` where ``m``
        exceeds every shard's capacity) — the deterministic
        ``(earliest_start, shard_id)`` reduce.  With one shard this is
        the shard's own batch verbatim (same memo keys, same arrays).

        Answer legs are cached per request under the generation vector
        they were computed at, so a re-probe after a commit to shard
        ``j`` re-issues only shard ``j``'s leg — the other ``K - 1``
        legs are provably current (an unchanged generation means an
        unchanged shard) and come from the cache.  The reduce is a pure
        function of the legs either way, so caching cannot change any
        answer.
        """
        if len(self._shards) == 1:
            return self._shards[0].earliest_starts_batch(requests)
        reqs = self._checked_requests(requests)
        if not reqs:
            return []
        n = len(self._shards)
        gens = self.generations
        if len(self._probe_cache) >= _PROBE_CACHE_CAP:
            if _obs.ENABLED:
                _obs.incr("cache.shard.probe.evict")
            self._probe_cache = {}
        keys = [(e, d.tobytes()) for e, d in reqs]
        legs: list[list[npt.NDArray[np.float64] | None]] = []
        need: list[list[int]] = [[] for _ in range(n)]
        for qi, key in enumerate(keys):
            ent = self._probe_cache.get(key)
            if ent is None:
                legs.append([None] * n)
                for k in range(n):
                    need[k].append(qi)
                continue
            cached, tags = ent
            row: list[npt.NDArray[np.float64] | None] = list(cached)
            for k in range(n):
                if tags[k] != gens[k]:
                    row[k] = None
                    need[k].append(qi)
            legs.append(row)
        probed = sum(len(qis) for qis in need)
        if probed and self._pool is not None:
            # The pool replays its replica log once per probe round, so
            # partial fan-out saves nothing — refresh every leg.
            probed = n * len(reqs)
            per_shard = self._pool.probe(reqs)
            for k in range(n):
                for qi in range(len(reqs)):
                    legs[qi][k] = per_shard[k][qi]
        elif probed:
            for k, qis in enumerate(need):
                if not qis:
                    continue
                answers = self._probe_shard(k, [reqs[qi] for qi in qis])
                for qi, starts in zip(qis, answers):
                    legs[qi][k] = starts
        filled = cast("list[list[npt.NDArray[np.float64]]]", legs)
        for qi, key in enumerate(keys):
            self._probe_cache[key] = (tuple(filled[qi]), gens)
        if _obs.ENABLED:
            _obs.incr("shard.probes", probed)
            _obs.incr("cache.shard.probe.hit", n * len(reqs) - probed)
            _obs.incr("cache.shard.probe.miss", probed)
        return [np.minimum.reduce(row) for row in filled]

    def _checked_requests(
        self,
        requests: Sequence[
            tuple[float, npt.NDArray[np.float64] | Sequence[float]]
        ],
    ) -> list[tuple[float, npt.NDArray[np.float64]]]:
        """Validate a probe batch against the *platform*, like the
        unsharded calendar would (shards re-check their truncations)."""
        total = self.capacity
        out: list[tuple[float, npt.NDArray[np.float64]]] = []
        for earliest, durations in requests:
            d = np.asarray(durations, dtype=float)
            if d.ndim != 1 or d.size == 0:
                raise CalendarError("durations must be a non-empty 1-D array")
            if d.size > total:
                raise CalendarError(
                    f"durations imply up to {d.size} processors but "
                    f"capacity is {total}"
                )
            if not np.all(d > 0):
                raise CalendarError("all durations must be positive")
            out.append((float(earliest), d))
        return out

    def _probe_shard(
        self,
        k: int,
        reqs: list[tuple[float, npt.NDArray[np.float64]]],
    ) -> list[npt.NDArray[np.float64]]:
        """One shard's leg of a fanned-out batch, under its shard scope.

        The leg itself (:func:`repro.shard.pool.probe_leg`: truncate
        each durations vector to the shard capacity, pad the answer
        back with ``+inf``) is shared with the pool workers, so serial
        and pooled answers come from the same code.
        """
        from repro.shard.pool import probe_leg

        if _tl.ENABLED:
            _tl.push_shard(k)
        try:
            return probe_leg(self._shards[k], reqs)
        finally:
            if _tl.ENABLED:
                _tl.pop_shard()

    def earliest_starts_multi(
        self,
        earliest: float,
        durations: npt.NDArray[np.float64] | Sequence[float],
        *,
        m_offset: int = 0,
    ) -> npt.NDArray[np.float64]:
        """Single-request form of :meth:`earliest_starts_batch`.

        ``m_offset`` is only supported unsharded (the sharded reduce is
        defined for counts anchored at 1).
        """
        if len(self._shards) == 1:
            return self._shards[0].earliest_starts_multi(
                earliest, durations, m_offset=m_offset
            )
        if m_offset != 0:
            raise CalendarError(
                "m_offset is not supported on a sharded calendar"
            )
        return self.earliest_starts_batch([(earliest, durations)])[0]

    def probe_shards(
        self,
        requests: Sequence[
            tuple[float, npt.NDArray[np.float64] | Sequence[float]]
        ],
    ) -> list[npt.NDArray[np.float64]]:
        """Heterogeneous fan-out: one ``(earliest, durations)`` request
        *per shard*, answered by that shard alone (no reduce).

        The multi-cluster seed uses this: each cluster-shard probes its
        own cluster-specific execution-time vector, and the caller
        applies its own completion-time reduce across the answers.
        """
        if len(requests) != len(self._shards):
            raise CalendarError(
                f"probe_shards needs one request per shard "
                f"({len(self._shards)}), got {len(requests)}"
            )
        out: list[npt.NDArray[np.float64]] = []
        for k, (earliest, durations) in enumerate(requests):
            if _tl.ENABLED:
                _tl.push_shard(k)
            try:
                out.append(
                    self._shards[k].earliest_starts_multi(
                        float(earliest), durations
                    )
                )
            finally:
                if _tl.ENABLED:
                    _tl.pop_shard()
        if _obs.ENABLED:
            _obs.incr("shard.probes", len(self._shards))
        return out

    def earliest_start(
        self, earliest: float, duration: float, nprocs: int
    ) -> float:
        """Earliest start for a single-shard-hostable placement: the
        ``(earliest_start, shard_id)`` reduce over scalar probes."""
        if len(self._shards) == 1:
            return self._shards[0].earliest_start(earliest, duration, nprocs)
        best = np.inf
        eligible = False
        for s in self._shards:
            if nprocs > s.capacity:
                continue
            eligible = True
            t = s.earliest_start(earliest, duration, nprocs)
            if t < best:
                best = t
        if not eligible:
            raise CalendarError(
                f"no shard can host {nprocs} processors (largest shard "
                f"has {max(s.capacity for s in self._shards)})"
            )
        if _obs.ENABLED:
            _obs.incr("shard.probes", len(self._shards))
        return float(best)

    # ------------------------------------------------------------------
    # Commits
    # ------------------------------------------------------------------

    def reserve_known_feasible(
        self, start: float, duration: float, nprocs: int, label: str = ""
    ) -> Reservation:
        """Commit a probed placement into its hosting shard.

        Routes to the first (lowest-id) shard whose availability covers
        the window — exactly the shard the probe reduce's
        ``(earliest_start, shard_id)`` tie-break selected, since
        availability only decreases between a probe and its commit.
        """
        routed = len(self._shards) > 1
        if routed:
            k = self._first_fit(start, duration, nprocs)
            if _obs.ENABLED:
                _obs.incr("shard.commits")
        else:
            k = 0
        self._touched.add(k)
        self._last_commit_shard = k
        if self._pool is not None:
            self._pool.record(("rkf", k, start, duration, nprocs, label))
        r = self._shards[k].reserve_known_feasible(
            start, duration, nprocs, label
        )
        if routed and self._parent is not None:
            self._routes[r] = k
        return r

    def _first_fit(self, start: float, duration: float, nprocs: int) -> int:
        """The lowest-id shard whose availability covers the window."""
        end = start + duration
        for k, s in enumerate(self._shards):
            if nprocs <= s.capacity and (
                s.availability().min_over(start, end) >= nprocs
            ):
                return k
        raise CalendarError(
            f"placement [{start}, {end}) x{nprocs} fits no shard — it was "
            "not derived from this calendar's current state"
        )

    def reserve_in(
        self,
        shard: int,
        start: float,
        duration: float,
        nprocs: int,
        label: str = "",
    ) -> Reservation:
        """Strict ``reserve`` routed to an explicit shard (multi-cluster
        commits, where the caller's reduce already picked the shard, and
        the service's journal replay, which restores each placement to
        the shard that hosted it)."""
        r = self._shards[shard].reserve(start, duration, nprocs, label=label)
        self._touched.add(shard)
        self._last_commit_shard = shard
        if self._pool is not None:
            self._pool.record(("add", shard, _res_key(r)))
        if _obs.ENABLED:
            _obs.incr("shard.commits")
        return r

    def add_to_shard(self, shard: int, reservation: Reservation) -> None:
        """Strictly add ``reservation`` to one explicit shard.

        The service's arrival/downtime faults use this to take capacity
        out of a specific shard; the strict ``CalendarError`` on
        overflow drives its revocation loop.
        """
        self._shards[shard].add(reservation)
        self._touched.add(shard)
        self._pieces.pop(_res_key(reservation), None)
        if self._pool is not None:
            self._pool.record(("add", shard, _res_key(reservation)))

    def remove_from_shard(self, shard: int, reservation: Reservation) -> None:
        """Remove a value-equal reservation from one explicit shard.

        The service's revocation loop frees capacity on the contested
        shard specifically; the shard raises
        :class:`~repro.errors.CalendarError` when nothing matches.
        """
        self._shards[shard].remove(reservation)
        self._touched.add(shard)
        if self._pool is not None:
            self._pool.record(("rm", shard, _res_key(reservation)))

    def add(self, reservation: Reservation) -> None:
        """Water-fill an external reservation across the shards.

        Whole-interval pieces are taken first, starting from a rotating
        shard so load spreads; any remainder is time-sliced at the union
        of shard availability breakpoints.  Raises
        :class:`~repro.errors.CalendarError` iff total free capacity is
        exceeded at some instant — the same condition under which the
        strict unsharded ``add`` raises.  All-or-nothing: on failure no
        shard is mutated.
        """
        if len(self._shards) == 1:
            self._shards[0].add(reservation)
            self._touched.add(0)
            if self._pool is not None:
                self._pool.record(("add", 0, _res_key(reservation)))
            return
        rot = self._fill_rot
        pieces = self._fill_pieces(reservation, rot)
        self._commit_pieces(reservation, pieces)
        self._fill_rot = (rot + 1) % len(self._shards)

    def _fill_pieces(
        self, r: Reservation, rot: int
    ) -> list[tuple[int, Reservation]]:
        """Plan the per-shard pieces for one external reservation."""
        n = len(self._shards)
        need = r.nprocs
        pieces: list[tuple[int, Reservation]] = []
        taken = [0] * n
        # Phase A: whole-interval pieces, rotating start shard.
        for j in range(n):
            k = (rot + j) % n
            free = int(self._shards[k].availability().min_over(r.start, r.end))
            if free <= 0:
                continue
            take = min(need, free)
            pieces.append(
                (
                    k,
                    Reservation(
                        start=r.start, end=r.end, nprocs=take, label=r.label
                    ),
                )
            )
            taken[k] = take
            need -= take
            if need == 0:
                return pieces
        # Phase B: the interval minimums under-count staggered slack —
        # time-slice the remainder at the union of shard breakpoints.
        cuts = {r.start, r.end}
        for s in self._shards:
            times = s.availability().times
            inside = times[(times > r.start) & (times < r.end)]
            cuts.update(float(t) for t in inside)
        bounds = sorted(cuts)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            slice_need = need
            for j in range(n):
                k = (rot + j) % n
                free = (
                    int(self._shards[k].availability().min_over(lo, hi))
                    - taken[k]
                )
                if free <= 0:
                    continue
                take = min(slice_need, free)
                pieces.append(
                    (
                        k,
                        Reservation(
                            start=lo, end=hi, nprocs=take, label=r.label
                        ),
                    )
                )
                slice_need -= take
                if slice_need == 0:
                    break
            if slice_need > 0:
                raise CalendarError(
                    f"reservation [{r.start}, {r.end}) x{r.nprocs} exceeds "
                    f"total free capacity over [{lo}, {hi}) by {slice_need} "
                    "processors"
                )
        return pieces

    def _commit_pieces(
        self, r: Reservation, pieces: list[tuple[int, Reservation]]
    ) -> None:
        """Apply planned pieces all-or-nothing and record the split."""
        committed: list[tuple[int, Reservation]] = []
        try:
            for k, piece in pieces:
                self._shards[k].add(piece)
                committed.append((k, piece))
        except CalendarError:
            for k, piece in committed:
                self._shards[k].remove(piece)
            raise
        for k, _ in pieces:
            self._touched.add(k)
        if self._pool is not None:
            for k, piece in pieces:
                self._pool.record(("add", k, _res_key(piece)))
        if len(pieces) != 1 or pieces[0][1] != r:
            key = _res_key(r)
            self._pieces[key] = pieces
            if self._parent is not None:
                self._pieces_added[key] = pieces
                self._pieces_removed.discard(key)

    def remove(self, reservation: Reservation) -> None:
        """Remove a reservation (or its water-filled pieces).

        Whole reservations are removed from the lowest shard holding a
        value-equal entry; split external reservations are resolved
        through the piece map.  Raises
        :class:`~repro.errors.CalendarError` when nothing matches.
        """
        key = _res_key(reservation)
        pieces = self._pieces.get(key)
        if pieces is not None:
            for k, piece in pieces:
                self._shards[k].remove(piece)
                self._touched.add(k)
                if self._pool is not None:
                    self._pool.record(("rm", k, _res_key(piece)))
            del self._pieces[key]
            if self._parent is not None:
                self._pieces_removed.add(key)
                self._pieces_added.pop(key, None)
            return
        for k, s in enumerate(self._shards):
            if reservation in s.reservations:
                s.remove(reservation)
                self._touched.add(k)
                if self._pool is not None:
                    self._pool.record(("rm", k, key))
                return
        raise CalendarError(
            f"reservation {reservation!r} is not booked on any shard"
        )

    def reserve(
        self, start: float, duration: float, nprocs: int, label: str = ""
    ) -> Reservation:
        """Create, water-fill, and return an external reservation."""
        r = Reservation(
            start=start, end=start + duration, nprocs=nprocs, label=label
        )
        self.add(r)
        return r

    # ------------------------------------------------------------------
    # Two-phase cross-shard commit
    # ------------------------------------------------------------------

    def copy(self) -> "ShardedCalendar":
        """A staged copy for tentative scheduling.

        The copy records the per-shard generation vector as its CAS
        token and tracks every shard it writes to; hand it back to the
        base via :meth:`validate_commit` / :meth:`commit`.  Copies do
        not inherit a probe pool (staging is serial).
        """
        dup = ShardedCalendar([s.copy() for s in self._shards])
        dup._pieces = dict(self._pieces)
        dup._fill_rot = self._fill_rot
        dup._parent = self
        dup._tokens = self.generations
        # Probe-cache entries are immutable and generation-tagged, so
        # the copy can share them: a tag only matches while the shard
        # state is exactly the one the legs were computed against.
        dup._probe_cache = dict(self._probe_cache)
        return dup

    def validate_commit(self, staged: "ShardedCalendar") -> None:
        """Phase 1: raise unless every *touched* shard leg is current.

        Only the shards ``staged`` wrote to are compared against the
        live generation vector; a conflict aborts exactly those legs
        (:class:`~repro.errors.ShardCommitError` names them) and leaves
        everything untouched.
        """
        if staged._parent is not self:
            raise CalendarError(
                "staged calendar was not copied from this calendar"
            )
        stale = tuple(
            k
            for k in sorted(staged._touched)
            if self._shards[k].generation != staged._tokens[k]
        )
        if stale:
            if _obs.ENABLED:
                _obs.incr("shard.aborts", len(stale))
            raise ShardCommitError(
                f"shard generation(s) moved since staging: "
                f"{', '.join(str(k) for k in stale)}",
                stale_shards=stale,
            )

    def commit(self, staged: "ShardedCalendar") -> None:
        """Phase 2: validate, then swap the touched shard legs in.

        Untouched shards keep the base's (possibly newer, fault-driven)
        state — the staged copy's read snapshots of them are discarded,
        which is exactly the write-set conflict rule
        :meth:`validate_commit` enforces.
        """
        self.validate_commit(staged)
        for k in sorted(staged._touched):
            self._shards[k] = staged._shards[k]
        for key in staged._pieces_removed:
            self._pieces.pop(key, None)
        self._pieces.update(staged._pieces_added)
        self._fill_rot = staged._fill_rot
        if _obs.ENABLED:
            _obs.incr("shard.commits", len(staged._touched))
        if self._pool is not None:
            # Replica logs cannot replay a leg swap op-by-op; reseed
            # them from the committed state (rare: windowed admission).
            self._pool.record_snapshot(self)

    # ------------------------------------------------------------------
    # Process-pool probe fan-out
    # ------------------------------------------------------------------

    def attach_pool(self, pool: Any | None) -> None:
        """Attach (or detach, with ``None``) a probe fan-out pool.

        The pool must implement ``probe(requests)``, ``record(op)``,
        and ``record_snapshot(calendar)`` —
        :class:`repro.shard.pool.ShardProbePool` does.  Results are
        bitwise identical with and without a pool at any worker count.
        """
        self._pool = pool

    def __repr__(self) -> str:
        caps = ",".join(str(s.capacity) for s in self._shards)
        return (
            f"ShardedCalendar(n_shards={len(self._shards)}, caps=[{caps}], "
            f"reservations={len(self)})"
        )
