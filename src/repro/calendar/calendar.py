"""The resource calendar: capacity, reservations, and placement queries.

A :class:`ResourceCalendar` models one homogeneous cluster of ``capacity``
processors subject to a set of advance reservations.  It answers the three
questions every scheduler in this library asks:

* :meth:`earliest_start` — first instant at or after ``earliest`` where
  ``nprocs`` processors are simultaneously free for ``duration`` (forward
  RESSCHED scheduling);
* :meth:`latest_start` — last instant such that the window still finishes
  by ``latest_finish`` (backward RESSCHEDDL scheduling);
* :meth:`average_available` — time-weighted mean availability over an
  interval, used for the paper's "historical average number of available
  processors" P'.

The availability profile ``capacity − occupancy`` is compiled lazily into
a :class:`StepFunction` and then maintained **incrementally**: committing
a reservation splices two breakpoints into the compiled profile
(:meth:`StepFunction.with_interval_delta`, one O(segments) array fill)
instead of invalidating it and paying a full O(R log R) recompile on the
next query.  Placement queries scan the profile's ``times``/``values``
arrays near the query instant (or walk an :class:`AvailabilityIndex` on
dense profiles).

Schedulers committing placements that came out of this calendar's own
placement queries should use :meth:`reserve_known_feasible`, which skips
the strict capacity re-validation (the query already proved the window
free).  Externally supplied reservations go through :meth:`add`/:meth:`reserve`
and keep the full check.  Setting the environment variable
``REPRO_VALIDATE_COMMITS=1`` (or :data:`VALIDATE_COMMITS`) re-enables
full validation everywhere — the debug mode for chasing an infeasible
schedule back to the commit that caused it.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

import numpy as np

from repro.calendar.index import AvailabilityIndex
from repro.calendar.reservation import Reservation
from repro.calendar.timeline import StepFunction
from repro.errors import CalendarError
from repro.obs import core as _obs
from repro.obs import timeline as _tl
from repro.units import TIME_EPS

#: Default for new calendars: maintain the availability profile
#: incrementally on :meth:`ResourceCalendar.add` (the fast path).  The
#: benchmark harness flips this off to measure the seed's
#: invalidate-and-recompile behaviour.
INCREMENTAL_COMMITS: bool = True

#: Answer placement probes on dense profiles through the
#: :class:`AvailabilityIndex` segment trees (O(log S) per probe) instead
#: of the linear O(S) scans.  Bitwise-identical results either way; the
#: benchmark harness flips this off to measure the linear reference.
USE_INDEX: bool = True

#: Profiles with fewer breakpoints than this answer queries with the
#: linear kernels — the scalar free-run pass and the windowed scans —
#: instead of building and walking trees.  The value was measured for
#: the commit-per-task batch scheduler, where each commit invalidates
#: the index, so its O(S) rebuild has to pay for itself within one
#: commit generation; the measured crossover sits in the tens of
#: thousands of segments.  Tests and benchmarks drop it to 0 to force
#: the tree walks.
INDEX_MIN_SEGMENTS: int = 4096

#: Window (in profile segments) of the pure-Python placement scans
#: behind the linear paths of ``earliest_starts_multi``,
#: ``earliest_starts_batch`` and ``latest_starts_multi``.  Rows whose
#: answer is not confirmed within it escalate — forward rows to a
#: vectorized pass with 8x larger windows, backward rows to a loop
#: vectorized over rows that continues from the window edge — so the
#: constant only tunes constant factors: results are bitwise-independent
#: of it.
BATCH_WINDOW_SEGMENTS: int = 64

#: Entry cap on the per-calendar query memo; reaching it drops the whole
#: cache (calendars are short-lived, so simple beats clever here).
_MULTI_CACHE_CAP: int = 1024

#: Debug flag: when True, :meth:`reserve_known_feasible` behaves exactly
#: like :meth:`reserve` (full strict validation of every commit).
VALIDATE_COMMITS: bool = os.environ.get("REPRO_VALIDATE_COMMITS", "") not in (
    "",
    "0",
)


class ResourceCalendar:
    """Reservation book-keeping for one cluster.

    Args:
        capacity: Total processors ``p`` (>= 1).
        reservations: Initial (competing) reservations.
        clamp: When True, occupancy beyond capacity merely pins
            availability at zero instead of raising.  Calendars built from
            noisy workload data use this; scheduler-owned calendars keep
            the default strict behaviour so over-subscription bugs surface
            immediately.
        incremental: Maintain the compiled availability profile
            incrementally on :meth:`add` (O(segments) splice) instead of
            invalidating it.  ``None`` (default) follows the module-level
            :data:`INCREMENTAL_COMMITS` switch.
    """

    def __init__(
        self,
        capacity: int,
        reservations: Iterable[Reservation] = (),
        *,
        clamp: bool = False,
        incremental: bool | None = None,
    ):
        if capacity < 1:
            raise CalendarError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._clamp = bool(clamp)
        self._incremental = (
            INCREMENTAL_COMMITS if incremental is None else bool(incremental)
        )
        # Reservations live in the first ``_n_res`` entries of
        # ``_reservations``.  A copy shares the list: whichever calendar
        # holds the last entry appends in place, the other copies its own
        # prefix first (see _book), and removals always work on a
        # private prefix copy, so a staged copy costs O(1) instead of
        # O(reservations).
        self._reservations: list[Reservation] = []
        self._n_res = 0
        self._profile: StepFunction | None = None
        # Monotone commit generation: bumped on every profile mutation.
        # The index and the query memos below are only valid for the
        # generation they were built in; _invalidate_caches REBINDS the
        # dicts (rather than clearing) so copies sharing them keep their
        # still-valid entries.
        self._generation = 0
        self._index: AvailabilityIndex | None = None
        self._runs_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._multi_cache: dict[tuple, np.ndarray] = {}
        for r in reservations:
            if r.nprocs > self._capacity:
                raise CalendarError(
                    f"reservation needs {r.nprocs} processors but the "
                    f"platform has only {self._capacity}"
                )
            self._reservations.append(r)
        self._n_res = len(self._reservations)
        # Bulk validation: one profile compile checks capacity at every
        # instant (availability() raises on negative values in strict
        # mode), instead of a per-reservation scan.
        self.availability()

    # ------------------------------------------------------------------
    # Book-keeping
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total number of processors."""
        return self._capacity

    @property
    def reservations(self) -> tuple[Reservation, ...]:
        """All reservations, in insertion order."""
        return tuple(self._own())

    @property
    def generation(self) -> int:
        """Monotone commit generation, bumped on every profile mutation.

        Tentative-then-commit callers (the online service's optimistic-
        concurrency path) use this as a CAS token: capture it before
        planning against a :meth:`copy`, and adopt the copy only if the
        authoritative calendar's generation is unchanged.
        """
        return self._generation

    def __len__(self) -> int:
        return self._n_res

    def _own(self) -> list[Reservation]:
        """This calendar's reservations (the list itself when nothing
        was appended past them, else a prefix copy — read-only)."""
        if len(self._reservations) == self._n_res:
            return self._reservations
        return self._reservations[: self._n_res]

    def _book(
        self, reservation: Reservation, profile: StepFunction | None
    ) -> None:
        """Append ``reservation``, install ``profile`` as the compiled
        profile (``None``: recompile lazily) and start a new commit
        generation.  The list may be shared with copies: append in place
        only while holding its last entry, else copy our prefix first."""
        if len(self._reservations) != self._n_res:
            self._reservations = self._reservations[: self._n_res]
        self._reservations.append(reservation)
        self._n_res += 1
        self._profile = profile
        self._invalidate_caches()

    def remove(self, reservation: Reservation) -> None:
        """Withdraw a previously registered reservation.

        Removes the first reservation equal to ``reservation`` (the
        cancel / booking-revocation primitive of the online service) and
        starts a new commit generation; the availability profile is
        recompiled lazily on the next query.

        Raises:
            CalendarError: if no equal reservation is registered.
        """
        # The list may be shared with copies: remove from a private one.
        own = self._reservations[: self._n_res]
        try:
            own.remove(reservation)
        except ValueError:
            raise CalendarError(
                f"cannot remove unregistered reservation {reservation}"
            ) from None
        self._reservations = own
        self._n_res -= 1
        if _obs.ENABLED:
            _obs.incr("calendar.remove")
        self._profile = None
        self._invalidate_caches()

    def add(self, reservation: Reservation) -> None:
        """Register a reservation.

        When the availability profile is already compiled (and the
        calendar is in incremental mode) the reservation is spliced into
        it in O(segments); the strict capacity check then reads the
        minimum of the values the splice shifted instead of recompiling
        from scratch.

        Raises:
            CalendarError: if the reservation alone exceeds capacity, or —
                in strict mode — if total occupancy would exceed capacity
                at any instant.
        """
        if reservation.nprocs > self._capacity:
            raise CalendarError(
                f"reservation needs {reservation.nprocs} processors but the "
                f"platform has only {self._capacity}"
            )
        if self._incremental and self._profile is not None:
            if _obs.ENABLED:
                _obs.incr("calendar.add.splice")
            spliced, lo, hi = self._profile._splice(
                reservation.start, reservation.end, -float(reservation.nprocs)
            )
            try:
                # Only the shifted values can have gone negative.
                validated = self._validated(spliced, lo, hi)
            except CalendarError:
                # Nothing was mutated: a failed add leaves the calendar
                # unchanged.
                raise CalendarError(
                    f"adding reservation {reservation} would exceed capacity"
                ) from None
            self._book(reservation, validated)
            return
        if _obs.ENABLED:
            _obs.incr("calendar.add.rebuild")
        self._book(reservation, None)
        if not self._clamp:
            # Strict capacity check: recompiling the profile raises on any
            # real violation (micro-violations shorter than the time
            # tolerance are forgiven — see availability()).  Roll back so
            # a failed add leaves the calendar unchanged.
            try:
                self.availability()
            except CalendarError:
                # The append above left this calendar holding the
                # list's last entry, so popping it disturbs no copy.
                self._reservations.pop()
                self._n_res -= 1
                self._profile = None
                self._invalidate_caches()
                raise CalendarError(
                    f"adding reservation {reservation} would exceed capacity"
                ) from None

    def reserve_known_feasible(
        self, start: float, duration: float, nprocs: int, label: str = ""
    ) -> Reservation:
        """Commit a placement this calendar's own placement queries
        returned, skipping the strict capacity re-validation.

        The placement queries only report windows with ``nprocs``
        processors free, so re-checking on commit is redundant work; this
        fast path splices the reservation straight into the compiled
        profile.  Sub-tolerance negative residue (a backward scheduler's
        ``(end − d) + d`` landing one ulp past ``end``) is clamped exactly
        as the full validation would.  Under :data:`VALIDATE_COMMITS`
        this delegates to :meth:`reserve` (full validation) instead.

        Only hand this method placements derived from this calendar's
        *current* state; externally supplied reservations must go through
        :meth:`add`.
        """
        if VALIDATE_COMMITS or _obs.ENABLED:
            # The debug and instrumented commits share one branch, so the
            # plain splice pays a single test.
            if VALIDATE_COMMITS:
                if _obs.ENABLED:
                    _obs.incr("calendar.commit.validated")
                return self.reserve(start, duration, nprocs, label=label)
            if _obs.ENABLED:
                with _obs.span("calendar.commit"):
                    _obs.incr("calendar.commit.splice")
                    return self._splice_commit(start, duration, nprocs, label)
        return self._splice_commit(start, duration, nprocs, label)

    def _splice_commit(
        self, start: float, duration: float, nprocs: int, label: str
    ) -> Reservation:
        """The :meth:`reserve_known_feasible` fast path proper."""
        r = Reservation(
            start=start, end=start + duration, nprocs=nprocs, label=label
        )
        prof = self.availability()
        spliced, lo, hi = prof._splice(r.start, r.end, -float(r.nprocs))
        # Only the shifted values can have gone negative.
        if hi > lo and _min(spliced.values[lo:hi]) < 0:
            # Feasible placements can only go negative by floating-point
            # residue; clamp it like the strict path does so the profile
            # stays bitwise identical to a full recompile.
            spliced = spliced.map(lambda v: np.maximum(v, 0.0)).canonical()
        self._book(r, spliced)
        return r

    def copy(self) -> "ResourceCalendar":
        """Independent copy (used for tentative scheduling)."""
        # Everything but the reservation list is shared, without
        # recompiling anything.  Sharing the index and memo dicts is
        # safe: they describe the profile both calendars currently share,
        # and whichever calendar mutates first rebinds (not clears) its
        # own references.  The attributes are set one by one in
        # ``__init__`` order: copying ``__dict__`` wholesale would
        # materialize the copy's instance dict, and every later attribute
        # load on it (the copy becomes the live calendar on commit) takes
        # CPython's slower dict-lookup path.
        dup = object.__new__(ResourceCalendar)
        dup._capacity = self._capacity
        dup._clamp = self._clamp
        dup._incremental = self._incremental
        dup._reservations = self._reservations
        dup._n_res = self._n_res
        dup._profile = self._profile
        dup._generation = self._generation
        dup._index = self._index
        dup._runs_cache = self._runs_cache
        dup._multi_cache = self._multi_cache
        return dup

    def _invalidate_caches(self) -> None:
        """Start a new commit generation: drop this calendar's index and
        query memos (copies sharing the old dicts are unaffected)."""
        self._generation += 1
        self._index = None
        self._runs_cache = {}
        self._multi_cache = {}
        if _obs.ENABLED:
            _obs.incr("cache.calendar.invalidate")

    # ------------------------------------------------------------------
    # Profile
    # ------------------------------------------------------------------

    def _validated(
        self, profile: StepFunction, lo: int = 0, hi: int | None = None
    ) -> StepFunction:
        """Apply the capacity policy to a freshly built or spliced profile.

        Clamping calendars pin negative availability at zero.  Strict
        calendars raise on any real violation; negative availability on a
        segment no longer than the time tolerance is floating-point
        residue — schedulers compute starts as ``boundary - duration``,
        and ``start + duration`` can land one ulp past the boundary;
        durations are minutes to hours, so sub-microsecond overlaps are
        physically meaningless and get clamped instead.

        ``values[lo:hi]`` are the only values that can be negative (a
        splice passes its shifted range; the default checks them all).
        """
        if _obs.ENABLED:
            _obs.incr("calendar.validate")
        shifted = profile.values[lo:hi]
        negative = bool(shifted.size) and _min(shifted) < 0
        if self._clamp:
            if negative:
                # Canonicalize after clamping so the spliced and
                # recompiled profiles stay representation-identical.
                return profile.map(lambda v: np.maximum(v, 0.0)).canonical()
            return profile
        if negative:
            neg = profile.values < 0
            seg_len = np.append(np.diff(profile.times), np.inf)
            if bool(np.any(neg & (seg_len > TIME_EPS))):
                raise CalendarError(
                    "reservations exceed platform capacity "
                    f"(availability reaches {profile.values.min():.0f}); "
                    "construct the calendar with clamp=True to tolerate "
                    "this"
                )
            profile = profile.map(lambda v: np.maximum(v, 0.0)).canonical()
        return profile

    def availability(self) -> StepFunction:
        """The compiled availability profile (free processors over time)."""
        if self._profile is None:
            events: list[tuple[float, float]] = []
            for r in self._own():
                events.append((r.start, -float(r.nprocs)))
                events.append((r.end, float(r.nprocs)))
            profile = StepFunction.from_deltas(events, base=float(self._capacity))
            self._profile = self._validated(profile)
        return self._profile

    def available_at(self, t: float) -> int:
        """Free processors at instant ``t``."""
        return int(self.availability()(t))

    def min_available(self, t0: float, t1: float) -> int:
        """Minimum free processors over ``[t0, t1)``."""
        prof = self.availability()
        if USE_INDEX and prof.times.size >= INDEX_MIN_SEGMENTS and t1 > t0:
            if _obs.ENABLED:
                _obs.incr("calendar.query.min.indexed")
            i0 = prof.segment_index(t0)
            i1 = int(np.searchsorted(prof.times, t1, side="left")) - 1
            return int(self._availability_index().min_over(i0, i1, prof.base))
        return int(prof.min_over(t0, t1))

    def _availability_index(self) -> AvailabilityIndex:
        """The segment index over the current profile (built lazily once
        per commit generation)."""
        idx = self._index
        if idx is None:
            if _obs.ENABLED:
                _obs.incr("cache.calendar.index_build")
            idx = self._index = AvailabilityIndex(self.availability())
        return idx

    def average_available(self, t0: float, t1: float) -> float:
        """Time-weighted mean free processors over ``[t0, t1]``.

        This is the paper's P' when evaluated over a trailing window of the
        historical reservation schedule.
        """
        return self.availability().mean(t0, t1)

    def utilization(self, t0: float, t1: float) -> float:
        """Fraction of processor-time reserved over ``[t0, t1]``."""
        return 1.0 - self.average_available(t0, t1) / self._capacity

    # ------------------------------------------------------------------
    # Placement queries
    # ------------------------------------------------------------------

    def _check_request(self, duration: float, nprocs: int) -> None:
        if not duration > 0:
            raise CalendarError(f"duration must be positive, got {duration}")
        if nprocs < 1:
            raise CalendarError(f"nprocs must be >= 1, got {nprocs}")
        if nprocs > self._capacity:
            raise CalendarError(
                f"request for {nprocs} processors exceeds capacity "
                f"{self._capacity}"
            )

    def _free_runs(self, nprocs: int) -> tuple[np.ndarray, np.ndarray]:
        """Maximal intervals with ``>= nprocs`` processors free.

        Returns ``(run_starts, run_ends)``: each run spans
        ``[run_starts[i], run_ends[i])``; the first may start at −inf
        (free before the first breakpoint) and the last always ends at
        +inf (the machine is all-free past the last reservation).  One
        O(segments) NumPy pass, no Python loop over segments.  Memoized
        per ``nprocs`` until the next commit; callers must not mutate
        the returned arrays.
        """
        cached = self._runs_cache.get(nprocs)
        if cached is not None:
            if _obs.ENABLED:
                _obs.incr("cache.calendar.runs.hit")
            return cached
        if _obs.ENABLED:
            _obs.incr("cache.calendar.runs.miss")
        prof = self.availability()
        # ok[j] — does segment j−1 (−1 = the base segment) satisfy the
        # request?  Padded with False on both sides so run boundaries are
        # plain sign changes.
        ok = np.empty(prof.values.size + 3, dtype=bool)
        ok[0] = ok[-1] = False
        ok[1] = prof.base >= nprocs
        np.greater_equal(prof.values, nprocs, out=ok[2:-1])
        bounds = np.concatenate(([-np.inf], prof.times, [np.inf]))
        starts = np.flatnonzero(ok[1:-1] & ~ok[:-2])
        ends = np.flatnonzero(ok[1:-1] & ~ok[2:]) + 1
        runs = (bounds[starts], bounds[ends])
        self._runs_cache[nprocs] = runs
        return runs

    def earliest_start(
        self, earliest: float, duration: float, nprocs: int
    ) -> float:
        """First start ``s >= earliest`` with ``nprocs`` free on
        ``[s, s + duration)``.

        Always succeeds: beyond the last reservation the whole machine is
        free (clamped calendars included, because clamping never lowers
        the final all-free segment).
        """
        if _obs.ENABLED:
            _obs.incr("calendar.query.earliest")
        self._check_request(duration, nprocs)
        prof = self.availability()
        if USE_INDEX and prof.times.size >= INDEX_MIN_SEGMENTS:
            if _obs.ENABLED:
                _obs.incr("calendar.query.earliest.indexed")
            jq = int(np.searchsorted(prof.times, earliest, side="right"))
            s = self._availability_index().earliest_start(
                jq, earliest, duration, nprocs
            )
            if s is None:
                raise CalendarError(
                    "no feasible start found — availability never recovers "
                    f"to {nprocs} processors"
                )
            return float(s)
        run_starts, run_ends = self._free_runs(nprocs)
        # The window must fit inside one free run: start no earlier than
        # the run (or `earliest`) and end by the run's end.
        cand = np.maximum(run_starts, float(earliest))
        feasible = np.flatnonzero(cand + duration <= run_ends)
        if feasible.size == 0:
            # The final all-free segment extends to +inf, so this cannot
            # happen for a validated request.
            raise CalendarError(
                "no feasible start found — availability never recovers "
                f"to {nprocs} processors"
            )
        return float(cand[feasible[0]])

    def latest_start(
        self,
        latest_finish: float,
        duration: float,
        nprocs: int,
        *,
        earliest: float = -np.inf,
    ) -> float | None:
        """Latest start ``s`` with ``s >= earliest`` and
        ``s + duration <= latest_finish`` such that ``nprocs`` processors
        are free on ``[s, s + duration)``.

        Returns None when no such start exists (the deadline-infeasible
        outcome for backward scheduling).
        """
        if _obs.ENABLED:
            _obs.incr("calendar.query.latest")
        self._check_request(duration, nprocs)
        prof = self.availability()
        if USE_INDEX and prof.times.size >= INDEX_MIN_SEGMENTS:
            if _obs.ENABLED:
                _obs.incr("calendar.query.latest.indexed")
            jq = int(np.searchsorted(prof.times, latest_finish, side="left"))
            s = self._availability_index().latest_start(
                jq, latest_finish, duration, nprocs, float(earliest)
            )
            return None if s is None else float(s)
        run_starts, run_ends = self._free_runs(nprocs)
        # Latest start inside each run: finish at the run's end or the
        # deadline, whichever is sooner.  Computed as `end − duration`
        # (the end is always latest_finish or an exact breakpoint) so a
        # caller's `start + duration` round-trips exactly.
        cand = np.minimum(run_ends, float(latest_finish)) - duration
        feasible = np.flatnonzero((cand >= run_starts) & (cand >= earliest))
        if feasible.size == 0:
            return None
        # Run ends are increasing, so candidates are non-decreasing: the
        # last feasible run holds the latest start.
        return float(cand[feasible[-1]])

    def earliest_starts_multi(
        self,
        earliest: float,
        durations: Sequence[float] | np.ndarray,
        *,
        m_offset: int = 0,
    ) -> np.ndarray:
        """Vectorized :meth:`earliest_start` over a range of processor
        counts.

        ``durations[j]`` is the duration needed when using
        ``m_offset + j + 1`` processors (the moldable-task case: one
        execution-time vector per task).  Returns the earliest feasible
        start for each count from one windowed scan of the availability
        profile (:meth:`_scan_earliest`) — the schedulers' hot path.
        ``m_offset`` lets callers searching for the *fewest* feasible
        processors escalate through count windows instead of paying for
        the full 1..p sweep.

        Args:
            earliest: No window may start before this instant.
            durations: Positive durations, one per processor count;
                ``m_offset + len(durations)`` must not exceed capacity.
            m_offset: The count for ``durations[0]`` is ``m_offset + 1``.

        Returns:
            Array ``starts`` with ``starts[j]`` the earliest start for
            ``m_offset + j + 1`` processors.
        """
        if _obs.ENABLED:
            with _obs.span("calendar.query.earliest_multi"):
                return self._earliest_starts_multi(earliest, durations, m_offset)
        return self._earliest_starts_multi(earliest, durations, m_offset)

    def _earliest_starts_multi(
        self,
        earliest: float,
        durations: Sequence[float] | np.ndarray,
        m_offset: int,
    ) -> np.ndarray:
        d = self._checked_durations(durations, m_offset)
        key = ("e", float(earliest), int(m_offset), d.tobytes())
        cached = self._multi_cache.get(key)
        if cached is not None:
            if _obs.ENABLED:
                _obs.incr("cache.calendar.multi.hit")
            return cached.copy()

        prof = self.availability()
        if USE_INDEX and prof.times.size >= INDEX_MIN_SEGMENTS:
            # Dense profile: one O(log S) indexed probe per processor
            # count beats scanning segments for every count.
            if _obs.ENABLED:
                _obs.incr("cache.calendar.multi.miss")
                _obs.incr("calendar.query.earliest_multi")
                _obs.incr("calendar.query.earliest_multi.indexed")
                _obs.observe("calendar.probe.counts", d.size)
            result = self._indexed_earliest(prof, earliest, d, m_offset)
            return self._memo_store(key, result)

        result, scanned = self._scan_earliest(prof, float(earliest), d, m_offset)
        if _obs.ENABLED:
            _obs.incr("cache.calendar.multi.miss")
            _obs.incr("calendar.query.earliest_multi")
            _obs.observe("calendar.scan.segments", scanned)
            _obs.observe("calendar.probe.counts", d.size)
        return self._memo_store(key, result)

    def _checked_durations(
        self, durations: Sequence[float] | np.ndarray, m_offset: int = 0
    ) -> np.ndarray:
        """``durations`` as a positive 1-D float array whose counts
        ``m_offset + 1 ..`` fit this calendar's capacity."""
        d = np.asarray(durations, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise CalendarError("durations must be a non-empty 1-D array")
        if m_offset < 0:
            raise CalendarError(f"m_offset must be >= 0, got {m_offset}")
        if m_offset + d.size > self._capacity:
            raise CalendarError(
                f"durations imply up to {m_offset + d.size} processors but "
                f"capacity is {self._capacity}"
            )
        if not _min(d) > 0:
            raise CalendarError("all durations must be positive")
        return d

    def _indexed_earliest(
        self,
        prof: StepFunction,
        earliest: float,
        d: np.ndarray,
        m_offset: int,
    ) -> np.ndarray:
        """One O(log S) index walk per processor count (dense profiles)."""
        idx = self._availability_index()
        jq = int(prof.times.searchsorted(earliest, "right"))
        result = np.empty(d.size)
        for k, dur in enumerate(d.tolist()):
            s = idx.earliest_start(jq, earliest, dur, m_offset + k + 1)
            if s is None:
                raise CalendarError(
                    "availability profile ended before all requests "
                    "were placed — internal invariant violated"
                )
            result[k] = s
        return result

    def _memo_store(self, key: tuple, result: np.ndarray) -> np.ndarray:
        """Remember a multi-query result for this commit generation.

        A private copy goes into the cache (hits hand out copies too), so
        callers may mutate what they received without corrupting it.
        """
        if len(self._multi_cache) >= _MULTI_CACHE_CAP:
            if _obs.ENABLED:
                _obs.incr("cache.calendar.multi.evict")
            self._multi_cache = {}
        self._multi_cache[key] = result.copy()
        return result

    def _scan_earliest(
        self,
        prof: StepFunction,
        earliest: float,
        d: np.ndarray,
        m_offset: int,
    ) -> tuple[np.ndarray, int]:
        """The linear earliest-start kernel behind every multi-count probe.

        Returns the earliest feasible start for each count
        ``m_offset + k + 1`` (duration ``d[k]``) and the number of
        profile segments scanned.  Answers almost always sit a few
        segments past ``earliest``, so each row is resolved in pure
        Python over ``.tolist()`` copies of the first
        :data:`BATCH_WINDOW_SEGMENTS` segments — on the one-to-a-few
        request batches the engines issue, NumPy's per-call overhead
        would cost more than the scan.  A row takes the first free run
        (consecutive segments with ``>= m`` processors) where
        ``max(run start, earliest) + d <= run end``: per run it bisects
        for the first segment whose end bound reaches ``cand + d`` and
        accepts the run iff the run lasts through that segment.  Rows
        with no confirmed run in the window — including rows whose
        trailing run the window cuts short — escalate to
        :meth:`_escalate_earliest`.  Both kernels compute the candidate
        as the same float expression over the same segment bounds, so
        results are bitwise-independent of the window size.
        """
        times = prof.times
        # Padded segment p is [base, *values][p] on bounds
        # [-inf, *times, +inf][p : p + 2]; segment j0 holds `earliest`.
        j0 = int(times.searchsorted(earliest, "right"))
        n_suffix = times.size + 1 - j0
        window = max(1, BATCH_WINDOW_SEGMENTS)
        wc = min(window, n_suffix)
        segvals, segbounds = _window(prof, j0, wc)
        # Window segment p is vals[p] on [los[p], los[p + 1]).
        vals = segvals.tolist()
        los = segbounds.tolist()
        # Counts above the window's best availability cannot resolve in
        # it (when the window reaches +inf its last value is capacity).
        top = max(vals)
        out = [0.0] * d.size
        open_rows: list[int] = []
        # The first segment with >= m free only moves right as m grows.
        first = 0
        m = m_offset
        for k, dur in enumerate(d.tolist()):
            m += 1
            if m > top:
                open_rows.append(k)
                continue
            while vals[first] < m:
                first += 1
            p = first
            while True:
                # p starts a run of segments with >= m free.
                lo = los[p]
                # np.maximum(lo, earliest): `earliest` on ties.
                cand = lo if lo > earliest else earliest
                # The first segment q whose end bound is >= cand + dur;
                # the window fits iff the run reaches q.
                q = bisect_left(los, cand + dur, p + 1) - 1
                if q == wc:
                    open_rows.append(k)
                    break
                if q == p or min(vals[p + 1 : q + 1]) >= m:
                    out[k] = cand
                    break
                # The run ends inside (p, q]: skip to the next run.
                p += 1
                while vals[p] >= m:
                    p += 1
                while p < wc and vals[p] < m:
                    p += 1
                if p == wc:
                    open_rows.append(k)
                    break
        result = np.array(out)
        if not open_rows:
            return result, wc
        if wc >= n_suffix:
            # The final segment is all-free (value == capacity >= any
            # requested count) and extends to +inf, so every count
            # resolves; anything else is an internal invariant violation.
            raise CalendarError(
                "availability profile ended before all requests were "
                "placed — internal invariant violated"
            )
        scanned = self._escalate_earliest(
            prof, earliest, d, m_offset, j0, np.array(open_rows), result, window * 8
        )
        return result, wc + scanned

    def _escalate_earliest(
        self,
        prof: StepFunction,
        earliest: float,
        d: np.ndarray,
        m_offset: int,
        j0: int,
        rows: np.ndarray,
        out: np.ndarray,
        window: int,
    ) -> int:
        """Vectorized windowed pass for the rows the scan left open.

        Each pass scans a window of the suffix starting at segment
        ``j0`` as one 2-D sweep over (row, segment).  Runs that close
        inside the window are decided exactly; the one run a window can
        truncate is its trailing run, whose end is only *under*stated
        (the true run extends at least to the window's last bound), so a
        candidate confirmed against that bound is exactly feasible and a
        rejected trailing candidate merely escalates — rows with no
        confirmed candidate retry with an 8x window until the window
        covers the suffix, where the pass is the full exact sweep.
        Writes answers into ``out[rows]`` and returns the segments
        scanned.
        """
        n_suffix = prof.times.size + 1 - j0
        m_rows = rows + (m_offset + 1)
        d_rows = d[rows]
        alive = np.arange(rows.size)
        scanned = 0
        while True:
            if _obs.ENABLED:
                _obs.incr("calendar.batch.escalations")
            wc = min(window, n_suffix)
            scanned += wc
            segvals, segbounds = _window(prof, j0, wc)
            ok = np.zeros((alive.size, wc + 2), dtype=bool)
            np.greater_equal(
                segvals[None, :], m_rows[alive][:, None], out=ok[:, 1:-1]
            )
            inner = ok[:, 1:-1]
            # Row-major nonzero: the i-th rise and i-th fall delimit the
            # same run, and runs appear grouped by row and ordered in time.
            r_rows, r_cols = np.nonzero(inner & ~ok[:, :-2])
            f_rows, f_cols = np.nonzero(inner & ~ok[:, 2:])
            cand = np.maximum(segbounds[r_cols], earliest)
            feasible = cand + d_rows[alive][r_rows] <= segbounds[f_cols + 1]
            rows_f = r_rows[feasible]
            if rows_f.size:
                # `r_rows` is row-major sorted, so the first feasible run
                # per row is the first occurrence in `rows_f`.
                first = np.empty(rows_f.size, dtype=bool)
                first[0] = True
                np.not_equal(rows_f[1:], rows_f[:-1], out=first[1:])
                urows = rows_f[first]
                out[rows[alive[urows]]] = cand[feasible][first]
            else:
                urows = rows_f
            if urows.size == alive.size:
                return scanned
            if wc >= n_suffix:
                raise CalendarError(
                    "availability profile ended before all requests were "
                    "placed — internal invariant violated"
                )
            keep = np.ones(alive.size, dtype=bool)
            keep[urows] = False
            alive = alive[keep]
            window *= 8

    def earliest_starts_batch(
        self,
        requests: "Sequence[tuple[float, Sequence[float] | np.ndarray]]",
        *,
        prechecked: bool = False,
    ) -> list[np.ndarray]:
        """Several :meth:`earliest_starts_multi` probes in one call.

        Each request is an ``(earliest, durations)`` pair exactly as the
        per-call signature takes them (``m_offset`` fixed at 0):
        ``durations[j]`` is the duration on ``j + 1`` processors.  The
        incremental scheduling engine batches the probes of every
        simultaneously-ready task into one call per completion event;
        each request missing the query memo runs the same windowed scan
        (:meth:`_scan_earliest`) as the per-call query, and the batch
        amortizes validation, the ``ENABLED`` checks and the memo
        lookups.

        Results are **bitwise-identical** to issuing the per-call queries
        one by one, and the per-calendar query memo is shared in both
        directions — batch results are stored under the per-call keys
        and vice versa.

        Args:
            requests: ``(earliest, durations)`` pairs.
            prechecked: The caller vouches every request is already a
                ``(float, positive 1-D float array no wider than this
                calendar's capacity)`` pair, so per-request validation is
                skipped.  :class:`~repro.shard.ShardedCalendar` validates
                a batch once at the facade and fans the same objects out
                to every shard leg with this flag — without it each leg
                would re-validate identical requests K times per probe.

        Returns:
            One starts array per request, in request order.
        """
        if _obs.ENABLED:
            with _obs.span("calendar.query.earliest_batch"):
                return self._earliest_starts_batch(
                    requests, prechecked=prechecked
                )
        return self._earliest_starts_batch(requests, prechecked=prechecked)

    def _earliest_starts_batch(
        self,
        requests: "Sequence[tuple[float, Sequence[float] | np.ndarray]]",
        *,
        prechecked: bool = False,
    ) -> list[np.ndarray]:
        if prechecked:
            reqs: list[tuple[float, np.ndarray]] = list(requests)
        else:
            reqs = [
                (float(earliest), self._checked_durations(durations))
                for earliest, durations in requests
            ]
        if not reqs:
            return []

        keys = [("e", e, 0, d.tobytes()) for e, d in reqs]
        results: list[np.ndarray | None] = [None] * len(reqs)
        miss: list[int] = []
        for qi, key in enumerate(keys):
            cached = self._multi_cache.get(key)
            if cached is not None:
                results[qi] = cached.copy()
            else:
                miss.append(qi)
        if _tl.ENABLED:
            # One event per batched probe (the engine issues one batch
            # per completion event), timed at the earliest request.
            _tl.emit(
                "probe_batch",
                min(e for e, _ in reqs),
                tasks=len(reqs),
                candidates=int(sum(d.size for _, d in reqs)),
                memo_misses=len(miss),
            )

        scanned = 0
        if miss:
            prof = self.availability()
            if (
                USE_INDEX
                and self._index is not None
                and prof.times.size >= INDEX_MIN_SEGMENTS
            ):
                # Dense profile with a live index: the tree walks are
                # already per-request.  When no index exists for the
                # current commit generation we deliberately do NOT build
                # one — the batched probes come from the streamed engine,
                # which commits after every event, so an index would be
                # invalidated before it amortized its O(S) build; the
                # windowed scan does O(window) work instead.
                for qi in miss:
                    e, d = reqs[qi]
                    out = self._indexed_earliest(prof, e, d, 0)
                    results[qi] = self._memo_store(keys[qi], out)
            else:
                for qi in miss:
                    e, d = reqs[qi]
                    out, n_seg = self._scan_earliest(prof, float(e), d, 0)
                    scanned += n_seg
                    results[qi] = self._memo_store(keys[qi], out)
        if _obs.ENABLED:
            _obs.incr("calendar.query.earliest_batch")
            _obs.observe("calendar.batch.requests", len(reqs))
            _obs.incr("cache.calendar.multi.hit", len(reqs) - len(miss))
            _obs.incr("cache.calendar.multi.miss", len(miss))
            if scanned:
                _obs.observe("calendar.scan.segments", scanned)
                _obs.observe(
                    "calendar.probe.counts",
                    sum(reqs[qi][1].size for qi in miss),
                )
        return results  # type: ignore[return-value]

    def latest_starts_multi(
        self,
        latest_finish: float,
        durations: Sequence[float] | np.ndarray,
        *,
        earliest: float = -np.inf,
    ) -> np.ndarray:
        """Vectorized :meth:`latest_start` over processor counts 1..b.

        Returns, for each processor count ``j + 1``, the latest start
        ``s >= earliest`` with ``s + durations[j] <= latest_finish`` and the
        processors free throughout — or NaN when infeasible.
        """
        if _obs.ENABLED:
            with _obs.span("calendar.query.latest_multi"):
                return self._latest_starts_multi(latest_finish, durations, earliest)
        return self._latest_starts_multi(latest_finish, durations, earliest)

    def _latest_starts_multi(
        self,
        latest_finish: float,
        durations: Sequence[float] | np.ndarray,
        earliest: float,
    ) -> np.ndarray:
        d = self._checked_durations(durations)
        key = ("l", float(latest_finish), float(earliest), d.tobytes())
        cached = self._multi_cache.get(key)
        if cached is not None:
            if _obs.ENABLED:
                _obs.incr("cache.calendar.multi.hit")
            return cached.copy()

        prof = self.availability()
        times = prof.times
        if USE_INDEX and times.size >= INDEX_MIN_SEGMENTS:
            if _obs.ENABLED:
                _obs.incr("cache.calendar.multi.miss")
                _obs.incr("calendar.query.latest_multi")
                _obs.incr("calendar.query.latest_multi.indexed")
                _obs.observe("calendar.probe.counts", d.size)
            idx = self._availability_index()
            jq = int(np.searchsorted(times, latest_finish, side="left"))
            result = np.full(d.size, np.nan)
            for k, dur in enumerate(d.tolist()):
                s = idx.latest_start(jq, latest_finish, dur, k + 1, earliest)
                if s is not None:
                    result[k] = s
            return self._memo_store(key, result)

        result = self._scan_latest(
            prof, float(latest_finish), d, float(earliest)
        )
        if _obs.ENABLED:
            _obs.incr("cache.calendar.multi.miss")
            _obs.incr("calendar.query.latest_multi")
            _obs.observe("calendar.probe.counts", d.size)
        return self._memo_store(key, result)

    def _scan_latest(
        self,
        prof: StepFunction,
        latest_finish: float,
        d: np.ndarray,
        earliest: float,
    ) -> np.ndarray:
        """The linear latest-start kernel: the backward counterpart of
        :meth:`_scan_earliest`, NaN where a count is infeasible.

        Each row keeps a candidate finish ``cand`` (initially
        ``latest_finish``) and walks segments backward from the one
        holding instants just before it.  Invariant: availability is
        ``>= m`` on ``[segment end, cand)``.  In a run of segments with
        enough processors the window fits at the last segment starting
        at or before ``cand - d`` (found by bisection) if the run
        reaches down to it; a segment without enough moves ``cand`` to
        its start, and the row is infeasible once ``cand - d <
        earliest``.  Rows are resolved in pure Python over the
        :data:`BATCH_WINDOW_SEGMENTS` segments below ``latest_finish``;
        rows still open at the window edge continue in a loop vectorized
        over rows, one segment at a time, with the same ``cand - d``
        arithmetic, so results are bitwise-independent of the window
        size.
        """
        times = prof.times
        # Segment holding instants just before latest_finish (-1 = base);
        # the window covers segments j - wc + 1 >= -1 up to j, and window
        # position i is vals[i] on [los[i], los[i + 1]).
        j = int(times.searchsorted(latest_finish, "left")) - 1
        wc = min(max(1, BATCH_WINDOW_SEGMENTS), j + 2)
        segvals, segbounds = _window(prof, j + 2 - wc, wc)
        vals = segvals.tolist()
        los = segbounds.tolist()
        # The base segment (-inf, times[0]) always has enough processors
        # and room, so a window reaching it resolves every row.
        open_rows: list[int] = []
        open_cand: list[float] = []
        out = [np.nan] * d.size
        # The top-most segment with >= m free only moves down as m grows.
        last = wc - 1
        m = 0
        for k, dur in enumerate(d.tolist()):
            m += 1
            while last >= 0 and vals[last] < m:
                last -= 1
            p = last
            # Segments above p lack processors: the window must finish by
            # the start of the lowest of them.  `cand` only decreases, so
            # the infeasibility test at each of them reduces to this one.
            cand = latest_finish if p == wc - 1 else los[p + 1]
            while True:
                if cand - dur < earliest:
                    break
                if p < 0:
                    # Still blocked at the window's bottom edge.
                    open_rows.append(k)
                    open_cand.append(cand)
                    break
                s = cand - dur
                # The last segment q <= p starting at or before s; the
                # window fits iff the run reaches down to q.
                q = bisect_right(los, s, 0, p + 1) - 1
                lo_q = q if q > 0 else 0
                if lo_q == p or min(vals[lo_q:p]) >= m:
                    if q < 0:
                        # The run reaches below the window.
                        open_rows.append(k)
                        open_cand.append(cand)
                    elif s >= earliest:
                        # A fitting start below `earliest` means every
                        # remaining candidate is even earlier: infeasible.
                        out[k] = s
                    break
                # The run ends inside [q, p): walk down past it and the
                # blocked segments below it.
                p -= 1
                while vals[p] >= m:
                    p -= 1
                while p >= 0 and vals[p] < m:
                    p -= 1
                cand = los[p + 1]
        result = np.array(out)
        if not open_rows:
            return result
        if _obs.ENABLED:
            _obs.incr("calendar.batch.escalations")
        rows = np.array(open_rows)
        m_rows = rows + 1
        d_rows = d[rows]
        cand_rows = np.array(open_cand)
        res = np.full(rows.size, np.nan)
        resolved = np.zeros(rows.size, dtype=bool)
        j -= wc
        while True:
            lo, _hi = prof.segment_bounds(j)
            v = prof.segment_value(j)
            enough = m_rows <= v
            starts = cand_rows - d_rows
            fits = ~resolved & enough & (starts >= lo)
            good = fits & (starts >= earliest)
            res[good] = starts[good]
            resolved |= fits
            broken = ~resolved & ~enough
            cand_rows[broken] = lo
            resolved |= broken & (cand_rows - d_rows < earliest)
            if resolved.all() or j < 0:
                result[rows] = res
                return result
            j -= 1

    def fits(self, start: float, duration: float, nprocs: int) -> bool:
        """True when ``nprocs`` processors are free on
        ``[start, start + duration)``."""
        self._check_request(duration, nprocs)
        return self.min_available(start, start + duration) >= nprocs

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def reserve(
        self, start: float, duration: float, nprocs: int, label: str = ""
    ) -> Reservation:
        """Create, validate, add, and return a reservation."""
        r = Reservation(start=start, end=start + duration, nprocs=nprocs, label=label)
        self.add(r)
        return r

    def span(self) -> tuple[float, float] | None:
        """Earliest start and latest end over all reservations, or None."""
        if not self._n_res:
            return None
        return (
            min(r.start for r in self._own()),
            max(r.end for r in self._own()),
        )

    def __repr__(self) -> str:
        return (
            f"ResourceCalendar(capacity={self._capacity}, "
            f"reservations={self._n_res})"
        )


def _window(
    prof: StepFunction, j0: int, wc: int
) -> tuple[np.ndarray, np.ndarray]:
    """Padded segments ``j0 .. j0 + wc - 1`` of ``prof``.

    The padded segment values are conceptually ``[base, *values]`` and
    their bounds ``[-inf, *times, +inf]``; returns the ``wc`` values and
    the ``wc + 1`` bounds of the window.  Both are views of the profile
    arrays except where the window touches one of the two padded ends,
    so a window never copies O(suffix) data.
    """
    times, values = prof.times, prof.values
    if j0 >= 1:
        segvals = values[j0 - 1 : j0 - 1 + wc]
    else:
        segvals = np.concatenate(([prof.base], values[: wc - 1]))
    if j0 >= 1 and j0 + wc <= times.size:
        segbounds = times[j0 - 1 : j0 + wc]
    else:
        head = [] if j0 >= 1 else [np.array([-np.inf])]
        tail = [] if j0 + wc <= times.size else [np.array([np.inf])]
        segbounds = np.concatenate(
            head + [times[max(j0 - 1, 0) : min(j0 + wc, times.size)]] + tail
        )
    return segvals, segbounds


def _min(a: np.ndarray) -> float:
    """``a.min()`` of a non-empty array, through the C-level ``argmin``
    (``ndarray.min`` goes through a Python-level reduction wrapper whose
    overhead dominates on the short arrays of the hot paths).  NaN
    propagates as in ``min``: ``argmin`` picks the first NaN."""
    return float(a[a.argmin()])
