"""The advance reservation: a block of processors over a time interval."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import CalendarError


@dataclass(frozen=True, order=True)
class Reservation:
    """A reservation of ``nprocs`` processors over ``[start, end)``.

    Reservations are half-open in time: one ending at ``t`` and another
    starting at ``t`` do not overlap.  Ordering (for sorting) is by
    ``(start, end, nprocs, label)``.

    Attributes:
        start: Start time, seconds.
        end: End time, seconds (strictly greater than ``start``).
        nprocs: Number of processors reserved (>= 1).
        label: Free-form tag — e.g. the owning task's name, or the source
            workload job id for competing reservations.
    """

    start: float
    end: float
    nprocs: int
    label: str = field(default="", compare=True)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise CalendarError(
                f"reservation times must be finite, got [{self.start}, {self.end})"
            )
        if not self.end > self.start:
            raise CalendarError(
                f"reservation must have positive duration, got "
                f"[{self.start}, {self.end})"
            )
        if self.nprocs < 1:
            raise CalendarError(
                f"reservation must hold >= 1 processor, got {self.nprocs}"
            )

    @property
    def duration(self) -> float:
        """Length of the reservation, seconds."""
        return self.end - self.start

    @property
    def cpu_seconds(self) -> float:
        """Processor-seconds held: ``nprocs * duration``."""
        return self.nprocs * self.duration

    def overlaps(self, other: "Reservation") -> bool:
        """True when the two reservations share any instant."""
        return self.start < other.end and other.start < self.end

    def contains(self, t: float) -> bool:
        """True when instant ``t`` falls inside ``[start, end)``."""
        return self.start <= t < self.end

    def shifted(self, delta: float) -> "Reservation":
        """Copy of this reservation translated in time by ``delta``."""
        return Reservation(
            start=self.start + delta,
            end=self.end + delta,
            nprocs=self.nprocs,
            label=self.label,
        )
