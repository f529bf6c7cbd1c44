"""Measurement helpers: the speed probe, the calibration loop, memory,
the machine description and the per-seed digest record.

Nothing here imports the program.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Iterable

import numpy as np


def _splice_loop() -> float:
    """A numpy splice: what one commit into a step profile costs."""
    base = np.arange(200_000, dtype=np.float64)
    for i in range(40):
        k = 1_000 + 4_000 * i
        base = np.concatenate((base[:k], np.array([0.5, 1.5]), base[k + 2 :]))
    return float(base[-1])


def _heap_loop() -> int:
    """A pure-Python heap loop: what an interpreter-bound ready queue costs."""
    heap: list[tuple[float, int]] = []
    acc = 0
    for i in range(20_000):
        heapq.heappush(heap, ((i * 7919) % 10_007 * 1.0, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[1]
    return acc


_PROBE_TABLE = [(i * 7919) % 10_007 for i in range(256)]


def _probe_loop() -> int:
    """About a millisecond of interpreter work: one sample of the host's
    speed.  It allocates no container, so it never sets off the garbage
    collector, whose cost belongs to the program that filled the heap."""
    table = _PROBE_TABLE
    acc = 0
    for i in range(12_000):
        v = table[i & 255]
        if v > acc % 10_007:
            acc += v
        else:
            acc -= i
    return acc


#: Seconds :func:`_probe_loop` takes at the reference speed: the 1st
#: percentile of its times on a shared 2.1 GHz Xeon, Python 3.11.
PROBE_REF_S = 0.94e-3


class Speed:
    """Samples the host's speed while a workload runs.

    A shared host runs this process at a speed that changes many times
    a second and drifts from minute to minute, by up to 1.7x, in CPU
    time as much as in wall time.  The workloads owe the probe a share
    of every second they time and pay it back, between requests, in runs
    of :func:`_probe_loop`.  The probes so sample the host's speed
    uniformly over the program's time, and a time scaled by
    ``PROBE_REF_S`` over the mean probe is the time the program would
    have taken at the reference speed.

    A workload owes once for building an episode's state and then once
    per request, so the number of debts owed before a probe ran tells
    which requests it ran between.
    """

    def __init__(self, share: float = 0.1) -> None:
        self.share = share
        self._debt = 0.0
        self._owed = 0
        self._samples: list[float] = []
        self._after: list[int] = []

    def owe(self, seconds: float) -> None:
        self._debt += self.share * seconds
        self._owed += 1

    def pay(self, until: float = float("inf")) -> None:
        """Probe until the debt is paid, or until a probe would run past
        ``until`` on the performance clock."""
        while self._debt > 0:
            t0 = time.perf_counter()
            if t0 + 3 * PROBE_REF_S > until:
                return
            _probe_loop()
            took = time.perf_counter() - t0
            self._samples.append(took)
            self._after.append(self._owed)
            self._debt -= took

    def take(self) -> tuple[list[float], list[int]]:
        """The probe times since the last call, seconds, and for each
        the number of debts owed before it ran; settles the debt."""
        self.pay()
        out = (self._samples, self._after)
        self._debt, self._owed, self._samples, self._after = 0.0, 0, [], []
        return out


def probe_times(count: int) -> list[float]:
    """Times of ``count`` probes run now, seconds."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        _probe_loop()
        out.append(time.perf_counter() - t0)
    return out


def to_reference(probes: list[float]) -> float:
    """Factor that turns times measured alongside ``probes`` into times
    at the reference speed."""
    return PROBE_REF_S / statistics.fmean(probes) if probes else 1.0


def local_reference(
    probes: list[float], after: list[int], n_requests: int, width: int = 6
) -> np.ndarray:
    """Per request, the factor to the reference speed from the ``width``
    probes nearest to it, for probes taken as :meth:`Speed.take` reports.

    The speed drifts within an episode too, so a single request is
    scaled by the speed around it.
    """
    if len(probes) < width:
        return np.full(n_requests, to_reference(probes))
    # A probe taken after k debts ran between requests k - 2 and k - 1:
    # the first debt is for building the episode's state.
    at = np.asarray(after) - 1.5
    lo = np.searchsorted(at, np.arange(n_requests)) - width // 2
    lo = np.clip(lo, 0, len(probes) - width)
    total = np.concatenate(([0.0], np.cumsum(probes)))
    return PROBE_REF_S * width / (total[lo + width] - total[lo])


def calibrate(repeats: int = 5) -> dict[str, float]:
    """Median microseconds of the fixed splice and heap loops.

    Per-layer costs divided by ``unit_us`` (their sum) compare across
    machines of different speed.
    """
    out: dict[str, float] = {}
    for name, fn in (("splice_us", _splice_loop), ("heap_us", _heap_loop)):
        fn()
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * 1e6)
        out[name] = statistics.median(samples)
    out["unit_us"] = out["splice_us"] + out["heap_us"]
    return out


_ALLOWED: list[int] | None = None


def pin_fastest_cpu() -> int:
    """Pin this process to the CPU that runs the heap loop fastest, and
    return it.  The first call records the CPUs allowed; later calls
    choose among those again.

    On shared hosts one CPU can be much slower than another (a busy
    sibling thread); a process the scheduler moves between them runs at
    two speeds.  Pinning gives one speed per episode, and the fastest
    CPU is the one least disturbed by neighbours at the time.
    """
    global _ALLOWED
    if _ALLOWED is None:
        _ALLOWED = sorted(os.sched_getaffinity(0))
    allowed = _ALLOWED
    best, best_t = allowed[0], float("inf")
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        t = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _heap_loop()
            t = min(t, time.perf_counter() - t0)
        if t < best_t:
            best, best_t = cpu, t
    os.sched_setaffinity(0, {best})
    return best


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_FS_MAGIC = {
    0xEF53: "ext4",
    0x58465342: "xfs",
    0x9123683E: "btrfs",
    0x01021994: "tmpfs",
    0x794C7630: "overlayfs",
    0x6969: "nfs",
    0x65735546: "fuse",
    0x2FC12FC1: "zfs",
}


def fs_type(path: str) -> str:
    """File-system type of ``path`` (from ``statfs``), or ``unknown``."""

    class _StatFs(ctypes.Structure):
        _fields_ = [("f_type", ctypes.c_long), ("_rest", ctypes.c_byte * 256)]

    name = ctypes.util.find_library("c")
    if name is None:
        return "unknown"
    libc = ctypes.CDLL(name, use_errno=True)
    buf = _StatFs()
    if libc.statfs(os.fsencode(path), ctypes.byref(buf)) != 0:
        return "unknown"
    magic = buf.f_type & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def machine(journal_dir: str) -> dict[str, object]:
    """What a number measured here depends on; ``journal_fs`` is the
    file system the service workload's journal is fsync'd to."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(_ALLOWED or os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "journal_fs": fs_type(journal_dir),
    }


def digest(rows: Iterable[object]) -> str:
    """SHA-256 over the ``repr`` of each row, in order."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_digest(record: Path, key: str, value: str) -> str | None:
    """Compare ``value`` with the first digest recorded under ``key``.

    The first run of a key records its digest; later runs must match
    it.  Returns the recorded digest on a mismatch, else ``None``.
    """
    record.parent.mkdir(parents=True, exist_ok=True)
    seen: dict[str, str] = {}
    if record.exists():
        seen = json.loads(record.read_text(encoding="utf-8"))
    first = seen.setdefault(key, value)
    if first != value:
        return first
    tmp = record.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, record)
    return None
