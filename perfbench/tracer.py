"""Span tracing from outside the program: timed wrappers around the
public functions of each layer, patched in for one run and restored.

A span is recorded at every call into a wrapped function: its layer,
start, end and the span that caused it (the innermost open span).  A
layer's *self time* is the span's duration minus the time its child
spans cover.  Spans stay in memory; :meth:`Tracer.write_spans` writes
them out once the run has ended.

The tracer itself imports nothing from the program, so the tests can
exercise it on stand-in objects.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Any, Callable, Iterable

_clock = time.perf_counter


class Tracer:
    """Per-layer call counts and self times, plus the raw span list."""

    def __init__(self) -> None:
        #: layer -> [calls, self seconds, total seconds]
        self.stats: dict[str, list[float]] = {}
        #: (parent layer, child layer) -> calls made from inside the parent
        self.edges: Counter[tuple[str, str]] = Counter()
        #: layer -> every span duration (kept only for layers asked for)
        self.durations: dict[str, list[float]] = {}
        #: (layer, start, end, parent span index or -1)
        self.spans: list[tuple[str, float, float, int]] = []
        # Open frames: [layer, start, child seconds, span index].
        self._stack: list[list[Any]] = []

    def keep_durations(self, *layers: str) -> None:
        """Also keep every span duration of ``layers`` (for percentiles)."""
        for layer in layers:
            self.durations.setdefault(layer, [])

    def timed(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that every call records one ``layer`` span."""
        stack = self._stack
        spans = self.spans
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
        edges = self.edges
        durations = self.durations.get(layer)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append((layer, 0.0, 0.0, parent[3] if parent else -1))
            frame = [layer, 0.0, 0.0, idx]
            stack.append(frame)
            t0 = frame[1] = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                spans[idx] = (layer, t0, t1, spans[idx][3])
                stats[0] += 1
                stats[1] += dur - frame[2]
                stats[2] += dur
                if parent is not None:
                    parent[2] += dur
                    edges[(parent[0], layer)] += 1
                if durations is not None:
                    durations.append(dur)

        return wrapper

    def calls(self, layer: str) -> int:
        return int(self.stats.get(layer, (0, 0.0, 0.0))[0])

    def self_s(self, layer: str) -> float:
        return float(self.stats.get(layer, (0, 0.0, 0.0))[1])

    def total_s(self, layer: str) -> float:
        return float(self.stats.get(layer, (0, 0.0, 0.0))[2])

    def write_spans(self, path: str) -> None:
        """Write the span list as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for layer, t0, t1, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"layer": layer, "start": t0, "end": t1, "parent": parent}
                    )
                    + "\n"
                )


class Patcher:
    """Replaces attributes for the length of a ``with`` block and puts
    the originals back on exit, also when the block raises."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def replace(
        self, owner: Any, name: str, make: Callable[[Callable[..., Any]], Any]
    ) -> None:
        """Set ``owner.name`` to ``make(original function)``.

        Class-, static- and plain methods are unwrapped to their
        function and re-wrapped in the same descriptor type, so the
        replacement binds exactly like the original.
        """
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, new)

    def trace(
        self, tracer: Tracer, layer: str, targets: Iterable[tuple[Any, str]]
    ) -> None:
        """Wrap every ``(owner, name)`` target in a ``layer`` span."""
        for owner, name in targets:
            self.replace(owner, name, lambda fn: tracer.timed(layer, fn))

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


def layer_table(
    tracer: Tracer, layers: Iterable[str], wall_s: float
) -> list[tuple[str, int, float, float, float]]:
    """Rows ``(layer, calls, self_s, share, us_per_call)`` for every
    layer, plus an ``unattributed`` row holding ``wall_s`` minus the sum
    of self times (time spent in no named layer)."""
    rows = []
    attributed = 0.0
    for layer in layers:
        calls = tracer.calls(layer)
        self_s = tracer.self_s(layer)
        attributed += self_s
        rows.append(
            (
                layer,
                calls,
                self_s,
                self_s / wall_s if wall_s > 0 else 0.0,
                self_s / calls * 1e6 if calls else 0.0,
            )
        )
    rest = wall_s - attributed
    rows.append(
        ("unattributed", 0, rest, rest / wall_s if wall_s > 0 else 0.0, 0.0)
    )
    return rows
