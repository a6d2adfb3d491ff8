"""Spans recorded around hoot's public functions, and the arithmetic on them.

A traced run replaces a public function at every module attribute that
holds it (``hoot.wire.parse``, ``hoot.feed.seal``, ``Feed.post`` ...) with
a wrapper that only records: it passes the arguments through untouched,
returns the wrapped function's result object and re-raises its exception.
Spans are kept in memory and written once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    note: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans. A span's parent is the innermost open span of its
    thread; a worker thread with no open span adopts the innermost open
    span of the thread that created the tracer, which is the coordinator
    waiting on it (``find_tag_sharded`` waiting on its shards)."""

    def __init__(self, run: str = ""):
        self.run = run
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._owner_stack: list[int] = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, note=None):
        """Return a recording wrapper around ``fn``.

        ``note(args, kwargs, result, exc)`` may label the span from the
        outcome, e.g. hit or miss; it must not modify what it is given.
        """

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            stack.append(span_id)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                label = note(args, kwargs, result, exc) if note is not None else None
                with self._lock:
                    self.spans.append(Span(span_id, name, start, end, parent, self.run, label))

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, package: str, fn, name: str, note=None) -> None:
        """Wrap ``fn`` at every attribute of ``package``'s modules that holds it."""
        wrapper = self.wrap(name, fn, note)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == package or module_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str, note=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, note))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                record = {
                    "id": span.id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "run": span.run,
                    "note": span.note,
                }
                handle.write(json.dumps(record, default=str) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap (shards run in parallel), so the covered part is
    the length of the union of the children's intervals, clipped to the
    parent's interval.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


class Tally:
    """Attempted and failed operations, as judged by the benchmark's checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
