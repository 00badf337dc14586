"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: public functions of the
program are wrapped at the module attributes where their callers look them
up, so nothing inside the package changes.  Each span keeps its name, start,
end, parent span and thread.  Spans opened in a worker thread of the
program's own thread pools take as parent the span that was open on the
thread that submitted the work.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


class Recorder:
    """Spans and counters of one traced run, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Index of the innermost open span on this thread (or the inherited one)."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def open(self, name: str) -> int:
        parent = self.current()
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "thread": threading.get_ident(),
        }
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        self._stack().append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def record_max(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(value, self.maxima.get(name, value))

    def wrap(self, name: str, fn, on_result=None):
        """fn inside a span; on_result(args, kwargs, result) records counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks inherit the submitting thread's span."""
        recorder = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = recorder.current()

                def run():
                    recorder._local.inherited = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        recorder._local.inherited = None

                return super().submit(run)

        return TracedPool


class Patches:
    """Attribute and dict-entry replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def attr(self, owner, name: str, value) -> None:
        self._undo.append((setattr, owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def item(self, mapping: dict, key, value) -> None:
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self) -> None:
        while self._undo:
            restore, owner, key, old = self._undo.pop()
            restore(owner, key, old)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(spans: list[dict]) -> dict:
    """Per-name calls, total time and self time, plus nesting diagnostics.

    Self time is a span's duration minus the union of its children's
    intervals.  Children running in parallel pool threads overlap; the
    overlap is returned so that self times can be reconciled with wall time.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(index)
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    overlap = 0.0
    misnested = 0
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        kids = [(spans[c]["start"], spans[c]["end"]) for c in children[index]]
        covered = _union_length(kids)
        overlap += sum(end - start for start, end in kids) - covered
        misnested += sum(
            1 for start, end in kids if start < span["start"] or end > span["end"]
        )
        entry = by_name[span["name"]]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - covered
    return {"by_name": dict(by_name), "overlap_s": overlap, "misnested": misnested}


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one open/close pair around a trivial call."""
    recorder = Recorder()

    def noop():
        return None

    traced = recorder.wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        traced()
    wrapped = time.perf_counter() - start
    return max(wrapped - bare, 0.0) / samples
