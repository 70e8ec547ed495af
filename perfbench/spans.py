"""In-memory span recorder, function wrapping and the statistics helpers.

A span is one call across a layer boundary: name, start, end, parent span and
the repetition (run id) it belongs to, plus the counters recorded for that
call.  Spans stay in memory while the workload runs and are written out once
it has finished.  Nothing here imports rotorgrating: the wrappers are
installed on the already-imported modules from outside, so the program's
source is never edited.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field

# Counter bookkeeping that the wrappers do after a call returns is recorded
# under this name, so that it is subtracted from the enclosing span's self
# time instead of inflating it.
OVERHEAD = "trace.counters"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "run_id": self.run_id, "start": self.start, "end": self.end,
                "counts": self.counts}


class Recorder:
    """Collects spans of one process; single caller, so one open-span stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run_id, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order (open: {popped.name})")

    def current(self, names) -> Span | None:
        """Innermost open span whose name is in `names`."""
        for span in reversed(self._stack):
            if span.name in names:
                return span
        return None

    def wrap(self, name: str, fn, counter=None):
        """`fn` timed as span `name`; counter(span, result, args, kwargs) runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                bookkeeping = self.open(OVERHEAD)
                try:
                    counter(span, result, args, kwargs)
                finally:
                    self.close(bookkeeping)
            return result

        return traced


def replace_everywhere(original, replacement, package: str) -> int:
    """Rebind every module-level name in `package` that refers to `original`.

    `from .dynamics import kick_ensemble` copies the function into the
    importing module's namespace, so patching only the defining module would
    miss those callers.  Returns the number of names rebound.
    """
    rebound = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans}


def overhead_within(spans) -> dict[int, float]:
    """Span id -> time spent in tracing bookkeeping anywhere below it."""
    by_id = {s.id: s for s in spans}
    out = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.name != OVERHEAD:
            continue
        parent = s.parent
        while parent is not None:
            out[parent] += s.duration
            parent = by_id[parent].parent
    return out


def has_ancestor(span: Span, names, by_id: dict) -> bool:
    parent = span.parent
    while parent is not None:
        if by_id[parent].name in names:
            return True
        parent = by_id[parent].parent
    return False


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)
