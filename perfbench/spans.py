"""Layer spans recorded from outside the program.

The benchmark times a layer by replacing the layer's public entry points
with timing wrappers, installed as attributes of the classes that define
them (see :class:`Patcher`).  Nothing in the library changes: the
wrappers are installed before the engine forks its workers, so worker
processes inherit them, and are removed afterwards.

Every wrapped call becomes a span ``(id, name, start, end, parent,
cell)`` kept in memory by the process that made it.  A worker process
writes its spans to the trace directory whenever its span stack empties
(multiprocessing pools terminate their workers without warning, so
waiting for the end would lose them); the driving process writes its own
when the workload ends.  :func:`self_times` then charges each span its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: One span: (span id, layer name, start, end, parent span id, cell).  The
#: parent is -1 for a top-level span; the cell is ``"<pid>:<n>"`` for the
#: n-th simulation a process ran, or ``""`` outside any simulation.
Span = Tuple[int, str, float, float, int, str]


class Recorder:
    """Per-process span buffer, open-span stack and exact counters."""

    def __init__(self, out_dir: Optional[Path] = None) -> None:
        self.out_dir = out_dir
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Largest value seen per gauge (e.g. RSS growth of one cell).
        self.gauges: Dict[str, float] = {}
        self.stack: List[Tuple[int, str]] = []
        self.next_id = 0
        self.cell = ""
        self.cells_run = 0
        #: The process that created the recorder; any other is a worker.
        self.owner_pid = os.getpid()

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> Tuple[int, int, float]:
        """Start a span; returns the token :meth:`close` needs."""
        parent = self.stack[-1][0] if self.stack else -1
        span_id = self.next_id
        self.next_id += 1
        self.stack.append((span_id, name))
        return span_id, parent, perf_counter()

    def close(self, name: str, token: Tuple[int, int, float]) -> None:
        """End the span *token* opened."""
        end = perf_counter()
        span_id, parent, start = token
        self.stack.pop()
        self.spans.append((span_id, name, start, end, parent, self.cell))

    def settle(self) -> None:
        """Flush once a worker's outermost span has ended and been counted."""
        if not self.stack and self.out_dir is not None and self.is_worker():
            self.flush()

    def depth(self, name: str) -> int:
        """How many spans named *name* are open (re-entrancy guard)."""
        return sum(1 for _, open_name in self.stack if open_name == name)

    def gauge_max(self, name: str, value: float) -> None:
        """Keep the largest *value* seen for gauge *name*."""
        self.gauges[name] = max(self.gauges.get(name, value), value)

    # -- processes ------------------------------------------------------
    def is_worker(self) -> bool:
        return os.getpid() != self.owner_pid

    def reset_in_child(self) -> None:
        """Forget what the parent had recorded (called after ``fork``)."""
        self.spans = []
        self.counts = Counter()
        self.gauges = {}
        self.stack = []
        self.cell = ""
        self.cells_run = 0

    def flush(self) -> None:
        """Append this process's spans and counters to its trace file."""
        if self.out_dir is None or not (self.spans or self.counts or self.gauges):
            return
        path = self.out_dir / f"spans-{os.getpid()}.pkl"
        with open(path, "ab") as handle:
            pickle.dump((self.spans, dict(self.counts), dict(self.gauges)), handle)
        self.spans = []
        self.counts = Counter()
        self.gauges = {}


def load_trace_dir(out_dir: Path) -> Tuple[List[Tuple[int, Span]], Counter, Dict[str, float]]:
    """Read every process's trace file: ``(pid, span)`` pairs, counts, gauges.

    Only files this benchmark wrote in its own trace directory are read.
    """
    spans: List[Tuple[int, Span]] = []
    counts: Counter = Counter()
    gauges: Dict[str, float] = {}
    for path in sorted(out_dir.glob("spans-*.pkl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path, "rb") as handle:
            while True:
                try:
                    chunk_spans, chunk_counts, chunk_gauges = pickle.load(handle)
                except EOFError:
                    break
                spans.extend((pid, span) for span in chunk_spans)
                counts.update(chunk_counts)
                for name, value in chunk_gauges.items():
                    gauges[name] = max(gauges.get(name, value), value)
    return spans, counts, gauges


def self_times(spans: Iterable[Tuple[int, Span]]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the durations of its direct
    children.  Spans of one process nest strictly (they are opened and
    closed on one stack), so direct children never overlap and their
    durations sum to exactly the part of the parent they cover.  A span
    nested in another of the same name (re-entrant call) is a child like
    any other, so the name's total is never counted twice.
    """
    spans = list(spans)
    child_time: Dict[Tuple[int, int], float] = {}
    for pid, (span_id, name, start, end, parent, cell) in spans:
        if parent >= 0:
            key = (pid, parent)
            child_time[key] = child_time.get(key, 0.0) + (end - start)
    totals: Dict[str, float] = {}
    for pid, (span_id, name, start, end, parent, cell) in spans:
        own = (end - start) - child_time.get((pid, span_id), 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def percentile(samples: Sequence[float], q: float, min_beyond: int = 10) -> Optional[float]:
    """The *q* quantile (0 < q < 1) of *samples*, or ``None`` if unsupported.

    A percentile is reported only when at least *min_beyond* samples lie
    beyond it, i.e. ``len(samples) * (1 - q) >= min_beyond``; otherwise
    the tail it claims to describe is a handful of values.  The value is
    the nearest-rank quantile of the sorted samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    n = len(samples)
    if n == 0 or n * (1.0 - q) < min_beyond:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * n - 1e-9))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    """The median of a non-empty sample (mean of the middle pair)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
Observer = Callable[[Recorder, tuple, object], None]

#: Span name of the benchmark's own counting work (part of the overhead).
OBSERVER_SPAN = "perfbench.observe"


def timed(recorder: Recorder, name: str, fn: Callable, observe: Optional[Observer] = None,
          calls: Optional[str] = None, observe_in_span: bool = False) -> Callable:
    """Wrap *fn* so each call is a span named *name*.

    *calls* names the counter bumped once per outermost call; *observe*
    sees ``(recorder, args, return value)`` of every outermost call so it
    can count what the call produced.  An observer that does real work
    (``observe_in_span``) runs inside a span of its own, so its time is
    not charged to the self time of whatever layer called *fn*.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outermost = recorder.depth(name) == 0
        token = recorder.open(name)
        try:
            value = fn(*args, **kwargs)
        finally:
            recorder.close(name, token)
        if outermost:
            if calls is not None:
                recorder.counts[calls] += 1
            if observe is not None and observe_in_span:
                observing = recorder.open(OBSERVER_SPAN)
                try:
                    observe(recorder, args, value)
                finally:
                    recorder.close(OBSERVER_SPAN, observing)
            elif observe is not None:
                observe(recorder, args, value)
        recorder.settle()
        return value

    return wrapper


class _TimedIterator:
    """Iterator whose every ``next`` is a span; counts items produced."""

    __slots__ = ("_inner", "_recorder", "_name", "_yielded")

    def __init__(self, inner: Iterator, recorder: Recorder, name: str, yielded: Optional[str]):
        self._inner = inner
        self._recorder = recorder
        self._name = name
        self._yielded = yielded

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        recorder = self._recorder
        token = recorder.open(self._name)
        try:
            item = next(self._inner)
        finally:
            recorder.close(self._name, token)
            recorder.settle()
        if self._yielded is not None:
            recorder.counts[self._yielded] += 1
        return item


def timed_generator(recorder: Recorder, name: str, fn: Callable, calls: str,
                    yielded: Optional[str] = None) -> Callable:
    """Wrap a function returning an iterator: the call and every ``next``
    are spans named *name*.

    A generator does its work lazily, so timing only the call that creates
    it would time nothing; each step the consumer pulls is timed as well.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = recorder.open(name)
        try:
            inner = iter(fn(*args, **kwargs))
        finally:
            recorder.close(name, token)
        recorder.counts[calls] += 1
        recorder.settle()
        return _TimedIterator(inner, recorder, name, yielded)

    return wrapper


@dataclass
class Patch:
    """One attribute replaced on one class, with what to put back."""

    owner: type
    attribute: str
    original: object


class Patcher:
    """Replaces class attributes and restores every one of them."""

    def __init__(self) -> None:
        self.patches: List[Patch] = []

    def replace(self, owner: type, attribute: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attribute`` to ``make(function)``.

        Only attributes *owner* defines itself are patched, so a subclass
        that inherits a method is covered by the patch on its base, and
        restoring puts back exactly what was in the class dictionary.
        Class methods stay class methods.
        """
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            replacement: object = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self.patches.append(Patch(owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Put back every replaced attribute, newest first."""
        while self.patches:
            patch = self.patches.pop()
            setattr(patch.owner, patch.attribute, patch.original)


def defining_classes(base: type, attribute: str, exclude: Sequence[type] = ()) -> List[type]:
    """*base* and its subclasses that define *attribute* themselves.

    Subclasses of any class in *exclude* (and those classes) are skipped.
    """
    found: List[type] = []
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if exclude and issubclass(cls, tuple(exclude)):
            continue
        if attribute in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))
