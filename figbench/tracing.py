"""Span recording from outside the program.

The tracer patches the program's layer entry points (module functions and
class methods, patched where callers look the names up) with wrappers that
append one span per call: name, optional label (a format name), parent,
start and end.  Spans live in flat arrays in memory; each traced phase of a
run (set-up, cold pass, warm replay) is one root span, closed into a
:class:`SpanSet` from which self times and call counts are derived.
Nothing is added inside ``src/``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from array import array
from typing import Callable, Optional

import numpy as np

#: element-count buckets of the rounding-call histogram (upper bound, name)
SIZE_BUCKETS = ((1, "n1"), (8, "le8"), (64, "le64"), (1024, "le1024"))
OVERFLOW_BUCKET = "gt1024"
BUCKET_NAMES = tuple(name for _, name in SIZE_BUCKETS) + (OVERFLOW_BUCKET,)
#: end time of a span that has not closed yet
_OPEN = float("nan")


def size_bucket(n: int) -> str:
    """Histogram bucket of a rounding call over ``n`` elements."""
    for limit, name in SIZE_BUCKETS:
        if n <= limit:
            return name
    return OVERFLOW_BUCKET


@dataclasses.dataclass
class SpanSet:
    """The closed spans of one root, as arrays indexed by span.

    ``parent[i]`` is the index of the enclosing span (``-1`` for the
    root); ``name[i]`` and ``label[i]`` index :attr:`names` and
    :attr:`labels` (``label`` is ``-1`` where a span has none).
    """

    names: list
    labels: list
    name: np.ndarray
    label: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Per span: its duration minus the time its direct children cover.

        Children of one span never overlap (the program is single-threaded),
        so the covered time is the sum of their durations.
        """
        dur = self.duration
        nested = self.parent >= 0
        covered = np.bincount(self.parent[nested], weights=dur[nested], minlength=dur.size)
        return dur - covered

    def nesting_errors(self) -> int:
        """Number of spans that break the nesting self times rely on: left
        open, reaching outside their parent, or overlapping the previous
        span of the same parent.  Zero means the self times partition the
        root's duration."""
        unclosed = np.isnan(self.end) | (self.end < self.start)
        nested = np.flatnonzero(self.parent >= 0)
        up = self.parent[nested]
        outside = (self.start[nested] < self.start[up]) | (self.end[nested] > self.end[up])
        # spans are recorded in start order, so siblings sorted by parent
        # then index must follow one another
        order = nested[np.lexsort((nested, up))]
        same = self.parent[order[1:]] == self.parent[order[:-1]]
        overlap = same & (self.start[order[1:]] < self.end[order[:-1]])
        return int(unclosed.sum() + outside.sum() + overlap.sum())

    def totals(self) -> dict:
        """``{name: (self seconds, calls)}`` over every span name present."""
        own = self.self_time()
        seconds = np.bincount(self.name, weights=own, minlength=len(self.names))
        calls = np.bincount(self.name, minlength=len(self.names))
        return {
            name: (float(seconds[i]), int(calls[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def inclusive(self, name: str, label: Optional[str] = None) -> float:
        """Summed duration of the spans called ``name`` (and ``label``)."""
        if name not in self.names:
            return 0.0
        mask = self.name == self.names.index(name)
        if label is not None:
            if label not in self.labels:
                return 0.0
            mask &= self.label == self.labels.index(label)
        return float(self.duration[mask].sum())

    def histogram(self, prefix: str) -> dict:
        """``{(label, suffix): (calls, self seconds)}`` for spans named
        ``prefix + suffix`` (the rounding-call histogram)."""
        own = self.self_time()
        out: dict = {}
        for i, name in enumerate(self.names):
            if not name.startswith(prefix):
                continue
            for j in np.unique(self.label[self.name == i]):
                mask = (self.name == i) & (self.label == j)
                label = self.labels[j] if j >= 0 else ""
                out[(label, name[len(prefix):])] = (int(mask.sum()), float(own[mask].sum()))
        return out


class Tracer:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: list = []
        self.labels: list = []
        self._name_ids: dict = {}
        self._label_ids: dict = {}
        self._patches: list = []
        self._clear()

    def _clear(self) -> None:
        self._name = array("i")
        self._label = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def wrap(self, fn: Callable, classify: Callable) -> Callable:
        """``fn`` recording one span per call; ``classify(args, kwargs)``
        returns the span's ``(name id, label id)``."""
        clock = self._clock

        def traced(*args, **kwargs):
            nid, lid = classify(args, kwargs)
            idx = len(self._start)
            self._name.append(nid)
            self._label.append(lid)
            self._parent.append(self._stack[-1])
            self._start.append(clock())
            self._end.append(_OPEN)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._end[idx] = clock()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, factory: Callable) -> None:
        """Replace ``owner.attr`` (a module or class attribute defined on
        ``owner`` itself) with its traced twin until :meth:`uninstall`;
        ``factory(tracer)`` returns the twin's classifier."""
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r}")
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, factory(self)))

    def install(self, targets) -> None:
        """Patch every ``("module[:Class]", attribute, factory)`` target."""
        for path, attr, factory in targets:
            module_path, _, class_name = path.partition(":")
            owner = importlib.import_module(module_path)
            if class_name:
                owner = getattr(owner, class_name)
            self.patch(owner, attr, factory)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse patch order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, name: str):
        """Record one root span around the block; yields a list that holds
        the closed :class:`SpanSet` once the block exits."""
        if len(self._stack) != 1 or len(self._start):
            raise RuntimeError("a root span is already open")
        closed: list = []
        self._name.append(self.name_id(name))
        self._label.append(-1)
        self._parent.append(-1)
        self._start.append(self._clock())
        self._end.append(_OPEN)
        self._stack.append(0)
        try:
            yield closed
        finally:
            self._stack.pop()
            self._end[0] = self._clock()
            closed.append(
                SpanSet(
                    names=list(self.names),
                    labels=list(self.labels),
                    name=np.frombuffer(self._name, dtype=np.int32).astype(np.int64),
                    label=np.frombuffer(self._label, dtype=np.int32).astype(np.int64),
                    parent=np.frombuffer(self._parent, dtype=np.int32).astype(np.int64),
                    start=np.frombuffer(self._start, dtype=np.float64).copy(),
                    end=np.frombuffer(self._end, dtype=np.float64).copy(),
                )
            )
            self._clear()


def fixed(name: str):
    """Classifier factory: every call is one unlabelled span called ``name``."""

    def factory(tracer: Tracer):
        ids = (tracer.name_id(name), -1)
        return lambda args, kwargs: ids

    return factory
