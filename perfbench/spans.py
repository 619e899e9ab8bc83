"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: name, start, end, parent span and
request id, plus a few attributes (byte or candidate counts).  Spans are
recorded by wrapping a layer's public functions from outside
(:meth:`SpanRecorder.wrap`), kept in memory, and written as JSON lines
when the process is done (:meth:`SpanRecorder.dump`), so recording costs
no I/O inside the measured window.

Times come from ``time.monotonic`` — ``CLOCK_MONOTONIC`` on Linux, which
every process on the host shares — so spans written by server processes
line up with the benchmark's own window.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One recorded call.  ``id``/``parent`` are unique across processes."""

    id: str
    name: str
    start: float
    end: float
    parent: "str | None"
    request: "str | None"
    attrs: "dict[str, object]" = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Record nested spans per thread; wrap functions to emit them."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self.spans: "list[Span]" = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self) -> "list[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: "str | None") -> None:
        """Tag spans opened later on this thread with ``request``."""
        self._local.request = request

    @contextmanager
    def span(self, name: str, **attrs: object):
        """Time the body as one span; yields the span so callers can add attrs."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(
            id=f"{self._pid}-{next(self._ids)}",
            name=name,
            start=self.clock(),
            end=0.0,
            parent=parent.id if parent else None,
            request=getattr(self._local, "request", None),
            attrs=dict(attrs),
        )
        stack.append(record)
        try:
            yield record
        except BaseException:
            record.attrs["error"] = True
            raise
        finally:
            record.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def traced(self, func, name: str, before=None, after=None):
        """``func`` wrapped to record span ``name`` on every call.

        ``before(args, kwargs)`` runs ahead of the call; its value is
        passed on as ``after(args, kwargs, result, state)``, which returns
        attributes for the span.
        """
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            with recorder.span(name) as record:
                result = func(*args, **kwargs)
                if after is not None:
                    record.attrs.update(after(args, kwargs, result, state))
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by its :meth:`traced` version.

        ``owner`` is a module or a class; class-, static- and plain
        methods are all handled.
        """
        raw = vars(owner).get(attr, None)
        if raw is None:
            raw = getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(self.traced(raw.__func__, name, before, after)))
        else:
            setattr(owner, attr, self.traced(raw, name, before, after))

    def dump(self, path: "str | Path") -> Path:
        """Write every recorded span to ``path`` as JSON lines."""
        path = Path(path)
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            for record in spans:
                out.write(json.dumps(asdict(record)) + "\n")
        return path


def load_spans(paths) -> "list[Span]":
    """Read spans written by :meth:`SpanRecorder.dump` from many files."""
    spans: "list[Span]" = []
    for path in paths:
        with open(path, encoding="utf-8") as source:
            spans.extend(Span(**json.loads(line)) for line in source if line.strip())
    return spans


def covered_time(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    covered = 0.0
    current_lo = current_hi = None
    for lo, hi in clipped:
        if current_hi is None or lo > current_hi:
            if current_hi is not None:
                covered += current_hi - current_lo
            current_lo, current_hi = lo, hi
        else:
            current_hi = max(current_hi, hi)
    if current_hi is not None:
        covered += current_hi - current_lo
    return covered


def self_times(spans: "list[Span]") -> "dict[str, float]":
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap each other (a span's work fanned out over
    threads); the union of their intervals is subtracted, so overlapping
    children are not counted twice.
    """
    children: "dict[str, list[tuple[float, float]]]" = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append((record.start, record.end))
    return {
        record.id: record.duration
        - covered_time(record.start, record.end, children.get(record.id, ()))
        for record in spans
    }
