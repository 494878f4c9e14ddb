"""Spans around the program's public functions, kept in memory.

:class:`Tracer` wraps functions and methods at the names their callers look
up: a module-level function is replaced in every loaded ``repro`` module
that binds it, a method on the class that defines it.  Each call records a
span (name, start, end, parent, thread, op index and optional counters).
Spans stay in memory; :func:`write_chrome_trace` writes them once, as
Chrome trace-event JSON that opens in Perfetto.

Garbage-collector pauses come from ``gc.callbacks`` and are kept apart
from the span tree: a pause is charged to whatever span it lands in, and
is also reported on its own.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    tid: int
    start: float
    end: float = 0.0
    op: Optional[int] = None
    pid: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.id, self.parent, self.name, self.tid, self.start,
                self.end, self.op, self.pid, self.args]

    @staticmethod
    def from_json(row: list) -> "Span":
        return Span(*row)


@dataclass(frozen=True)
class Probe:
    """How to wrap one callable.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``.  ``name``
    is the span name, or a function of the call's arguments returning it.
    ``enter`` runs before the call (its value goes to ``leave``); ``leave``
    returns extra span arguments from the result.
    """

    target: str
    name: Any
    enter: Optional[Callable] = None
    leave: Optional[Callable] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.gc_spans: List[Span] = []
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_started: Dict[int, float] = {}

    # -------------------------------------------------------------- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else None, name,
                    threading.get_ident(), time.perf_counter(), op=self.op)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def record(self, name: str, start: float, end: float, **args) -> Span:
        span = Span(next(self._ids), None, name, threading.get_ident(),
                    start, end, op=self.op, args=args)
        self.spans.append(span)
        return span

    def adopt(self, spans: List[Span], gc_spans: List[Span]) -> None:
        """Take over spans recorded elsewhere, renumbering their ids."""
        renumber = {span.id: next(self._ids) for span in spans}
        for span in spans:
            span.id = renumber[span.id]
            span.parent = renumber.get(span.parent)
        self.spans.extend(spans)
        self.gc_spans.extend(gc_spans)

    def dump(self, path: Path) -> None:
        """Write the spans for :meth:`adopt` in another process."""
        path.write_text(json.dumps({
            "spans": [span.to_json() for span in self.spans],
            "gc": [span.to_json() for span in self.gc_spans]}))

    # ----------------------------------------------------------- wrapping
    def _wrapper(self, original: Callable, probe: Probe) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = probe.name(args, kwargs) if callable(probe.name) else probe.name
            if name is None:
                return original(*args, **kwargs)
            context = probe.enter(args, kwargs) if probe.enter else None
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if probe.leave is not None:
                span.args.update(probe.leave(args, kwargs, result, context))
            return result

        traced.__perfbench_original__ = original
        return traced

    def install(self, probes: List[Probe]) -> None:
        """Wrap every probe's target; :meth:`uninstall` restores them."""
        for probe in probes:
            module_name, _, path = probe.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrapper(raw.__func__, probe))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrapper(raw.__func__, probe))
                else:
                    wrapped = self._wrapper(raw, probe)
                self.patch(owner, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrapper(original, probe)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if (namespace is None
                        or not getattr(loaded, "__name__", "").startswith("repro")):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self.patch(loaded, key, wrapped)

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ----------------------------------------------------------------- gc
    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        ident = threading.get_ident()
        if phase == "start":
            self._gc_started[ident] = now
            return
        started = self._gc_started.pop(ident, None)
        if started is not None:
            self.gc_spans.append(Span(
                0, None, "gc.collect", ident, started, now, op=self.op,
                args={"generation": info.get("generation")}))


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - covered.get(span.id, 0.0)
            for span in spans}


def write_chrome_trace(path: Path, spans: List[Span], gc_spans: List[Span],
                       metadata: Dict[str, Any]) -> None:
    """Chrome trace-event JSON (``X`` events, microseconds)."""
    origin = min((span.start for span in spans + gc_spans), default=0.0)
    events = []
    for span in spans + gc_spans:
        args = dict(span.args)
        args.update({"id": span.id, "parent": span.parent, "op": span.op})
        events.append({
            "name": span.name, "cat": span.name.split(".")[0], "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": span.pid, "tid": span.tid, "args": args})
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms",
                                "otherData": metadata}))
