"""Span tracing from outside the program: wrap each layer's public functions.

The benchmark never edits ``src/``. Instead a :class:`Tracer` replaces a
layer's public function (or method, or lint-rule check) with a wrapper
that opens a span around the original call, and puts the original back
when the traced region ends. A function imported under another name
(``from repro.lint.engine import static_errors``) is replaced in every
loaded ``repro`` module that holds it, so the call sites see the wrapper
wherever they look the name up.

Each span has an id, a parent id, a name, a start, an end and a request
id. The current span travels in a :class:`contextvars.ContextVar`, so it
follows asyncio tasks and :func:`asyncio.to_thread` hand-offs: every span
opened while a server request is being handled carries that request's
id. Self time (a span's duration minus the time covered by its child
spans) is accumulated when each span closes. Span records are kept in
memory, up to a cap, and written out when the run ends.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The span the running code is inside, per thread / asyncio task.
_CURRENT: contextvars.ContextVar[Optional["Frame"]] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Set while the benchmark checks outputs: wrapped calls run untraced.
_SUSPENDED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "perfbench_suspended", default=False
)

#: Span records kept in memory; later spans still count in the totals.
MAX_RECORDED_SPANS = 50_000

#: A hook run after a wrapped call returns, outside its span:
#: ``hook(tracer, args, kwargs, result)``.
ResultHook = Callable[["Tracer", tuple, dict, Any], None]


@contextmanager
def untraced() -> Iterator[None]:
    """Run the body without spans (the benchmark's own output checks)."""
    token = _SUSPENDED.set(True)
    try:
        yield
    finally:
        _SUSPENDED.reset(token)


class Frame:
    """One open span."""

    __slots__ = ("id", "parent", "name", "request_id", "start", "child_s")

    def __init__(
        self, span_id: int, parent: Optional["Frame"], name: str,
        request_id: Optional[str], start: float,
    ) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.request_id = request_id
        self.start = start
        self.child_s = 0.0


@dataclasses.dataclass
class Totals:
    """What one span name accumulated over a run."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects spans, per-name totals and named counts for one run."""

    def __init__(
        self,
        max_spans: int = MAX_RECORDED_SPANS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.max_spans = max_spans
        self._clock = clock
        #: ``(id, parent_id, name, start, end, request_id)`` per closed span.
        self.spans: List[Tuple[int, Optional[int], str, float, float, Optional[str]]] = []
        self.dropped = 0
        self.totals: Dict[str, Totals] = {}
        self.counts: Counter = Counter()
        #: Summed duration of spans without a parent.
        self.root_s = 0.0
        #: ``request_id -> (duration, time covered by child spans)`` of
        #: every span opened with an explicit request id.
        self.requests: Dict[str, Tuple[float, float]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def enter(self, name: str, request_id: Optional[str] = None) -> Tuple[Frame, Any]:
        parent = _CURRENT.get()
        if request_id is None and parent is not None:
            request_id = parent.request_id
        frame = Frame(next(self._ids), parent, name, request_id, self._clock())
        return frame, _CURRENT.set(frame)

    def exit(self, frame: Frame, token: Any, explicit_request: bool = False) -> None:
        end = self._clock()
        _CURRENT.reset(token)
        duration = end - frame.start
        with self._lock:
            totals = self.totals.get(frame.name)
            if totals is None:
                totals = self.totals[frame.name] = Totals()
            totals.calls += 1
            totals.total_s += duration
            totals.self_s += duration - frame.child_s
            if frame.parent is None:
                self.root_s += duration
            else:
                frame.parent.child_s += duration
            if explicit_request and frame.request_id is not None:
                self.requests[frame.request_id] = (duration, frame.child_s)
            if len(self.spans) < self.max_spans:
                parent_id = frame.parent.id if frame.parent is not None else None
                self.spans.append(
                    (frame.id, parent_id, frame.name, frame.start, end, frame.request_id)
                )
            else:
                self.dropped += 1

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[Frame]:
        frame, token = self.enter(name, request_id)
        try:
            yield frame
        finally:
            self.exit(frame, token, explicit_request=request_id is not None)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Optional[ResultHook] = None,
        consume: bool = False,
        request_id: Optional[Callable[[tuple], Optional[str]]] = None,
    ) -> Callable:
        """A traced stand-in for ``fn``.

        ``consume`` materializes a returned iterator inside the span
        (lint-rule checks are generators: their work happens while they
        are iterated). ``request_id`` extracts a request id from the
        call's arguments; the span then starts that request's tree.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if _SUSPENDED.get():
                    return await fn(*args, **kwargs)
                rid = request_id(args) if request_id is not None else None
                frame, token = tracer.enter(name, rid)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer.exit(frame, token, explicit_request=rid is not None)
                if on_result is not None:
                    on_result(tracer, args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if _SUSPENDED.get():
                return fn(*args, **kwargs)
            rid = request_id(args) if request_id is not None else None
            frame, token = tracer.enter(name, rid)
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                tracer.exit(frame, token, explicit_request=rid is not None)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return wrapper

    def patch_function(self, module_name: str, attr: str, name: str, **options: Any) -> None:
        """Trace ``module_name.attr`` everywhere a ``repro`` module holds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(original, name, **options)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, **options: Any) -> None:
        """Trace ``cls.attr`` (a plain method) for every instance."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **options))

    def patch_item(self, mapping: dict, key: str, value: Any) -> None:
        """Replace ``mapping[key]`` until :meth:`restore`."""
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> None:
        """Put every patched object back, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_s(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals.self_s if totals is not None else 0.0

    def total_s(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals.total_s if totals is not None else 0.0

    def calls(self, name: str) -> int:
        totals = self.totals.get(name)
        return totals.calls if totals is not None else 0

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, parent_id, name, start, end, rid in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent_id, "name": name,
                         "start": start, "end": end, "request": rid}
                    )
                    + "\n"
                )
