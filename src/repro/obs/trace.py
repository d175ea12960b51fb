"""Low-overhead span tracer for the whole execution stack.

The tracer records *spans* — named wall-clock intervals with a category,
free-form attributes and process/thread identity — from every layer of the
reproduction: scheduler sweeps, plan-cache builds, compiled-tier runs, worker
pool dispatch, shared-memory broadcasts and the serving path.  Three design
points keep it cheap enough to leave compiled into the hot paths:

* **no-op when disabled** — :func:`span` returns a shared null context
  manager when tracing is off (one attribute check, no allocation beyond
  the caller's ``attrs`` dict), so the untraced hot path pays nanoseconds
  per instrumentation site.  Tracing is enabled by the ``REPRO_TRACE``
  environment variable or programmatically via :func:`enable_tracing`.
* **contextvar scoping** — the current span is tracked in a
  :class:`~contextvars.ContextVar`, so nesting is correct across
  ``asyncio`` tasks and threads without any global stack.
* **sink capture for pool workers** — :func:`capture_spans` redirects
  finished spans into a caller-held list instead of the process buffer.
  :class:`~repro.runtime.pool.WorkerPool` wraps tasks with it so spans
  recorded *inside a worker process* ship back with the task result and
  are merged into the parent's buffer (:func:`add_spans`), keeping their
  worker ``pid``/``tid`` identity for the trace timeline.

Finished spans land in a bounded process-wide buffer, drained by
:func:`drain_spans` and exported by :mod:`repro.obs.export`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.util.config import setting

#: Offset converting ``time.perf_counter()`` readings to epoch seconds, so
#: spans from different processes (pool workers fork after import) align on
#: one wall-clock timeline.
_EPOCH_OFFSET = time.time() - time.perf_counter()

#: Span id of the innermost open span in this context (None at top level).
_CURRENT: "ContextVar[Optional[int]]" = ContextVar("repro_trace_current", default=None)

#: Active capture sink: when set, finished spans go to this list instead of
#: the process buffer (worker-side task capture).
_SINK: "ContextVar[Optional[List['Span']]]" = ContextVar(
    "repro_trace_sink", default=None
)


@dataclass
class Span:
    """One finished span: a named interval with identity and attributes.

    Plain picklable data — worker processes return lists of these alongside
    task results.  ``start_s`` is epoch-aligned (seconds); ``duration_s``
    is the wall-clock extent.  ``parent_id`` refers to the enclosing span
    *within the same process* (ids are per-process counters).
    """

    name: str
    category: str
    start_s: float
    duration_s: float
    pid: int
    tid: int
    span_id: int
    parent_id: Optional[int]
    attrs: Dict[str, object] = field(default_factory=dict)


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "_name", "_category", "_attrs", "_start", "_id", "_token")

    def __init__(
        self, tracer: "Tracer", name: str, category: str, attrs: Dict[str, object]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attrs = attrs

    def __enter__(self) -> "_SpanContext":
        self._id = next(self._tracer._ids)
        self._token = _CURRENT.set(self._id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        token = self._token
        parent = token.old_value
        if parent is Token.MISSING:
            parent = None
        _CURRENT.reset(token)
        self._tracer._finish(
            Span(
                name=self._name,
                category=self._category,
                start_s=self._start + _EPOCH_OFFSET,
                duration_s=end - self._start,
                pid=os.getpid(),
                tid=threading.get_ident(),
                span_id=self._id,
                parent_id=parent,
                attrs=self._attrs,
            )
        )
        return False


class Tracer:
    """Process-wide span recorder with a bounded buffer.

    Most code uses the module-level default instance through :func:`span`
    and friends; private instances exist for isolation in tests.
    """

    def __init__(self, enabled: bool = False, max_spans: int = 100_000) -> None:
        self.enabled = bool(enabled)
        self.max_spans = int(max_spans)
        self.dropped = 0
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def span(self, name: str, category: str = "app", **attrs) -> object:
        """Context manager timing one block (no-op while disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name, category, attrs)

    def _finish(self, span: Span) -> None:
        sink = _SINK.get()
        if sink is not None:
            sink.append(span)
            return
        with self._lock:
            if len(self._spans) < self.max_spans:
                self._spans.append(span)
            else:
                self.dropped += 1

    def add_spans(self, spans: Sequence[Span]) -> None:
        """Merge externally recorded spans (pool workers) into the buffer."""
        sink = _SINK.get()
        if sink is not None:
            sink.extend(spans)
            return
        with self._lock:
            room = self.max_spans - len(self._spans)
            self._spans.extend(spans[:room])
            self.dropped += max(0, len(spans) - room)

    def drain(self) -> List[Span]:
        """Return and clear every buffered span."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    def reset(self) -> None:
        """Drop buffered spans and the dropped counter."""
        with self._lock:
            self._spans.clear()
            self.dropped = 0


_DEFAULT_TRACER = Tracer(enabled=setting("REPRO_TRACE"))


def default_tracer() -> Tracer:
    """The process-wide tracer every instrumentation site records into."""
    return _DEFAULT_TRACER


def tracing_enabled() -> bool:
    """Whether the default tracer is currently recording."""
    return _DEFAULT_TRACER.enabled


def span(name: str, category: str = "app", **attrs) -> object:
    """Record one span on the default tracer (no-op while disabled).

    Examples
    --------
    >>> with span("sweep", "scheduler", candidates=12):
    ...     pass
    """
    # checked here first: every served request opens several while tracing is off
    return _DEFAULT_TRACER.span(name, category, **attrs) if _DEFAULT_TRACER.enabled else _NULL_SPAN


def enable_tracing() -> None:
    """Turn the default tracer on (and export ``REPRO_TRACE`` to children).

    Setting the environment variable means worker processes forked or
    spawned *after* this call start with tracing enabled, so their spans
    reach the parent even when the parent enabled tracing programmatically
    (the ``--trace`` CLI paths).
    """
    _DEFAULT_TRACER.enabled = True
    os.environ["REPRO_TRACE"] = "1"


def disable_tracing() -> None:
    """Turn the default tracer off (and stop exporting it to children)."""
    _DEFAULT_TRACER.enabled = False
    os.environ.pop("REPRO_TRACE", None)


def drain_spans() -> List[Span]:
    """Return and clear the default tracer's buffered spans."""
    return _DEFAULT_TRACER.drain()


def add_spans(spans: Sequence[Span]) -> None:
    """Merge externally recorded spans into the default tracer."""
    if spans:
        _DEFAULT_TRACER.add_spans(list(spans))


@contextmanager
def capture_spans(force: bool = False) -> Iterator[List[Span]]:
    """Redirect spans finished in this context into the yielded list.

    With ``force=True`` the default tracer is additionally enabled for the
    duration — the worker-side task wrapper uses this so a pool process
    records spans regardless of when it was forked relative to
    :func:`enable_tracing` in the parent.
    """
    tracer = _DEFAULT_TRACER
    spans: List[Span] = []
    token = _SINK.set(spans)
    was_enabled = tracer.enabled
    if force:
        tracer.enabled = True
    try:
        yield spans
    finally:
        if force:
            tracer.enabled = was_enabled
        _SINK.reset(token)


__all__ = [
    "Span",
    "Tracer",
    "add_spans",
    "capture_spans",
    "default_tracer",
    "disable_tracing",
    "drain_spans",
    "enable_tracing",
    "span",
    "tracing_enabled",
]
