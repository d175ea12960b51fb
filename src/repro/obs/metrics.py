"""Process-wide metrics registry: counters and latency histograms.

One snapshot API subsumes the stats surfaces that grew per subsystem —
:class:`~repro.serve.ServiceStats` counters are mirrored into registry
counters by the serving layer, and the cache/pool snapshot functions
(:func:`~repro.engine.plan_cache.caches_snapshot`,
:func:`~repro.runtime.pool.pool_stats`,
:func:`~repro.engine.plan_cache.plan_timings_snapshot`) register
themselves as lazy *sources* so :func:`metrics_snapshot` returns one
coherent document without this module importing any of them (no import
cycles: producers import ``repro.obs``, never the reverse).

Per-plan timings are histograms kept on each cached plan, not registry
names: the registry has no bound, the plan cache's LRU drops them.

Histograms use fixed latency buckets (seconds, log-spaced from 100 µs to
10 s) so per-stage serving latency distributions are mergeable across
snapshots and directly renderable as Prometheus classic histograms —
:func:`prometheus_text` emits the standard exposition format.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds, in seconds: log-spaced 1-2.5-5
#: decades from 100 µs to 10 s — wide enough for queue-wait through whole
#: batch executions, fine enough to separate cache hits from plan builds.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonic counter (thread-safe)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        return self._value


class Histogram:
    """Fixed-bucket latency histogram (thread-safe, cumulative snapshot).

    Observations are seconds; bucket bounds are inclusive upper limits with
    an implicit ``+Inf`` overflow bucket, matching Prometheus classic
    histogram semantics.
    """

    __slots__ = ("name", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        # the (sorted) default tuple is shared: every cached plan holds some
        self.buckets: Tuple[float, ...] = (
            DEFAULT_LATENCY_BUCKETS if buckets is None else tuple(sorted(buckets))
        )
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (seconds)."""
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe view: cumulative ``[le, count]`` pairs, sum and count."""
        with self._lock:
            counts = list(self._counts)
            total, n = self._sum, self._count
        cumulative: List[List[float]] = []
        running = 0
        for le, c in zip(self.buckets, counts):
            running += c
            cumulative.append([le, running])
        return {"buckets": cumulative, "sum": total, "count": n}


class MetricsRegistry:
    """Named metrics plus lazily evaluated snapshot sources.

    ``counter``/``histogram`` are get-or-create by name, so call
    sites never race on registration; :meth:`register_source` attaches a
    zero-argument callable whose result is embedded in snapshots under its
    name (the cache/pool/plan-timing documents).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: Dict[str, Callable[[], object]] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under *name* (created on first use)."""
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram registered under *name* (created on first use)."""
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, buckets)
        return metric

    def register_source(self, name: str, fn: Callable[[], object]) -> None:
        """Attach (or replace) a lazy snapshot source under *name*."""
        with self._lock:
            self._sources[name] = fn

    def snapshot(self, include_sources: bool = True) -> Dict[str, object]:
        """One coherent document of every metric (and, optionally, source).

        Sources that raise are reported as ``{"error": ...}`` instead of
        poisoning the whole snapshot — introspection must never take the
        service down.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            sources = dict(self._sources) if include_sources else {}
        doc: Dict[str, object] = {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(histograms.items())
            },
        }
        if include_sources:
            rendered: Dict[str, object] = {}
            for name, fn in sorted(sources.items()):
                try:
                    rendered[name] = fn()
                except Exception as exc:  # introspection must not raise
                    rendered[name] = {"error": f"{type(exc).__name__}: {exc}"}
            doc["sources"] = rendered
        return doc

    def reset(self) -> None:
        """Drop every metric (sources stay registered)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


_DEFAULT_REGISTRY = MetricsRegistry()


def inc_counter(name: str, amount: int = 1) -> None:
    """Increment a default-registry counter by *amount*."""
    (_DEFAULT_REGISTRY._counters.get(name) or _DEFAULT_REGISTRY.counter(name)).inc(amount)


def observe(name: str, seconds: float) -> None:
    """Record one latency observation into a default-registry histogram."""
    (_DEFAULT_REGISTRY._histograms.get(name) or _DEFAULT_REGISTRY.histogram(name)).observe(seconds)


def register_source(name: str, fn: Callable[[], object]) -> None:
    """Attach a lazy snapshot source to the default registry."""
    _DEFAULT_REGISTRY.register_source(name, fn)


def metrics_snapshot(include_sources: bool = True) -> Dict[str, object]:
    """Snapshot of the default registry (the ``metrics`` op's payload)."""
    return _DEFAULT_REGISTRY.snapshot(include_sources=include_sources)


def reset_metrics() -> None:
    """Drop every metric in the default registry (test isolation)."""
    _DEFAULT_REGISTRY.reset()


def _sanitize(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def prometheus_text(
    prefix: str = "repro", registry: Optional[MetricsRegistry] = None
) -> str:
    """Registry metrics (default registry) in Prometheus exposition format.

    Counters and histograms only — the lazy sources are nested
    documents and stay JSON-only.  Histogram values are seconds, so names
    gain the conventional ``_seconds`` unit suffix.
    """
    if registry is None:
        registry = _DEFAULT_REGISTRY
    doc = registry.snapshot(include_sources=False)
    lines: List[str] = []
    for name, value in doc["counters"].items():  # type: ignore[union-attr]
        metric = f"{prefix}_{_sanitize(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, hist in doc["histograms"].items():  # type: ignore[union-attr]
        metric = f"{prefix}_{_sanitize(name)}_seconds"
        lines.append(f"# TYPE {metric} histogram")
        for le, count in hist["buckets"]:
            lines.append(f'{metric}_bucket{{le="{le}"}} {count}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{metric}_sum {hist['sum']}")
        lines.append(f"{metric}_count {hist['count']}")
    return "\n".join(lines) + "\n"


__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "inc_counter",
    "metrics_snapshot",
    "observe",
    "prometheus_text",
    "register_source",
    "reset_metrics",
]
