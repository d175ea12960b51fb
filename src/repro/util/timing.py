"""Lightweight wall-clock timing helpers for benchmarks and measured sweeps."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Timer:
    """Accumulating named timer, safe for concurrent use from threads.

    Section accounting (``totals``/``counts`` updates) happens under a
    lock, so one :class:`Timer` can accumulate from several threads at
    once — the span tracer of :mod:`repro.obs.trace` uses a shared
    instance as its per-category accumulation primitive, and benchmark
    code keeps using private instances exactly as before.

    Example
    -------
    >>> t = Timer()
    >>> with t.section("search"):
    ...     pass
    >>> "search" in t.totals
    True
    """

    totals: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, name: str, elapsed: float) -> None:
        """Account *elapsed* seconds to section *name* (thread-safe)."""
        with self._lock:
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time one ``with`` block and account it to section *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def mean(self, name: str) -> float:
        """Mean elapsed time of a section; 0.0 if the section never ran."""
        if self.counts.get(name, 0) == 0:
            return 0.0
        return self.totals[name] / self.counts[name]

    def reset(self) -> None:
        """Drop every accumulated section (thread-safe)."""
        with self._lock:
            self.totals.clear()
            self.counts.clear()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Coherent per-section view: total seconds, calls and mean each."""
        with self._lock:
            return {
                name: {
                    "total_s": self.totals[name],
                    "calls": self.counts.get(name, 0),
                    "mean_s": (
                        self.totals[name] / self.counts[name]
                        if self.counts.get(name, 0)
                        else 0.0
                    ),
                }
                for name in self.totals
            }

    def summary(self) -> str:
        """Human-readable table of every section's total/calls/mean."""
        lines: List[str] = []
        for name, row in sorted(self.snapshot().items()):
            lines.append(
                f"{name:30s} total={row['total_s']:10.6f}s "
                f"calls={int(row['calls']):6d} mean={row['mean_s']:10.6f}s"
            )
        return "\n".join(lines)


def timed(func: Callable, *args, repeat: int = 1, **kwargs):
    """Run ``func(*args, **kwargs)`` *repeat* times, return (best_time, result).

    The result of the final invocation is returned alongside the minimum
    wall-clock time over the repeats (the standard timeit-style estimator).
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    best: Optional[float] = None
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result
