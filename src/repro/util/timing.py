"""Wall-clock timing of a callable: the measured sweeps' min-of-repeats estimator."""

from __future__ import annotations

import time
from typing import Callable, Optional


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
