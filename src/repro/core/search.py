"""Parallel sweeps over the loop-nest search space (Section 4.1).

Enumeration "enables autotuning": every candidate loop nest can be scored
with the analytic cost model or simply executed and timed.  Both sweeps are
embarrassingly parallel, so this module fans them out across
``multiprocessing`` workers while keeping results **deterministic**:

* candidates are enumerated in a canonical order and tagged with their
  enumeration index;
* evaluation preserves that order (:func:`~repro.runtime.parallel_map`), so
  the result is independent of worker count and scheduling;
* the argmin uses the tie-break ``(value, index)`` — among equal-cost
  candidates the earliest enumerated one wins, guaranteeing that a parallel
  sweep returns exactly the same winner as the serial sweep.

Evaluators are small picklable callables (no closures), so they survive both
``fork`` and ``spawn`` start methods; anything that cannot be pickled makes
:func:`~repro.runtime.parallel_map` fall back to the serial path, which
produces identical results.

The pool itself lives in :mod:`repro.runtime` — a persistent process-wide
worker pool shared with the distributed runtime, defaulting its worker
count to the ``REPRO_WORKERS`` environment variable.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Set

from repro.core.contraction_path import (
    ContractionPath,
    enumerate_contraction_paths,
)
from repro.core.cost_model import ExecutionCost, TreeSeparableCost, evaluate_cost
from repro.core.enumeration import enumerate_loop_orders
from repro.core.expr import SpTTNKernel
from repro.core.loop_nest import LoopNest
from repro.obs.trace import span as _obs_span
from repro.runtime import parallel_map, resolve_workers
from repro.util.validation import require


def nests_equal(a: LoopNest, b: LoopNest) -> bool:
    """Structural identity of two loop nests (same terms, same orders)."""
    return a.order == b.order and a.path.terms == b.path.terms


# --------------------------------------------------------------------------- #
# Sweep results
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepEntry:
    """One evaluated candidate: enumeration index, loop nest and value."""

    index: int
    nest: LoopNest
    value: float


@dataclass
class SweepResult:
    """All evaluated candidates, in canonical enumeration order."""

    entries: List[SweepEntry]
    workers: int = 1

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def best(self) -> SweepEntry:
        """Deterministic argmin: lowest value, earliest enumeration index."""
        require(len(self.entries) > 0, "sweep evaluated no candidates")
        return min(self.entries, key=lambda e: (e.value, e.index))

    def sorted_entries(self) -> List[SweepEntry]:
        """Entries best-first, ties broken by enumeration index."""
        return sorted(self.entries, key=lambda e: (e.value, e.index))

    def values(self) -> List[float]:
        return [e.value for e in self.entries]

    def rank_of(self, nest: LoopNest) -> Optional[int]:
        """Position of a loop nest (by structural equality) in the ranking."""
        for rank, entry in enumerate(self.sorted_entries()):
            if nests_equal(entry.nest, nest):
                return rank
        return None


# --------------------------------------------------------------------------- #
# Picklable evaluators
# --------------------------------------------------------------------------- #
class CostModelEvaluator:
    """Scores a loop nest with a tree-separable cost (ground-truth walk).

    Picklable, so sweeps can ship it to worker processes; defaults to the
    scheduler's BLAS-aware :class:`~repro.core.cost_model.ExecutionCost`.
    """

    def __init__(
        self, kernel: SpTTNKernel, cost: Optional[TreeSeparableCost] = None
    ) -> None:
        self.kernel = kernel
        self.cost = cost if cost is not None else ExecutionCost(kernel)

    def __call__(self, nest: LoopNest) -> float:
        return evaluate_cost(self.kernel, nest.path, nest.order, self.cost)


class ExecutionRunner:
    """Picklable autotune runner: executes a kernel on fixed tensors.

    Closures over executors cannot cross process boundaries; this runner
    carries the kernel and concrete operands instead and resolves the
    executor per call through
    :func:`~repro.engine.plan_cache.cached_executor`, so repeated
    measurement of one candidate reuses one executor (and its compiled
    plan) per process.
    """

    def __init__(
        self,
        kernel: SpTTNKernel,
        tensors: Mapping[str, object],
        offload: bool = True,
        engine: Optional[str] = None,
    ) -> None:
        self.kernel = kernel
        self.tensors = dict(tensors)
        self.offload = bool(offload)
        # pinned at construction (a string survives pickling into workers)
        # so a sweep measures one engine regardless of worker environment;
        # None defers to each process's REPRO_ENGINE default
        self.engine = engine

    def __call__(self, nest: LoopNest):
        # Imported here: repro.engine depends on repro.core, not vice versa.
        from repro.engine.plan_cache import cached_executor

        executor = cached_executor(
            self.kernel, nest, offload=self.offload, engine=self.engine
        )
        return executor.execute(self.tensors)


#: Warmup tokens seen by *this* process.  A TimedRunner carries its token
#: through pickling, and every pool worker unpickles a copy of its own —
#: tracking tokens process-globally (rather than as instance state) keeps
#: the warmup at one execution per runner per process, not per copy.
_WARMED_TOKENS: Set[str] = set()

_TOKEN_COUNTER = itertools.count()


class TimedRunner:
    """Wraps a runner into ``nest -> seconds`` (min over *repeats*).

    The first call in each process performs one untimed warmup execution so
    one-time process state (memoized CSF conversion, NumPy internals) is not
    charged to whichever candidate happens to be measured first — without
    it, rankings with ``repeats=1`` would depend on measurement order and
    worker count.  The token travels through pickling, so every worker
    process warms up exactly once per runner.
    """

    def __init__(
        self,
        runner: Callable[[LoopNest], object],
        repeats: int = 1,
        warmup: bool = True,
    ) -> None:
        require(repeats >= 1, "repeats must be >= 1")
        self.runner = runner
        self.repeats = int(repeats)
        self.warmup = bool(warmup)
        self._token = f"{os.getpid()}-{next(_TOKEN_COUNTER)}"

    def __call__(self, nest: LoopNest) -> float:
        if self.warmup and self._token not in _WARMED_TOKENS:
            _WARMED_TOKENS.add(self._token)
            self.runner(nest)
        best = float("inf")
        for _ in range(self.repeats):
            start = time.perf_counter()
            self.runner(nest)
            best = min(best, time.perf_counter() - start)
        return best


# --------------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------------- #
def _sweep(
    nests: Sequence[LoopNest],
    evaluator: Callable[[LoopNest], float],
    workers: Optional[int],
) -> SweepResult:
    with _obs_span(
        "sweep",
        "scheduler",
        candidates=len(nests),
        workers=resolve_workers(workers),
    ):
        values = parallel_map(evaluator, nests, workers=workers)
    entries = [
        SweepEntry(index=i, nest=nest, value=float(value))
        for i, (nest, value) in enumerate(zip(nests, values))
    ]
    return SweepResult(entries, workers=resolve_workers(workers))


def sweep_loop_orders(
    kernel: SpTTNKernel,
    path: ContractionPath,
    cost: Optional[TreeSeparableCost] = None,
    workers: Optional[int] = None,
    enforce_csf_order: bool = True,
    limit: Optional[int] = None,
) -> SweepResult:
    """Cost-model sweep over the loop orders of one contraction path."""
    nests = [
        LoopNest(path, order)
        for order in enumerate_loop_orders(
            kernel, path, enforce_csf_order=enforce_csf_order, limit=limit
        )
    ]
    return _sweep(nests, CostModelEvaluator(kernel, cost), workers)


def sweep_loop_nests(
    kernel: SpTTNKernel,
    paths: Optional[Sequence[ContractionPath]] = None,
    cost: Optional[TreeSeparableCost] = None,
    workers: Optional[int] = None,
    enforce_csf_order: bool = True,
    limit_per_path: Optional[int] = None,
    max_paths: Optional[int] = 5000,
) -> SweepResult:
    """Cost-model sweep over the full space: contraction paths × loop orders."""
    if paths is None:
        paths = enumerate_contraction_paths(kernel, max_paths=max_paths)
    nests = [
        LoopNest(path, order)
        for path in paths
        for order in enumerate_loop_orders(
            kernel, path, enforce_csf_order=enforce_csf_order, limit=limit_per_path
        )
    ]
    return _sweep(nests, CostModelEvaluator(kernel, cost), workers)


def measure_loop_nests(
    nests: Sequence[LoopNest],
    runner: Callable[[LoopNest], object],
    repeats: int = 1,
    workers: Optional[int] = None,
) -> SweepResult:
    """Measured-time sweep over explicit candidates (autotuning backend).

    Each candidate's value is the minimum wall-clock time over *repeats*
    runs of *runner*.  With multiple workers, candidates are timed in
    separate processes; enumeration order and the ``(value, index)``
    tie-break keep ranking deterministic for deterministic runners.  Pass a
    prebuilt :class:`TimedRunner` to share its warmup across several sweeps
    (*repeats* is then ignored).
    """
    if isinstance(runner, TimedRunner):
        timed = runner
    else:
        timed = TimedRunner(runner, repeats)
    return _sweep(list(nests), timed, workers)


def best_loop_nest(
    kernel: SpTTNKernel,
    cost: Optional[TreeSeparableCost] = None,
    workers: Optional[int] = None,
    **kwargs,
) -> LoopNest:
    """Argmin of :func:`sweep_loop_nests` (brute force; small kernels only)."""
    return sweep_loop_nests(kernel, cost=cost, workers=workers, **kwargs).best.nest
