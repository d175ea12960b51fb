"""Sweeps over the loop-nest search space (Section 4.1).

Enumeration "enables autotuning": every candidate loop nest can be scored
with the analytic cost model or simply executed and timed.  This module is
the one place that does either, and both kinds of sweep return a
:class:`SweepResult` whose ranking is **deterministic**:

* candidates are evaluated in the order the caller lists them (callers build
  that list with :func:`~repro.core.enumeration.enumerate_loop_orders` or
  :func:`~repro.core.enumeration.sample_loop_orders`) and tagged with their
  index;
* the argmin uses the tie-break ``(value, index)`` — among equal values the
  earliest listed candidate wins.

Cost-model sweeps (:func:`sweep_loop_orders`, :func:`sweep_loop_nests`) may
fan out over the shared worker pool of :mod:`repro.runtime` (``workers``,
defaulting to ``REPRO_WORKERS``); :class:`CostModelEvaluator` is picklable
for that, and evaluation order is preserved, so the result is independent
of the worker count.  Measured sweeps (:func:`measure_loop_nests`) always
time in the calling process: candidates timed concurrently on shared cores
disturb each other's clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence

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
from repro.util.timing import timed
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
    """Measured-sweep runner: executes a kernel on fixed tensors.

    It carries the kernel and concrete operands and resolves the executor
    per call through :func:`~repro.engine.plan_cache.cached_executor`, so
    repeated measurement of one candidate reuses one executor (and its
    compiled plan).
    """

    def __init__(
        self,
        kernel: SpTTNKernel,
        tensors: Mapping[str, object],
        engine: Optional[str] = None,
    ) -> None:
        self.kernel = kernel
        self.tensors = dict(tensors)
        # pinned at construction so a sweep measures one engine;
        # None defers to the REPRO_ENGINE default
        self.engine = engine

    def __call__(self, nest: LoopNest):
        # Imported here: repro.engine depends on repro.core, not vice versa.
        from repro.engine.plan_cache import cached_executor

        executor = cached_executor(self.kernel, nest, engine=self.engine)
        return executor.execute(self.tensors)


class TimedRunner:
    """Wraps a runner into ``nest -> seconds`` (min over *repeats*).

    The first call performs one untimed warmup execution so one-time process
    state (memoized CSF conversion, NumPy internals) is not charged to
    whichever candidate happens to be measured first — without it, rankings
    with ``repeats=1`` would depend on measurement order.
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
        self.warmed = not warmup

    def __call__(self, nest: LoopNest) -> float:
        if not self.warmed:
            self.warmed = True
            self.runner(nest)
        return timed(self.runner, nest, repeat=self.repeats)[0]


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
) -> SweepResult:
    """Measured-time sweep over explicit candidates, in this process.

    Each candidate's value is the minimum wall-clock time over *repeats*
    runs of *runner*, after one untimed warmup run per sweep.  Pass a
    prebuilt :class:`TimedRunner` to share its warmup across several sweeps
    (*repeats* is then ignored).
    """
    if isinstance(runner, TimedRunner):
        timer = runner
    else:
        timer = TimedRunner(runner, repeats)
    return _sweep(list(nests), timer, workers=0)
