"""End-to-end schedule selection (Section 5 of the paper).

The runtime's scheduling policy is:

1. enumerate contraction paths and rank them by leading-order operation
   count (paths within :data:`FLOP_TOLERANCE` of the best estimate are
   considered "asymptotically optimal");
2. for each such path, run Algorithm 1 with the default BLAS-aware cost
   model (bounded intermediate-buffer dimension, maximal offloadable dense
   loops);
3. pick the loop nest with the overall lowest cost; if every candidate
   violates the buffer-dimension constraint, progressively consider paths
   with higher operation counts before finally relaxing the constraint.

The resulting :class:`Schedule` is what the execution engine consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.contraction_path import (
    ContractionPath,
    enumerate_contraction_paths,
    rank_contraction_paths,
)
from repro.core.cost_model import (
    CONSTRAINT_PENALTY,
    ExecutionCost,
    TreeSeparableCost,
)
from repro.core.expr import SpTTNKernel
from repro.core.loop_nest import LoopNest, LoopOrder
from repro.core.optimizer import OptimalLoopOrderSearch, SearchResult
from repro.util.validation import require

#: A contraction path is asymptotically optimal when its estimated operation
#: count is within this factor of the best path's estimate (Section 5).
FLOP_TOLERANCE = 1.5


@dataclass
class Schedule:
    """A fully specified execution plan for an SpTTN kernel."""

    kernel: SpTTNKernel
    loop_nest: LoopNest
    cost_value: float
    flop_estimate: float
    path_rank: int
    candidates_considered: int
    search_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def path(self) -> ContractionPath:
        return self.loop_nest.path

    @property
    def order(self) -> LoopOrder:
        return self.loop_nest.order

    def max_buffer_dimension(self) -> int:
        return self.loop_nest.max_buffer_dimension()

    def describe(self) -> str:
        lines = [
            f"schedule for {self.kernel!r}",
            f"  estimated flops: {self.flop_estimate:.3e}",
            f"  cost-model value: {self.cost_value:.3e}",
            f"  max buffer dimension: {self.max_buffer_dimension()}",
            f"  contraction path rank: {self.path_rank}",
        ]
        lines.append(self.loop_nest.describe(self.kernel))
        return "\n".join(lines)


class SpTTNScheduler:
    """Selects the minimum-cost loop nest for an SpTTN kernel.

    Parameters
    ----------
    kernel:
        The kernel to schedule.
    cost:
        Tree-separable cost function; defaults to
        :class:`~repro.core.cost_model.ExecutionCost` with the given buffer
        dimension bound.
    buffer_dim_bound:
        Maximum allowed intermediate-buffer dimension (the paper's
        experiments use 2).  Ignored when an explicit *cost* is passed.
    max_paths:
        Optional cap on the number of contraction paths enumerated (the
        enumeration is factorial in the number of dense operands).

    Loop orders keep the sparse indices in CSF storage order, the only
    orders :class:`~repro.engine.executor.LoopNestExecutor` runs.
    """

    def __init__(
        self,
        kernel: SpTTNKernel,
        cost: Optional[TreeSeparableCost] = None,
        buffer_dim_bound: Optional[int] = 2,
        max_paths: Optional[int] = 5000,
    ) -> None:
        self.kernel = kernel
        self.buffer_dim_bound = buffer_dim_bound
        self.cost = cost if cost is not None else ExecutionCost(
            kernel, buffer_dim_bound=buffer_dim_bound
        )
        self.max_paths = max_paths

    # ------------------------------------------------------------------ #
    def ranked_paths(self) -> List[Tuple[ContractionPath, float]]:
        """All contraction paths, best estimated operation count first."""
        paths = enumerate_contraction_paths(self.kernel, max_paths=self.max_paths)
        return rank_contraction_paths(self.kernel, paths)

    def schedule(self) -> Schedule:
        """Pick the minimum-cost loop nest for the kernel."""
        ranked = self.ranked_paths()
        require(len(ranked) > 0, "no contraction paths found")
        best_flops = ranked[0][1]
        searcher = OptimalLoopOrderSearch(self.kernel, self.cost)

        best: Optional[Schedule] = None
        feasible_found = False
        considered = 0

        def consider(path: ContractionPath, flops: float, rank: int) -> None:
            nonlocal best, feasible_found, considered
            result: SearchResult = searcher.search(path)
            considered += 1
            feasible = result.cost < CONSTRAINT_PENALTY
            candidate = Schedule(
                kernel=self.kernel,
                loop_nest=LoopNest(path, result.order),
                cost_value=result.cost,
                flop_estimate=flops,
                path_rank=rank,
                candidates_considered=considered,
                search_stats=result.stats.as_dict(),
            )
            if best is None:
                best = candidate
                feasible_found = feasible
                return
            if feasible and not feasible_found:
                best = candidate
                feasible_found = True
                return
            if feasible == feasible_found and self.cost.is_better(
                result.cost, best.cost_value
            ):
                best = candidate

        # Pass 1: asymptotically optimal paths only.
        optimal_band = [
            (rank, path, flops)
            for rank, (path, flops) in enumerate(ranked)
            if flops <= best_flops * FLOP_TOLERANCE
        ]
        for rank, path, flops in optimal_band:
            consider(path, flops, rank)
        if best is not None and feasible_found:
            best.candidates_considered = considered
            return best

        # Pass 2: the constraint could not be met at optimal asymptotic cost;
        # sweep the remaining paths in cost order until a feasible nest is
        # found (Section 5: "iterates over the contraction paths with
        # suboptimal asymptotic complexity until it finds a loop nest that
        # adheres to the constraints").
        for rank, (path, flops) in enumerate(ranked):
            if flops <= best_flops * FLOP_TOLERANCE:
                continue  # already considered
            consider(path, flops, rank)
            if feasible_found:
                break

        require(best is not None, "scheduler failed to produce any schedule")
        best.candidates_considered = considered
        return best
