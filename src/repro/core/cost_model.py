"""Tree-separable cost functions (Definitions 4.4-4.6) and execution models.

A *tree-separable* cost function assigns a cost to a fully-fused loop nest
recursively over its peeling structure: the cost of a forest is the
``combine`` (the paper's associative operator ``⊕``) of the costs of its
trees, and the cost of a tree is ``phi`` (the paper's ``φ``) applied to the
cost of the forest obtained by peeling the tree's root.  Both Algorithm 1
(:mod:`repro.core.optimizer`) and the ground-truth evaluator
:func:`evaluate_cost` drive the same :class:`TreeSeparableCost` interface,
so the dynamic program provably optimizes exactly what the evaluator
measures.

Cost functions provided
-----------------------
:class:`MaxBufferDimCost`
    Definition 4.5 — the maximum *dimension* (number of remaining indices)
    of any intermediate buffer.
:class:`MaxBufferSizeCost`
    The variant mentioned after Definition 4.5 — maximum buffer *size*
    (product of remaining index dimensions).
:class:`CacheMissCost`
    Definition 4.6 — a simple cache model counting, for each loop, the
    number of tensors indexed by the loop index that still have more than
    ``D`` remaining indices, multiplied by the loop trip count.
:class:`ExecutionCost`
    The BLAS-aware model used by the default scheduler (Section 5/7): loops
    that can be offloaded to vectorized (BLAS-like) kernels cost a small
    per-element factor, interpreted loops cost a large per-iteration factor,
    and any intermediate buffer exceeding a configurable dimension bound
    incurs a huge penalty.  Minimizing this cost selects "the loop nest with
    the maximum number of independent dense loops with bounded buffer
    dimension", the criterion the paper's experiments use.
:class:`OperationCountCost`
    Leading-order scalar multiply-add count of the loop nest (depends on the
    contraction path and on which loops iterate sparsely).

All costs assume loop orders that respect the CSF storage-order restriction;
sparse loops iterate only over stored fibers and their trip counts are
estimated from the kernel's recorded nnz statistics.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.core.contraction_path import ContractionPath
from repro.core.expr import SpTTNKernel
from repro.core.loop_nest import LoopOrder

Positions = Tuple[int, ...]
Removed = FrozenSet[str]

#: Large-but-finite penalty used for constraint violations; kept below
#: infinity so violating nests can still be ranked among themselves.
CONSTRAINT_PENALTY = 1.0e18

#: :class:`ExecutionCost`'s per-op-class coefficients: relative magnitudes
#: of an interpreted loop iteration, a scalar multiply-add, a vectorized
#: element and a vectorized-call dispatch.  They are fixed, so a loop nest
#: is a function of the kernel's structure alone.
LOOP_OVERHEAD = 40.0
SCALAR_OP = 6.0
VECTOR_OP = 1.0
CALL_OVERHEAD = 200.0


class TreeSeparableCost(ABC):
    """Interface shared by Algorithm 1 and the ground-truth evaluator.

    Subclasses are constructed with the :class:`SpTTNKernel` so they can
    look up index dimensions, sparsity flags and nnz statistics.  All
    methods additionally receive the concrete :class:`ContractionPath`
    because the same cost object is reused across candidate paths by the
    scheduler.
    """

    def __init__(self, kernel: SpTTNKernel) -> None:
        self.kernel = kernel
        self._consumers_cache: Dict[int, Dict[int, int]] = {}

    # -- semigroup structure ------------------------------------------------
    def identity(self) -> float:
        """Identity element of ``combine`` (cost of an empty forest)."""
        return 0.0

    @abstractmethod
    def combine(self, a: float, b: float) -> float:
        """The associative operator ``⊕`` combining sibling trees."""

    @abstractmethod
    def phi(
        self,
        path: ContractionPath,
        root_index: str,
        inner_positions: Positions,
        after_positions: Positions,
        removed: Removed,
        inner_cost: float,
    ) -> float:
        """The per-loop wrapper ``φ`` applied when peeling a tree root.

        Parameters
        ----------
        path:
            The contraction path being scored.
        root_index:
            The loop index of the tree root being peeled.
        inner_positions:
            Positions (into ``path``) of the terms inside this loop.
        after_positions:
            Positions of the terms that follow this tree inside the same
            enclosing forest (needed to detect buffers passed out of the
            loop).
        removed:
            Indices of the loops enclosing this forest (already iterated).
        inner_cost:
            Cost of the forest obtained by peeling the root (computed with
            ``root_index`` added to *removed*).
        """

    def leaf(
        self,
        path: ContractionPath,
        term_position: int,
        after_positions: Positions,
        removed: Removed,
    ) -> float:
        """Cost contribution of a term whose loop indices are all exhausted."""
        return self.identity()

    # -- comparison ----------------------------------------------------------
    def is_better(self, a: float, b: float) -> bool:
        """True when cost *a* is strictly preferable to cost *b*."""
        return a < b

    def infinity(self) -> float:
        """A cost worse than any achievable one."""
        return math.inf

    # -- helpers shared by subclasses ----------------------------------------
    def consumers(self, path: ContractionPath) -> Dict[int, int]:
        key = id(path)
        if key not in self._consumers_cache:
            self._consumers_cache[key] = path.consumers()
        return self._consumers_cache[key]

    def crossing_buffers(
        self,
        path: ContractionPath,
        inner_positions: Positions,
        after_positions: Positions,
        removed: Removed,
    ) -> Sequence[Tuple[int, Tuple[str, ...]]]:
        """Buffers produced inside the loop and consumed after it.

        Returns ``(producer_position, remaining_buffer_indices)`` pairs where
        the remaining indices are the producer's output indices minus the
        already-iterated loops (*removed*), i.e. the dimensions the buffer
        must physically keep while being passed out of the loop (Eq. 5).
        """
        after = set(after_positions)
        consumers = self.consumers(path)
        out = []
        for pos in inner_positions:
            consumer = consumers.get(pos)
            if consumer is not None and consumer in after:
                kept = tuple(
                    i for i in path[pos].out_indices if i not in removed
                )
                out.append((pos, kept))
        return out

    def remaining_indices(
        self, indices: Sequence[str], removed: Removed
    ) -> Tuple[str, ...]:
        return tuple(i for i in indices if i not in removed)

    def iteration_count(
        self,
        root_index: str,
        inner_positions: Positions,
        removed: Removed,
        path: ContractionPath,
    ) -> float:
        """Estimated trip count of a loop over *root_index*.

        Dense loops iterate the full dimension.  A loop over a sparse index
        iterates only the stored fibers when the CSF descent is available at
        this point, i.e. when all preceding CSF levels have already been
        iterated; the trip count is then the average fiber length derived
        from the recorded prefix-nnz statistics.
        """
        kernel = self.kernel
        dim = float(kernel.index_dims[root_index])
        if root_index not in kernel.sparse_indices:
            return dim
        level = kernel.csf_mode_order.index(root_index)
        for prior in kernel.csf_mode_order[:level]:
            if prior not in removed:
                return dim  # descent unavailable: the loop runs densely
        upper = kernel.prefix_nnz(level + 1)
        lower = kernel.prefix_nnz(level)
        if lower <= 0:
            return dim
        return max(1.0, min(dim, upper / lower))


# --------------------------------------------------------------------------- #
# Definition 4.5: maximum buffer dimension / size
# --------------------------------------------------------------------------- #
class MaxBufferDimCost(TreeSeparableCost):
    """Maximum number of dimensions of any intermediate buffer."""

    def combine(self, a: float, b: float) -> float:
        return max(a, b)

    def phi(
        self,
        path: ContractionPath,
        root_index: str,
        inner_positions: Positions,
        after_positions: Positions,
        removed: Removed,
        inner_cost: float,
    ) -> float:
        rho = 0.0
        for _, kept in self.crossing_buffers(
            path, inner_positions, after_positions, removed
        ):
            rho = max(rho, float(len(kept)))
        return max(rho, inner_cost)

    def leaf(
        self,
        path: ContractionPath,
        term_position: int,
        after_positions: Positions,
        removed: Removed,
    ) -> float:
        # The exhausted term's buffer (if any) is a scalar here: dimension 0.
        return 0.0


class MaxBufferSizeCost(TreeSeparableCost):
    """Maximum element count of any intermediate buffer."""

    def combine(self, a: float, b: float) -> float:
        return max(a, b)

    def _size(self, indices: Sequence[str]) -> float:
        size = 1.0
        for idx in indices:
            size *= float(self.kernel.index_dims[idx])
        return size

    def phi(
        self,
        path: ContractionPath,
        root_index: str,
        inner_positions: Positions,
        after_positions: Positions,
        removed: Removed,
        inner_cost: float,
    ) -> float:
        rho = 0.0
        for _, kept in self.crossing_buffers(
            path, inner_positions, after_positions, removed
        ):
            rho = max(rho, self._size(kept))
        return max(rho, inner_cost)

    def leaf(
        self,
        path: ContractionPath,
        term_position: int,
        after_positions: Positions,
        removed: Removed,
    ) -> float:
        consumers = self.consumers(path)
        if consumers.get(term_position) in set(after_positions):
            return 1.0  # scalar buffer
        return 0.0


# --------------------------------------------------------------------------- #
# Definition 4.6: cache-miss model
# --------------------------------------------------------------------------- #
class CacheMissCost(TreeSeparableCost):
    """Total cache misses under the paper's simple cache model.

    The cache holds subtensors of size ``I^D``; a loop over index ``r``
    incurs one miss per iteration for every tensor operand (input, output or
    intermediate) that is indexed by ``r`` and still has more than ``D``
    other indices left to iterate.
    """

    def __init__(self, kernel: SpTTNKernel, cache_dims: int = 1) -> None:
        super().__init__(kernel)
        if cache_dims < 0:
            raise ValueError("cache_dims must be non-negative")
        self.cache_dims = int(cache_dims)

    def combine(self, a: float, b: float) -> float:
        return a + b

    def _tau(
        self,
        path: ContractionPath,
        root_index: str,
        inner_positions: Positions,
        removed: Removed,
    ) -> float:
        count = 0
        for pos in inner_positions:
            term = path[pos]
            for slot in (term.lhs_indices, term.rhs_indices, term.out_indices):
                remaining = self.remaining_indices(slot, removed)
                if root_index in remaining and len(remaining) > self.cache_dims:
                    count += 1
        return float(count)

    def phi(
        self,
        path: ContractionPath,
        root_index: str,
        inner_positions: Positions,
        after_positions: Positions,
        removed: Removed,
        inner_cost: float,
    ) -> float:
        trips = self.iteration_count(root_index, inner_positions, removed, path)
        tau = self._tau(path, root_index, inner_positions, removed)
        return trips * (tau + inner_cost)


# --------------------------------------------------------------------------- #
# Operation count
# --------------------------------------------------------------------------- #
class OperationCountCost(TreeSeparableCost):
    """Scalar multiply-add count of the loop nest.

    Each exhausted term contributes two operations (a multiply and an
    accumulate) at the innermost point it is reached; loops multiply the
    counts of their bodies by their trip counts.
    """

    def combine(self, a: float, b: float) -> float:
        return a + b

    def phi(
        self,
        path: ContractionPath,
        root_index: str,
        inner_positions: Positions,
        after_positions: Positions,
        removed: Removed,
        inner_cost: float,
    ) -> float:
        trips = self.iteration_count(root_index, inner_positions, removed, path)
        return trips * inner_cost

    def leaf(
        self,
        path: ContractionPath,
        term_position: int,
        after_positions: Positions,
        removed: Removed,
    ) -> float:
        return 2.0


# --------------------------------------------------------------------------- #
# BLAS-aware execution model (scheduler default)
# --------------------------------------------------------------------------- #
class ExecutionCost(TreeSeparableCost):
    """Estimated execution cost of the library's loop-nest executor.

    The executor (:mod:`repro.engine.executor`) offloads any maximal
    single-term subtree whose remaining indices are dense (optionally led by
    the final CSF level) to one vectorized NumPy call — the analogue of the
    paper's BLAS offload.  This model charges:

    * :data:`VECTOR_OP` per scalar multiply-add inside an offloaded
      subtree, plus :data:`CALL_OVERHEAD` per offloaded call;
    * :data:`LOOP_OVERHEAD` per iteration of every interpreted
      (non-offloaded) loop, plus :data:`SCALAR_OP` for each innermost
      scalar contraction that is not offloaded;
    * :data:`CONSTRAINT_PENALTY` for every intermediate buffer whose
      dimension exceeds ``buffer_dim_bound`` (set ``buffer_dim_bound=None``
      to disable the constraint).

    Minimizing this cost therefore prefers loop nests with the largest
    possible offloaded (BLAS) regions subject to a bound on intermediate
    buffer dimensionality — the selection criterion used in the paper's
    experiments.
    """

    def __init__(
        self, kernel: SpTTNKernel, buffer_dim_bound: Optional[int] = 2
    ) -> None:
        super().__init__(kernel)
        self.buffer_dim_bound = buffer_dim_bound

    def combine(self, a: float, b: float) -> float:
        return a + b

    # -- offload decision (mirrors repro.engine.executor) ---------------------
    def offloadable(
        self,
        path: ContractionPath,
        inner_positions: Positions,
        root_index: str,
        removed: Removed,
    ) -> bool:
        """Can the subtree rooted at *root_index* be one vectorized call?

        True when the loop body contains a single contraction term and every
        remaining index of that term is dense, except that the subtree may be
        led by the sparse tensor's final CSF level (a stored fiber can be
        gathered and handed to the vectorized kernel).
        """
        if len(inner_positions) != 1:
            return False
        kernel = self.kernel
        term = path[inner_positions[0]]
        remaining = self.remaining_indices(term.all_indices, removed)
        if not remaining or remaining[0] != root_index:
            return False
        sparse_remaining = [i for i in remaining if i in kernel.sparse_indices]
        if not sparse_remaining:
            return True
        if len(sparse_remaining) != 1:
            return False
        idx = sparse_remaining[0]
        if idx != root_index:
            return False
        # the single sparse index must be the deepest CSF level and the
        # descent must already be positioned just above it
        if kernel.csf_mode_order[-1] != idx:
            return False
        for prior in kernel.csf_mode_order[:-1]:
            if prior not in removed:
                return False
        return True

    def _offload_cost(
        self,
        path: ContractionPath,
        term_position: int,
        root_index: str,
        removed: Removed,
    ) -> float:
        term = path[term_position]
        remaining = self.remaining_indices(term.all_indices, removed)
        elements = 1.0
        for idx in remaining:
            elements *= self.iteration_count(idx, (term_position,), removed, path)
            removed = removed | {idx}
        return CALL_OVERHEAD + 2.0 * elements * VECTOR_OP

    def _violation_penalty(
        self,
        path: ContractionPath,
        inner_positions: Positions,
        after_positions: Positions,
        removed: Removed,
    ) -> float:
        if self.buffer_dim_bound is None:
            return 0.0
        total = 0.0
        for _, kept in self.crossing_buffers(
            path, inner_positions, after_positions, removed
        ):
            if len(kept) > self.buffer_dim_bound:
                total += CONSTRAINT_PENALTY
        return total

    def phi(
        self,
        path: ContractionPath,
        root_index: str,
        inner_positions: Positions,
        after_positions: Positions,
        removed: Removed,
        inner_cost: float,
    ) -> float:
        violation = self._violation_penalty(
            path, inner_positions, after_positions, removed
        )
        if self.offloadable(path, inner_positions, root_index, removed):
            return violation + self._offload_cost(
                path, inner_positions[0], root_index, removed
            )
        trips = self.iteration_count(root_index, inner_positions, removed, path)
        return violation + trips * (LOOP_OVERHEAD + inner_cost)

    def leaf(
        self,
        path: ContractionPath,
        term_position: int,
        after_positions: Positions,
        removed: Removed,
    ) -> float:
        return SCALAR_OP * 2.0


# --------------------------------------------------------------------------- #
# Ground-truth evaluation via peeling
# --------------------------------------------------------------------------- #
def evaluate_cost(
    kernel: SpTTNKernel,
    path: ContractionPath,
    order: LoopOrder,
    cost: TreeSeparableCost,
) -> float:
    """Evaluate a tree-separable cost on a concrete loop order.

    This walks the peeling structure directly (Definition 4.2) and therefore
    serves as the ground truth against which Algorithm 1 is verified in the
    test suite.
    """
    if len(order) != len(path):
        raise ValueError("order and path must have the same number of terms")

    def forest(
        positions: Tuple[int, ...],
        orders: Tuple[Tuple[str, ...], ...],
        removed: Removed,
    ) -> float:
        total = cost.identity()
        i = 0
        n = len(positions)
        while i < n:
            if not orders[i]:
                after = positions[i + 1 :]
                contribution = cost.leaf(path, positions[i], after, removed)
                total = cost.combine(total, contribution)
                i += 1
                continue
            root = orders[i][0]
            j = i
            while j < n and orders[j] and orders[j][0] == root:
                j += 1
            inner_positions = positions[i:j]
            after_positions = positions[j:]
            inner_cost = forest(
                inner_positions,
                tuple(o[1:] for o in orders[i:j]),
                removed | {root},
            )
            contribution = cost.phi(
                path, root, inner_positions, after_positions, removed, inner_cost
            )
            total = cost.combine(total, contribution)
            i = j
        return total

    return forest(
        tuple(range(len(path))), tuple(tuple(o) for o in order), frozenset()
    )
