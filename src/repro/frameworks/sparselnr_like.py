"""SparseLNR-style factorize-and-fuse baseline with limited fusion.

SparseLNR extends TACO with kernel distribution and fusion directives, but
the schedule is user-specified and, as reported in Sections 6-7 of the
paper, the schedules it produces for SpTTN kernels fuse far less than the
optimum:

* order-3 TTMc: the expression order is followed literally (contract the
  sparse tensor with the *first* dense operand), and only the first sparse
  index is fused across the two contractions, leaving a ``K x R``
  intermediate;
* order-4 TTMc: the first three tensors are contracted at once and only the
  first index is fused, leaving an ``L x R x S`` intermediate;
* MTTKRP: fusion fails entirely and the schedule degenerates to the
  unfactorized TACO loop nest.

This baseline reproduces that behaviour generically: it builds the
left-to-right (expression-order) contraction chain and a loop order that
shares only the first sparse index between consecutive terms, then runs it
on the loop-nest executor, the one SpTTN-Cyclops uses.  For kernels whose
optimal loop depth equals the unfactorized depth (MTTKRP-like kernels) it
falls back to the unfactorized strategy, mirroring the failed fusion.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.contraction_path import single_term_path
from repro.core.expr import SpTTNKernel
from repro.core.loop_nest import LoopNest, LoopOrder
from repro.frameworks.base import FrameworkBaseline, Output, TensorLike
from repro.frameworks.taco_like import TacoLikeBaseline


class SparseLNRLikeBaseline(FrameworkBaseline):
    """Factorize-and-fuse with only the leading sparse index fused."""

    name = "sparselnr"

    def __init__(self, counter=None) -> None:
        super().__init__(counter)
        self._last_nest: Optional[LoopNest] = None

    # ------------------------------------------------------------------ #
    def build_loop_nest(self, kernel: SpTTNKernel) -> LoopNest:
        """The limited-fusion loop nest this baseline executes."""
        # the left-to-right chain: sparse tensor with the first dense
        # operand, that result with the next, ...
        path = single_term_path(kernel)
        orders: List[Tuple[str, ...]] = []
        lead = kernel.csf_mode_order[0]
        for term in path:
            indices = term.all_indices
            sparse_rest = [
                i
                for i in kernel.csf_mode_order
                if i in set(indices) and i != lead
            ]
            dense = [i for i in indices if i not in kernel.sparse_indices]
            order: List[str] = []
            if lead in set(indices):
                order.append(lead)
            order.extend(sparse_rest)
            order.extend(dense)
            orders.append(tuple(order))
        # Ensure that only the leading index can fuse: make the second loop
        # index of consecutive terms differ whenever possible by keeping each
        # term's own (sparse-then-dense) order — fusion beyond `lead` only
        # happens if the index sets force it.
        return LoopNest(path, LoopOrder(tuple(orders)))

    # ------------------------------------------------------------------ #
    def _execute(
        self, kernel: SpTTNKernel, tensors: Mapping[str, TensorLike]
    ) -> Output:
        nest = self.build_loop_nest(kernel)
        if nest.max_loop_depth() >= len(kernel.index_names):
            # Distributing the kernel does not reduce the loop depth (the
            # MTTKRP situation the paper describes), so the tool emits the
            # default TACO schedule.
            self._last_nest = None
            return TacoLikeBaseline(self.counter)._execute(kernel, tensors)
        self._last_nest = nest
        return super()._execute(kernel, tensors)

    def metadata(self) -> Dict[str, object]:
        meta: Dict[str, object] = {"strategy": "factorize-and-fuse (lead index only)"}
        if self._last_nest is not None:
            meta["max_buffer_dimension"] = self._last_nest.max_buffer_dimension()
        else:
            meta["fallback"] = "unfactorized"
        return meta
