"""SPLATT-style specialized MTTKRP baseline.

SPLATT (Smith et al., IPDPS 2015) is a hand-tuned library for the MTTKRP
kernel over CSF tensors.  Its core loop structure for an order-3 tensor and
mode-0 MTTKRP is::

    for each fiber (i):                     # CSF level 0
        for each fiber (i, j):              # CSF level 1
            acc[:]  = sum_k T(i,j,k) * C[k, :]      # vectorized over k, R
            row[:] += B[j, :] * acc[:]              # Hadamard + accumulate
        A[i, :] += row[:]

i.e. the factorize-and-fuse schedule with the rank loop innermost.  This
baseline builds exactly that loop nest (generalized to any tensor order and
any target mode) and runs it on the loop-nest executor: one term per CSF
level, deepest level first, each contracting that level's factor under its
CSF prefix, with the rank index last.  The CSF is stored rooted at the
target mode, the layout SPLATT uses so the output row is accumulated once
per root fiber.  It is the "specialized library" reference point the paper
compares against.  Only MTTKRP kernels are supported; :meth:`supports`
returns ``False`` for anything else.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.contraction_path import (
    INTERMEDIATE_PREFIX,
    ContractionPath,
    ContractionTerm,
)
from repro.core.expr import SpTTNKernel
from repro.core.loop_nest import LoopNest, LoopOrder
from repro.frameworks.base import FrameworkBaseline, Output, TensorLike


def _match_mttkrp(kernel: SpTTNKernel) -> Optional[Dict[str, object]]:
    """Recognize an MTTKRP kernel and return its structure, else ``None``.

    MTTKRP: output ``A(i_m, r)`` where ``i_m`` is one sparse mode, with one
    dense factor ``F_n(i_n, r)`` for every other sparse mode ``i_n``, all
    sharing the same second (rank) index ``r``.
    """
    sparse = kernel.sparse_operand
    out = kernel.output
    if out.is_sparse or len(out.indices) != 2:
        return None
    target_index, rank_index = out.indices
    if target_index not in kernel.sparse_indices or rank_index in kernel.sparse_indices:
        return None
    other_modes = [i for i in sparse.indices if i != target_index]
    if len(kernel.dense_operands) != len(other_modes):
        return None
    factor_of: Dict[str, str] = {}
    for op in kernel.dense_operands:
        if len(op.indices) != 2:
            return None
        mode, rank = op.indices
        if rank != rank_index or mode not in other_modes or mode in factor_of:
            return None
        factor_of[mode] = op.name
    if set(factor_of) != set(other_modes):
        return None
    return {
        "rank_index": rank_index,
        "factor_of": factor_of,
    }


def _rooted_order(kernel: SpTTNKernel) -> Tuple[str, ...]:
    """The sparse modes with the output's (the target) mode first."""
    target = kernel.output.indices[0]
    return (target,) + tuple(i for i in kernel.sparse_operand.indices if i != target)


class SplattLikeBaseline(FrameworkBaseline):
    """Hand-fused CSF MTTKRP (any order, any mode)."""

    name = "splatt"

    def supports(self, kernel: SpTTNKernel) -> bool:
        return _match_mttkrp(kernel) is not None

    def build_loop_nest(self, kernel: SpTTNKernel) -> LoopNest:
        """The factor-per-CSF-level chain over the CSF rooted at the target.

        The levels below the root are contracted deepest first, each term
        looping over its CSF prefix and then the rank index.  The nest runs
        over *kernel* stored in that order, as :meth:`_execute` arranges.
        """
        info = _match_mttkrp(kernel)
        if info is None:
            raise NotImplementedError("SPLATT baseline only implements MTTKRP")
        rank: str = info["rank_index"]  # type: ignore[assignment]
        factor_of: Dict[str, str] = info["factor_of"]  # type: ignore[assignment]
        levels = _rooted_order(kernel)
        terms: List[ContractionTerm] = []
        orders = []
        current = (kernel.sparse_operand.name, kernel.sparse_operand.indices)
        for depth in range(len(levels) - 1, 0, -1):
            level = levels[depth]
            out = levels[:depth] + (rank,)  # (target, rank) at depth 1
            name = kernel.output.name if depth == 1 else f"{INTERMEDIATE_PREFIX}{depth}"
            terms.append(
                ContractionTerm(
                    current[0], factor_of[level], name, current[1], (level, rank), out
                )
            )
            orders.append(levels[: depth + 1] + (rank,))
            current = (name, out)
        return LoopNest(ContractionPath(tuple(terms)), LoopOrder(tuple(orders)))

    def _execute(
        self, kernel: SpTTNKernel, tensors: Mapping[str, TensorLike]
    ) -> Output:
        rooted = SpTTNKernel(
            kernel.operands, kernel.output, kernel.index_dims, _rooted_order(kernel)
        )
        return super()._execute(rooted, tensors)

    def metadata(self) -> Dict[str, object]:
        return {"strategy": "specialized CSF MTTKRP"}
