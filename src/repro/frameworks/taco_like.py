"""TACO/COMET-style *unfactorized* baseline (Section 2.4.1).

The default schedule generated by compiler frameworks such as TACO iterates
every unique index of the kernel in one loop nest and multiplies all input
tensors together in the innermost loop.  No intermediate tensors are formed,
but no partial products are reused either, so the operation count carries the
full product of all dense dimensions for every stored nonzero — e.g.
``3 nnz(T) * R`` for MTTKRP and ``3 nnz(T) * R * S`` for order-3 TTMc, versus
the factorized ``2 nnz_{IJK} R + 2 nnz_{IJ} R`` and ``2 nnz_{IJK} S +
2 nnz_{IJ} S R``.  The counter charges a multiply-add for each operand
product, so it records ``4 nnz(T) * R`` and ``4 nnz(T) * R * S``.

The implementation streams over the stored nonzeros (the sparse loops) and
evaluates the all-operand product over the dense indices with one vectorized
``einsum`` per nonzero.  It is the one baseline that keeps a private
interpreter: the loop-nest executor's terms are binary, so a chain of them
hoists each loop-invariant partial product out of the inner loops and no
longer pays the unfactorized count.  Run as such a chain (every term under
all sparse loops), E10's order-3 TTMc does 1 632 000 scalar operations
instead of 3 072 000, and the test suite's TTMc fixture 4 656, under 1.5x the
fused schedule's 4 370.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.expr import SpTTNKernel
from repro.frameworks.base import FrameworkBaseline, Output, TensorLike


class TacoLikeBaseline(FrameworkBaseline):
    """Unfactorized execution of an SpTTN kernel."""

    name = "taco-unfactorized"

    def _execute(
        self, kernel: SpTTNKernel, tensors: Mapping[str, TensorLike]
    ) -> Output:
        coo = self.as_coo(tensors[kernel.sparse_operand.name])
        dense: Dict[str, np.ndarray] = {
            op.name: self.as_array(tensors[op.name]) for op in kernel.dense_operands
        }
        sparse_indices = kernel.sparse_operand.indices
        mode_of = {name: pos for pos, name in enumerate(sparse_indices)}

        # einsum over the *dense* indices only; sparse indices are bound per
        # nonzero.  Build, per dense operand, the slicing recipe (which axes
        # are bound to sparse index values) and its free subscripts.
        letters = {}
        alphabet = "abcdefghijklmnopqrstuvwxyz"

        def letter(idx: str) -> str:
            if idx not in letters:
                letters[idx] = alphabet[len(letters)]
            return letters[idx]

        operand_plans: List[Tuple[str, Tuple[str, ...], str]] = []
        for op in kernel.dense_operands:
            free = tuple(i for i in op.indices if i not in kernel.sparse_indices)
            operand_plans.append((op.name, op.indices, "".join(letter(i) for i in free)))

        out_is_sparse = kernel.output.is_sparse
        out_dense_free = tuple(
            i for i in kernel.output.indices if i not in kernel.sparse_indices
        )
        out_subs = "".join(letter(i) for i in out_dense_free)
        spec = ",".join(p[2] for p in operand_plans) + "->" + out_subs

        if out_is_sparse:
            out_values = np.zeros(coo.nnz, dtype=np.float64)
            output: Output = coo.with_values(out_values)
        else:
            shape = tuple(kernel.index_dims[i] for i in kernel.output.indices)
            out_array = np.zeros(shape if shape else (), dtype=np.float64)

        dense_space = 1
        for i in set().union(*[set(p[1]) for p in operand_plans]) if operand_plans else set():
            if i not in kernel.sparse_indices:
                dense_space *= kernel.index_dims[i]

        for row in range(coo.nnz):
            coords = coo.indices[row]
            value = coo.values[row]
            views = []
            for name, op_indices, _ in operand_plans:
                arr = dense[name]
                key = tuple(
                    int(coords[mode_of[i]]) if i in kernel.sparse_indices else slice(None)
                    for i in op_indices
                )
                views.append(arr[key])
            if views:
                product = np.einsum(spec, *views) * value
            else:
                product = value
            self.counter.add_flops(2 * max(1, dense_space) * max(1, len(operand_plans)))
            if out_is_sparse:
                out_values[row] += float(product)
            else:
                key = tuple(
                    int(coords[mode_of[i]]) if i in kernel.sparse_indices else slice(None)
                    for i in kernel.output.indices
                )
                target = out_array[key]
                if np.ndim(target) == 0:
                    out_array[key] += product
                else:
                    target += product

        if out_is_sparse:
            return coo.with_values(out_values)
        return out_array

    def metadata(self) -> Dict[str, object]:
        return {"strategy": "unfactorized"}
