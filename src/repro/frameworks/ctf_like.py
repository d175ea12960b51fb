"""CTF-style *pairwise* contraction baseline (Section 2.4.2).

The Cyclops Tensor Framework contracts a tensor network as a sequence of
pairwise contractions, fully materializing every intermediate.  For SpTTN
kernels this keeps the asymptotic operation count low but requires storing
intermediates whose index sets include sparse-tensor modes — for large mode
sizes those intermediates dominate memory and often cannot be allocated at
all (the paper reports CTF running out of memory on enron/nell-2 TTMc).

Each term of the minimum-flop contraction path is executed independently:

* a term that reads the sparse tensor runs as a one-term kernel on the
  loop-nest executor (its subscripts parsed with
  :func:`~repro.core.expr.parse_kernel`, its loops in the default CSF-then-
  dense order, so there is no search), scattering into a dense intermediate
  of the term's full output shape;
* dense × dense terms are a single ``einsum`` over the full index space of
  the pair.  That materialization is CTF's defining cost, and no loop nest
  expresses it: every loop over a sparse index descends the CSF.  Run as
  one nest, the same path on Fig. 8c's TTTP (40³, 2 500 nnz, R = 32) does
  the fused schedule's 246 344 scalar operations instead of 4 203 400, and
  is no longer the CTF strategy.

``memory_limit_elements`` bounds the largest intermediate; exceeding it
raises :class:`IntermediateMemoryError`, which the benchmark harness reports
as an out-of-memory row, mirroring the paper's tables.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.core.contraction_path import (
    ContractionTerm,
    rank_contraction_paths,
    single_term_path,
)
from repro.core.expr import SpTTNKernel, parse_kernel
from repro.core.loop_nest import LoopNest, default_loop_order
from repro.engine.executor import LoopNestExecutor
from repro.frameworks.base import FrameworkBaseline, Output, TensorLike

_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class IntermediateMemoryError(MemoryError):
    """Raised when a pairwise intermediate exceeds the configured memory limit."""


def _subscripts(term: ContractionTerm) -> str:
    """*term* as an einsum spec, one letter per index."""
    letter = {idx: _ALPHABET[n] for n, idx in enumerate(term.all_indices)}
    lhs, rhs, out = (
        "".join(map(letter.__getitem__, ix))
        for ix in (term.lhs_indices, term.rhs_indices, term.out_indices)
    )
    return f"{lhs},{rhs}->{out}"


class CTFLikeBaseline(FrameworkBaseline):
    """Pairwise contraction with materialized dense intermediates."""

    name = "ctf-pairwise"

    def __init__(self, counter=None, memory_limit_elements: int = 200_000_000) -> None:
        super().__init__(counter)
        self.memory_limit_elements = int(memory_limit_elements)
        self._max_intermediate = 0

    # ------------------------------------------------------------------ #
    def _execute(
        self, kernel: SpTTNKernel, tensors: Mapping[str, TensorLike]
    ) -> Output:
        path = rank_contraction_paths(kernel)[0][0]
        sparse_name = kernel.sparse_operand.name
        env: Dict[str, TensorLike] = {sparse_name: tensors[sparse_name]}
        for op in kernel.dense_operands:
            env[op.name] = self.as_array(tensors[op.name])
        self._max_intermediate = 0

        for term in path:
            out_sparse = term.out == kernel.output.name and kernel.output.is_sparse
            if not out_sparse:
                out_size = int(np.prod([kernel.index_dims[i] for i in term.out_indices]))
                if out_size > self.memory_limit_elements:
                    raise IntermediateMemoryError(
                        f"pairwise intermediate {term.out!r} needs {out_size} elements, "
                        f"limit is {self.memory_limit_elements}"
                    )
                self._max_intermediate = max(self._max_intermediate, out_size)
            if sparse_name in (term.lhs, term.rhs):
                env[term.out] = self._sparse_pair(env, term, out_sparse)
            else:
                env[term.out] = self._dense_pair(kernel, env, term)
        return env[kernel.output.name]

    # ------------------------------------------------------------------ #
    def _sparse_pair(self, env: Dict[str, TensorLike], term, out_sparse: bool):
        """Contract the sparse tensor with a dense operand on the executor."""
        names = [term.lhs, term.rhs]
        pair = parse_kernel(
            _subscripts(term),
            [env[name] for name in names],
            names=names,
            output_name=term.out,
            output_sparse=out_sparse,
        )
        path = single_term_path(pair)
        nest = LoopNest(path, default_loop_order(pair, path))
        executor = LoopNestExecutor(pair, nest, counter=self.counter, engine=self.engine)
        return executor.execute({name: env[name] for name in names})

    def _dense_pair(self, kernel: SpTTNKernel, env: Dict[str, TensorLike], term):
        """Contract two dense (input or intermediate) operands with einsum."""
        space = 1
        for i in term.all_indices:
            space *= kernel.index_dims[i]
        self.counter.add_flops(2 * space)
        return np.einsum(_subscripts(term), env[term.lhs], env[term.rhs])

    def metadata(self) -> Dict[str, object]:
        return {
            "strategy": "pairwise",
            "max_intermediate_elements": self._max_intermediate,
        }
