"""Algorithm 2 as written: the tests' dynamic op-count oracle.

:class:`Interpreter` runs a loop nest the way the paper's Algorithm 2
states it.  It walks the executor's symbolic site steps one node at a
time: a sparse loop visits only the stored children of the current CSF
node, a dense loop iterates the full index range, a reset zero-fills the
slice of a buffer, and an offload site makes one call to a vectorized
kernel specialized for its free indices (:func:`specialize_contraction`,
the BLAS offload of this reproduction).  Every call returns the scalar
operations it performed, so the count is *dynamic*: summed call by call,
it checks the compiled engines' static ``C.flops +=`` totals and the cost
model's symbolic counts.

The runtime compiles the same site steps instead (``jit`` and
``lowered``); the interpreter is kept here, beside the tests that compare
against it, because nothing else counts the operations one by one.
:func:`make_executor` builds either, so a test can loop over
:data:`TIERS`, and :func:`execute` runs one and checks that a runtime
engine ran compiled code.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.engine.executor import ENGINES, LoopNestExecutor
from repro.engine.lowering.codegen import jit_stats
from repro.engine.plan_cache import (
    ARRAY,
    SLOT_BUFFER,
    SLOT_DENSE,
    SPARSE_FIBER,
    SPARSE_LEAF,
    SPARSE_OUT_FIBER,
    SPARSE_OUT_LEAF,
    PlanCache,
)

#: The runtime engines plus the interpreter, for tests that compare them.
TIERS = ENGINES + ("interpret",)


def make_executor(kernel, loop_nest, engine, **kwargs):
    """A :class:`LoopNestExecutor` on *engine*, or an :class:`Interpreter`
    when *engine* is ``"interpret"``."""
    if engine == "interpret":
        return Interpreter(kernel, loop_nest, **kwargs)
    return LoopNestExecutor(kernel, loop_nest, engine=engine, **kwargs)


def execute(executor, tensors):
    """``executor.execute(tensors)``, asserting that a runtime engine ran its
    compiled callable: ``jit_stats()["runs"]`` rises by one (by none for
    the interpreter)."""
    runs = jit_stats()["runs"]
    output = executor.execute(tensors)
    assert jit_stats()["runs"] == runs + (not isinstance(executor, Interpreter))
    return output


class Interpreter(LoopNestExecutor):
    """Executes one fully-fused loop nest by interpreting its site steps.

    It shares the executor's preparation (operand checks, CSF conversion,
    output allocation, sparse-output assembly) and its plan construction,
    and replaces the lowered, compiled run.  *plan_cache* defaults to a
    private cache: the interpreter reads no compiled plan.  *sites* is the
    memo of specialized site steps; interpreters given one dict share
    their kernels.
    """

    def __init__(self, kernel, loop_nest, counter=None, plan_cache=None, sites=None):
        if plan_cache is None:
            plan_cache = PlanCache()
        super().__init__(kernel, loop_nest, counter=counter, plan_cache=plan_cache, engine="jit")
        self.engine = "interpret"
        self.sites: Dict[Tuple[Tuple[int, ...], int], list] = {} if sites is None else sites
        self._buffers: Dict[str, np.ndarray] = {}
        self._bound_sites: Dict[Tuple[Tuple[int, ...], int], list] = {}

    def _execute(self, tensors, operands):
        self._prepare(tensors, operands)
        dims = self.kernel.index_dims
        self._buffers = {
            spec.name: np.zeros(tuple(dims[idx] for idx in spec.indices))
            for spec in self._buffer_specs
        }
        self._run(tuple(range(len(self.path))), 0, {}, -1, 0)
        if self.kernel.output.is_sparse:
            return self._sparse_output()
        return self._out_dense

    def _release_bindings(self) -> None:
        super()._release_bindings()
        self._buffers = {}
        self._bound_sites = {}

    # ------------------------------------------------------------------ #
    # Site steps, with each offload site's kernel specialized once
    # ------------------------------------------------------------------ #
    def _site_steps(self, positions: Tuple[int, ...], depth: int) -> list:
        key = (positions, depth)
        steps = self.sites.get(key)
        if steps is None:
            steps = [
                step[:5] + (specialize_contraction(*step[5]),) + step[6:]
                if step[0] == "offload"
                else step
                for step in self._build_plan(positions, depth)
            ]
            steps = self.sites.setdefault(key, steps)
        return steps

    # ------------------------------------------------------------------ #
    # Binding (per execution: substitute concrete arrays for slots)
    # ------------------------------------------------------------------ #
    def _slot_array(self, slot: Tuple[str, Optional[str]]) -> np.ndarray:
        kind, name = slot
        if kind == SLOT_DENSE:
            return self._dense[name]
        if kind == SLOT_BUFFER:
            return self._buffers[name]
        assert self._out_dense is not None
        return self._out_dense

    def _bind_recipe(self, recipe: tuple) -> tuple:
        if recipe[0] != ARRAY:
            return recipe
        _, slot, template, gather_axis = recipe
        return (ARRAY, self._slot_array(slot), template, gather_axis)

    def _bind_steps(self, steps: list) -> list:
        """Bind one site's steps to this execution's arrays."""
        bound_steps: list = []
        for step in steps:
            resets = [(self._slot_array(slot), template) for slot, template in step[1]]
            if step[0] == "offload":
                (_, _, lhs, rhs, out, fn, is_fiber) = step
                bound_steps.append(
                    (
                        "offload",
                        resets,
                        self._bind_recipe(lhs),
                        self._bind_recipe(rhs),
                        self._bind_recipe(out),
                        fn,
                        is_fiber,
                    )
                )
            else:
                bound_steps.append(("loop", resets) + step[2:])
        return bound_steps

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _run(
        self,
        positions: Tuple[int, ...],
        depth: int,
        bound: Dict[str, int],
        csf_level: int,
        csf_pos: int,
    ) -> None:
        key = (positions, depth)
        plan = self._bound_sites.get(key)
        if plan is None:
            plan = self._bind_steps(self._site_steps(positions, depth))
            self._bound_sites[key] = plan

        counter = self.counter
        csf = self._csf
        for step in plan:
            kind = step[0]
            resets = step[1]
            for arr, template in resets:
                arr[
                    tuple(
                        bound[name] if name is not None else slice(None)
                        for name in template
                    )
                ] = 0.0
            if kind == "offload":
                (_, _, lhs_recipe, rhs_recipe, out_recipe, fn, is_fiber) = step
                if is_fiber:
                    lo, hi = csf.children_range(csf_level, csf_pos)
                    ids = csf.fids[csf.order - 1][lo:hi]
                else:
                    lo = hi = 0
                    ids = None
                lhs = self._resolve_operand(lhs_recipe, bound, csf_pos, lo, hi, ids)
                rhs = self._resolve_operand(rhs_recipe, bound, csf_pos, lo, hi, ids)
                out_arr, out_key = self._resolve_output(out_recipe, bound, csf_pos, lo, hi)
                counter.flops += fn(lhs, rhs, out_arr, out_key)
            else:  # "loop"
                (_, _, idx, group, use_csf, dim) = step
                if use_csf:
                    level = csf_level + 1
                    lo, hi = csf.children_range(csf_level, csf_pos)
                    ids = csf.fids[level]
                    for child in range(lo, hi):
                        bound[idx] = int(ids[child])
                        self._run(group, depth + 1, bound, level, child)
                    bound.pop(idx, None)
                else:
                    for value in range(dim):
                        bound[idx] = value
                        self._run(group, depth + 1, bound, csf_level, csf_pos)
                    bound.pop(idx, None)

    def _resolve_operand(self, recipe, bound, csf_pos, lo, hi, ids):
        mode = recipe[0]
        if mode == ARRAY:
            _, arr, template, gather_axis = recipe
            view = arr[
                tuple(bound[name] if name is not None else slice(None) for name in template)
            ]
            if gather_axis is not None:
                view = np.take(view, ids, axis=gather_axis)
            return view
        if mode == SPARSE_FIBER:
            return self._csf.values[lo:hi]
        assert mode == SPARSE_LEAF
        return self._csf.values[csf_pos]

    def _resolve_output(self, recipe, bound, csf_pos, lo, hi):
        mode = recipe[0]
        if mode == ARRAY:
            _, arr, template, _ = recipe
            key = tuple(bound[name] if name is not None else slice(None) for name in template)
            return arr, key
        if mode == SPARSE_OUT_FIBER:
            return self._out_values, slice(lo, hi)
        assert mode == SPARSE_OUT_LEAF
        return self._out_values, csf_pos


# --------------------------------------------------------------------------- #
# Specialized contraction kernels (the BLAS offload of one site)
# --------------------------------------------------------------------------- #
def _subscripts(
    lhs_free: Sequence[str], rhs_free: Sequence[str], out_free: Sequence[str]
) -> str:
    """Build an einsum subscripts string over arbitrary index names."""
    letters: Dict[str, str] = {}
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    for name in tuple(lhs_free) + tuple(rhs_free) + tuple(out_free):
        if name not in letters:
            letters[name] = alphabet[len(letters)]
    lhs = "".join(letters[n] for n in lhs_free)
    rhs = "".join(letters[n] for n in rhs_free)
    out = "".join(letters[n] for n in out_free)
    return f"{lhs},{rhs}->{out}"


def specialize_contraction(
    lhs_free: Sequence[str], rhs_free: Sequence[str], out_free: Sequence[str]
):
    """Build a specialized accumulation kernel for one offload site.

    The paper's runtime preprocesses the fused loop nest once, binding each
    offloadable contraction to a BLAS call (Algorithm 2, stage 1).  This is
    the analogous step here: given the static free-index lists of the two
    operands and the output at an offload site, return
    ``kernel(lhs, rhs, out_array, out_key) -> flops``, which
    accumulates ``out_array[out_key] += contract(lhs, rhs)`` using a direct
    NumPy expression for the common BLAS-1/2/3 shapes and a cached einsum
    for everything else.
    """
    lhs_free = tuple(lhs_free)
    rhs_free = tuple(rhs_free)
    out_free = tuple(out_free)

    # scalar * scalar -> scalar
    if not lhs_free and not rhs_free and not out_free:
        def k_scalar(lhs, rhs, out, key):
            out[key] += float(lhs) * float(rhs)
            return 2

        return k_scalar

    # scalar * vector -> vector (axpy), either operand order
    if not lhs_free and rhs_free == out_free and len(out_free) >= 1:
        def k_axpy_l(lhs, rhs, out, key):
            out[key] += float(lhs) * rhs
            return 2 * rhs.size

        return k_axpy_l
    if not rhs_free and lhs_free == out_free and len(out_free) >= 1:
        def k_axpy_r(lhs, rhs, out, key):
            out[key] += float(rhs) * lhs
            return 2 * lhs.size

        return k_axpy_r

    # vector . vector -> scalar (dot)
    if lhs_free == rhs_free and len(lhs_free) == 1 and not out_free:
        def k_dot(lhs, rhs, out, key):
            out[key] += lhs @ rhs
            return 2 * lhs.size

        return k_dot

    # elementwise multiply (same free indices kept in the output)
    if lhs_free == rhs_free == out_free and len(out_free) >= 1:
        def k_hadamard(lhs, rhs, out, key):
            out[key] += lhs * rhs
            return 2 * lhs.size

        return k_hadamard

    # vector x vector -> matrix (ger)
    if (
        len(lhs_free) == 1
        and len(rhs_free) == 1
        and out_free == lhs_free + rhs_free
    ):
        def k_ger(lhs, rhs, out, key):
            out[key] += np.multiply.outer(lhs, rhs)
            return 2 * lhs.size * rhs.size

        return k_ger
    if (
        len(lhs_free) == 1
        and len(rhs_free) == 1
        and out_free == rhs_free + lhs_free
    ):
        def k_ger_t(lhs, rhs, out, key):
            out[key] += np.multiply.outer(rhs, lhs)
            return 2 * lhs.size * rhs.size

        return k_ger_t

    # matrix-vector products: the vector's index is contracted away and the
    # matrix's other index is the output
    if (
        len(lhs_free) == 1
        and len(rhs_free) == 2
        and len(out_free) == 1
        and lhs_free[0] in rhs_free
        and lhs_free[0] not in out_free
        and out_free[0] in rhs_free
    ):
        contract_axis = rhs_free.index(lhs_free[0])

        def k_gemv_r(lhs, rhs, out, key):
            if contract_axis == 0:
                out[key] += lhs @ rhs
            else:
                out[key] += rhs @ lhs
            return 2 * rhs.size

        return k_gemv_r
    if (
        len(rhs_free) == 1
        and len(lhs_free) == 2
        and len(out_free) == 1
        and rhs_free[0] in lhs_free
        and rhs_free[0] not in out_free
        and out_free[0] in lhs_free
    ):
        contract_axis = lhs_free.index(rhs_free[0])

        def k_gemv_l(lhs, rhs, out, key):
            if contract_axis == 0:
                out[key] += rhs @ lhs
            else:
                out[key] += lhs @ rhs
            return 2 * lhs.size

        return k_gemv_l

    # general fallback: einsum with a precomputed subscripts string
    # (the count is built per call: one site's kernel runs on many threads)
    spec = _subscripts(lhs_free, rhs_free, out_free)

    def k_einsum(lhs, rhs, out, key):
        out[key] += np.einsum(spec, lhs, rhs)
        dims = dict(zip(lhs_free, np.shape(lhs)))
        dims.update(zip(rhs_free, np.shape(rhs)))
        return 2 * math.prod(dims.values())

    return k_einsum

