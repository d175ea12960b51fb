"""Vectorized inner kernels (the reproduction's BLAS layer).

The paper offloads the innermost independent dense loops of a fused loop
nest to BLAS routines (xAXPY, xGER, xGEMV, ...).  In this pure-Python
reproduction the same role is played by a single vectorized
``numpy.einsum`` call over the free (not-yet-iterated) indices of one
contraction term; NumPy dispatches the heavy cases to its own compiled BLAS.
This module builds those calls and classifies them with BLAS-style names
for the operation counters.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.util.counters import OpCounter


def classify_call(
    lhs_free: Sequence[str], rhs_free: Sequence[str], out_free: Sequence[str]
) -> str:
    """BLAS-style name for a vectorized contraction over free indices.

    The classification follows the shapes of the operands after all bound
    indices have been fixed: scalar*vector accumulations are ``axpy``,
    vector·vector reductions are ``dot``, outer products are ``ger``,
    matrix-vector contractions are ``gemv``, matrix-matrix ``gemm`` and
    anything of higher order is ``tensor``.
    """
    nl, nr, no = len(lhs_free), len(rhs_free), len(out_free)
    ranks = sorted((nl, nr))
    if no == 0 and ranks == [1, 1]:
        return "dot"
    if ranks == [0, 1] and no == 1:
        return "axpy"
    if ranks == [1, 1] and no == 2:
        return "ger"
    if ranks == [1, 2] and no == 1:
        return "gemv"
    if ranks == [2, 2] and no == 2:
        return "gemm"
    if max(nl, nr, no) == 0:
        return "scalar"
    return "tensor"


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


def vectorized_contract(
    lhs_view: np.ndarray,
    rhs_view: np.ndarray,
    out_array: np.ndarray,
    out_key,
    lhs_free: Sequence[str],
    rhs_free: Sequence[str],
    out_free: Sequence[str],
    counter: Optional[OpCounter] = None,
) -> None:
    """Accumulate ``out_array[out_key] += contract(lhs, rhs)``.

    The free index lists name the axes of the corresponding views (and of
    the selected output region); indices present in the inputs but absent
    from *out_free* are summed.  The output is addressed as array-plus-key
    (basic indexing) so that fully-bound scalar targets are writable.  The
    call is recorded in *counter* with a BLAS-style classification and a
    scalar multiply-add count equal to ``2 * |iteration space|``.
    """
    spec = _subscripts(lhs_free, rhs_free, out_free)
    result = np.einsum(spec, lhs_view, rhs_view)
    out_array[out_key] += result
    if counter is not None:
        space = 1
        seen = {}
        for names, view in ((lhs_free, lhs_view), (rhs_free, rhs_view)):
            for axis, name in enumerate(names):
                if name not in seen:
                    seen[name] = int(view.shape[axis])
        for name in out_free:
            seen.setdefault(name, 1)
        for size in seen.values():
            space *= size
        counter.add_flops(2 * space)
        counter.add_call(classify_call(lhs_free, rhs_free, out_free))


# --------------------------------------------------------------------------- #
# Specialized contraction kernels (Algorithm 2 preprocessing stage)
# --------------------------------------------------------------------------- #
def specialize_contraction(
    lhs_free: Sequence[str], rhs_free: Sequence[str], out_free: Sequence[str]
):
    """Build a specialized accumulation kernel for one offload site.

    The paper's runtime preprocesses the fused loop nest once, binding each
    offloadable contraction to a BLAS call (Algorithm 2, stage 1).  This is
    the analogous step here: given the static free-index lists of the two
    operands and the output at an offload site, return
    ``(kernel, name)`` where ``kernel(lhs, rhs, out_array, out_key) -> flops``
    accumulates ``out_array[out_key] += contract(lhs, rhs)`` using a direct
    NumPy expression for the common BLAS-1/2/3 shapes and a cached einsum
    for everything else.  Specialization removes all per-call string
    building, shape classification and dispatch from the execution hot loop.
    """
    lhs_free = tuple(lhs_free)
    rhs_free = tuple(rhs_free)
    out_free = tuple(out_free)
    name = classify_call(lhs_free, rhs_free, out_free)

    # scalar * scalar -> scalar
    if not lhs_free and not rhs_free and not out_free:
        def k_scalar(lhs, rhs, out, key):
            out[key] += float(lhs) * float(rhs)
            return 2

        return k_scalar, name

    # scalar * vector -> vector (axpy), either operand order
    if not lhs_free and rhs_free == out_free and len(out_free) >= 1:
        def k_axpy_l(lhs, rhs, out, key):
            out[key] += float(lhs) * rhs
            return 2 * rhs.size

        return k_axpy_l, name
    if not rhs_free and lhs_free == out_free and len(out_free) >= 1:
        def k_axpy_r(lhs, rhs, out, key):
            out[key] += float(rhs) * lhs
            return 2 * lhs.size

        return k_axpy_r, name

    # vector . vector -> scalar (dot)
    if lhs_free == rhs_free and len(lhs_free) == 1 and not out_free:
        def k_dot(lhs, rhs, out, key):
            out[key] += lhs @ rhs
            return 2 * lhs.size

        return k_dot, name

    # elementwise multiply (same free indices kept in the output)
    if lhs_free == rhs_free == out_free and len(out_free) >= 1:
        def k_hadamard(lhs, rhs, out, key):
            out[key] += lhs * rhs
            return 2 * lhs.size

        return k_hadamard, name

    # vector x vector -> matrix (ger)
    if (
        len(lhs_free) == 1
        and len(rhs_free) == 1
        and out_free == lhs_free + rhs_free
    ):
        def k_ger(lhs, rhs, out, key):
            out[key] += np.multiply.outer(lhs, rhs)
            return 2 * lhs.size * rhs.size

        return k_ger, name
    if (
        len(lhs_free) == 1
        and len(rhs_free) == 1
        and out_free == rhs_free + lhs_free
    ):
        def k_ger_t(lhs, rhs, out, key):
            out[key] += np.multiply.outer(rhs, lhs)
            return 2 * lhs.size * rhs.size

        return k_ger_t, name

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

        return k_gemv_r, name
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

        return k_gemv_l, name

    # general fallback: einsum with a precomputed subscripts string
    spec = _subscripts(lhs_free, rhs_free, out_free)
    dims_union = {}

    def k_einsum(lhs, rhs, out, key):
        out[key] += np.einsum(spec, lhs, rhs)
        for axes, view in ((lhs_free, lhs), (rhs_free, rhs)):
            for axis, nm in enumerate(axes):
                dims_union[nm] = view.shape[axis]
        space = 1
        for size in dims_union.values():
            space *= size
        dims_union.clear()
        return 2 * space

    return k_einsum, name
