"""Vectorized inner kernels (the reproduction's BLAS layer).

The paper offloads the innermost independent dense loops of a fused loop
nest to BLAS routines (xAXPY, xGER, xGEMV, ...).  In this pure-Python
reproduction the same role is played by a single vectorized NumPy call over
the free (not-yet-iterated) indices of one contraction term; NumPy
dispatches the heavy cases to its own compiled BLAS.  This module builds
those calls, each returning the scalar operations it performed.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np


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
    ``kernel(lhs, rhs, out_array, out_key) -> flops``, which
    accumulates ``out_array[out_key] += contract(lhs, rhs)`` using a direct
    NumPy expression for the common BLAS-1/2/3 shapes and a cached einsum
    for everything else.  Specialization removes all per-call string
    building, shape classification and dispatch from the execution hot loop.
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
    # (the count is built per call: one plan's kernels run on many threads)
    spec = _subscripts(lhs_free, rhs_free, out_free)

    def k_einsum(lhs, rhs, out, key):
        out[key] += np.einsum(spec, lhs, rhs)
        dims = dict(zip(lhs_free, np.shape(lhs)))
        dims.update(zip(rhs_free, np.shape(rhs)))
        return 2 * math.prod(dims.values())

    return k_einsum
