"""Matricized-Tensor Times Khatri-Rao Product (MTTKRP).

MTTKRP is the bottleneck kernel of CP-ALS (Equation 1 of the paper): for an
order-``d`` sparse tensor ``T`` and factor matrices ``F_0, ..., F_{d-1}``
(each ``I_n x R``), the mode-``m`` MTTKRP is::

    A(i_m, r) = sum_{i_n, n != m}  T(i_0, ..., i_{d-1}) * prod_{n != m} F_n(i_n, r)

The helpers below build the kernel specification for any order and mode and
execute it through the SpTTN scheduler/executor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.expr import SpTTNKernel
from repro.engine.executor import execute_kernel
from repro.kernels.spttn import KernelBuilder, build_kernel, sparse_order_of
from repro.util.counters import OpCounter
from repro.util.validation import require

if TYPE_CHECKING:
    from repro.engine.executor import TensorLike


def mttkrp_spec(order: int, mode: int) -> str:
    """Einsum specification of the mode-*mode* MTTKRP for an order-*order* tensor."""
    kb = KernelBuilder(order)
    require(0 <= mode < order, f"mode {mode} out of range for order {order}")
    rank = kb.dense_index(0)
    inputs = [kb.sparse_subscripts]
    for n in range(order):
        if n == mode:
            continue
        inputs.append(kb.sparse_index(n) + rank)
    output = kb.sparse_index(mode) + rank
    return ",".join(inputs) + "->" + output


def _factor_list(order: int, mode: int, factors: Sequence[np.ndarray]) -> List[np.ndarray]:
    if len(factors) == order:
        return [f for n, f in enumerate(factors) if n != mode]
    require(
        len(factors) == order - 1,
        f"expected {order} factors (one per mode) or {order - 1} "
        f"(excluding the target mode), got {len(factors)}",
    )
    return list(factors)


def mttkrp_kernel(
    tensor: TensorLike,
    factors: Sequence[np.ndarray],
    mode: int = 0,
) -> Tuple[SpTTNKernel, dict]:
    """Build (without executing) the MTTKRP kernel and its operand mapping."""
    order = sparse_order_of(tensor)
    spec = mttkrp_spec(order, mode)
    operands = [tensor] + list(_factor_list(order, mode, factors))
    return build_kernel(spec, operands)


def mttkrp(
    tensor: TensorLike,
    factors: Sequence[np.ndarray],
    mode: int = 0,
    counter: Optional[OpCounter] = None,
    buffer_dim_bound: Optional[int] = 2,
) -> np.ndarray:
    """Compute the mode-*mode* MTTKRP of a sparse tensor with factor matrices.

    Parameters
    ----------
    tensor:
        The sparse tensor (COO or CSF).
    factors:
        Either one factor matrix per mode (the target mode's entry is
        ignored) or one per non-target mode, each of shape ``(I_n, R)``.
    mode:
        The target mode.
    """
    order = sparse_order_of(tensor)
    spec = mttkrp_spec(order, mode)
    operands = [tensor] + list(_factor_list(order, mode, factors))
    output, _ = execute_kernel(
        spec, operands, buffer_dim_bound=buffer_dim_bound, counter=counter
    )
    assert isinstance(output, np.ndarray)
    return output
