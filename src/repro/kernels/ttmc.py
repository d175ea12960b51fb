"""Tensor-Times-Matrix chain (TTMc) and its all-mode variant.

TTMc is the bottleneck kernel of Tucker/HOOI (Equation 2 of the paper): the
sparse tensor is contracted with one factor matrix on every mode except the
target mode, which is left open::

    S(i_m, r_0, ..., r_{m-1}, r_{m+1}, ...) =
        sum_{i_n, n != m} T(i_0, ..., i_{d-1}) * prod_{n != m} F_n(i_n, r_n)

The *all-mode* TTMc contracts every mode (the core-tensor update of HOOI and
the kernel of the Figure 9/10 experiments)::

    S(r_0, ..., r_{d-1}) = sum_{i_0..i_{d-1}} T(...) * prod_n F_n(i_n, r_n)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.expr import SpTTNKernel
from repro.engine.executor import execute_kernel
from repro.kernels.spttn import KernelBuilder, build_kernel, sparse_order_of
from repro.sptensor.dense import DenseTensor
from repro.util.counters import OpCounter
from repro.util.validation import require

if TYPE_CHECKING:
    from repro.engine.executor import TensorLike


def ttmc_spec(order: int, mode: int) -> str:
    """Einsum specification of the mode-*mode* TTMc for an order-*order* tensor."""
    kb = KernelBuilder(order)
    require(0 <= mode < order, f"mode {mode} out of range for order {order}")
    inputs = [kb.sparse_subscripts]
    output = kb.sparse_index(mode)
    dense_pos = 0
    for n in range(order):
        if n == mode:
            continue
        rank = kb.dense_index(dense_pos)
        dense_pos += 1
        inputs.append(kb.sparse_index(n) + rank)
        output += rank
    return ",".join(inputs) + "->" + output


def all_mode_ttmc_spec(order: int) -> str:
    """Einsum specification of the all-mode TTMc (every sparse mode contracted)."""
    kb = KernelBuilder(order)
    inputs = [kb.sparse_subscripts]
    output = ""
    for n in range(order):
        rank = kb.dense_index(n)
        inputs.append(kb.sparse_index(n) + rank)
        output += rank
    return ",".join(inputs) + "->" + output


def _factor_list(
    order: int, mode: Optional[int], factors: Sequence[Union[DenseTensor, np.ndarray]]
) -> List[Union[DenseTensor, np.ndarray]]:
    if mode is None:
        require(
            len(factors) == order,
            f"all-mode TTMc needs {order} factors, got {len(factors)}",
        )
        return list(factors)
    if len(factors) == order:
        return [f for n, f in enumerate(factors) if n != mode]
    require(
        len(factors) == order - 1,
        f"expected {order} or {order - 1} factors, got {len(factors)}",
    )
    return list(factors)


def ttmc_kernel(
    tensor: TensorLike,
    factors: Sequence[Union[DenseTensor, np.ndarray]],
    mode: int = 0,
) -> Tuple[SpTTNKernel, dict]:
    """Build (without executing) the TTMc kernel and its operand mapping."""
    order = sparse_order_of(tensor)
    spec = ttmc_spec(order, mode)
    operands = [tensor] + list(_factor_list(order, mode, factors))
    return build_kernel(spec, operands)


def ttmc(
    tensor: TensorLike,
    factors: Sequence[Union[DenseTensor, np.ndarray]],
    mode: int = 0,
    counter: Optional[OpCounter] = None,
    buffer_dim_bound: Optional[int] = 2,
) -> np.ndarray:
    """Compute the mode-*mode* TTMc of a sparse tensor with factor matrices."""
    order = sparse_order_of(tensor)
    spec = ttmc_spec(order, mode)
    operands = [tensor] + list(_factor_list(order, mode, factors))
    output, _ = execute_kernel(
        spec, operands, buffer_dim_bound=buffer_dim_bound, counter=counter
    )
    assert isinstance(output, np.ndarray)
    return output


def all_mode_ttmc_kernel(
    tensor: TensorLike,
    factors: Sequence[Union[DenseTensor, np.ndarray]],
) -> Tuple[SpTTNKernel, dict]:
    """Build (without executing) the all-mode TTMc kernel and operand mapping."""
    order = sparse_order_of(tensor)
    spec = all_mode_ttmc_spec(order)
    operands = [tensor] + _factor_list(order, None, factors)
    return build_kernel(spec, operands)


def all_mode_ttmc(
    tensor: TensorLike,
    factors: Sequence[Union[DenseTensor, np.ndarray]],
    counter: Optional[OpCounter] = None,
    buffer_dim_bound: Optional[int] = 2,
) -> np.ndarray:
    """Contract every mode of the sparse tensor with a factor matrix."""
    order = sparse_order_of(tensor)
    spec = all_mode_ttmc_spec(order)
    operands = [tensor] + _factor_list(order, None, factors)
    output, _ = execute_kernel(
        spec, operands, buffer_dim_bound=buffer_dim_bound, counter=counter
    )
    assert isinstance(output, np.ndarray)
    return output
