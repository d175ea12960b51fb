"""Tensor-Times-Tensor Product (TTTP) and SDDMM.

TTTP (Equation 3 of the paper) is the generic multi-tensor kernel of tensor
completion: the sparse tensor is multiplied elementwise by the low-rank
model evaluated at its stored entries::

    S(i_0, ..., i_{d-1}) = sum_r T(i_0, ..., i_{d-1}) * prod_n F_n(i_n, r)

The output has exactly the sparsity pattern of ``T``.  SDDMM (sampled
dense-dense matrix multiplication) is the order-2 special case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.expr import SpTTNKernel
from repro.engine.executor import execute_kernel
from repro.kernels.spttn import KernelBuilder, build_kernel, sparse_order_of
from repro.sptensor.coo import COOTensor
from repro.sptensor.dense import DenseTensor
from repro.util.counters import OpCounter
from repro.util.validation import require

if TYPE_CHECKING:
    from repro.engine.executor import TensorLike


def tttp_spec(order: int) -> str:
    """Einsum specification of the TTTP kernel for an order-*order* tensor."""
    kb = KernelBuilder(order)
    rank = kb.dense_index(0)
    inputs = [kb.sparse_subscripts]
    for n in range(order):
        inputs.append(kb.sparse_index(n) + rank)
    return ",".join(inputs) + "->" + kb.sparse_subscripts


def tttp_kernel(
    tensor: TensorLike,
    factors: Sequence[Union[DenseTensor, np.ndarray]],
) -> Tuple[SpTTNKernel, dict]:
    """Build (without executing) the TTTP kernel and its operand mapping."""
    order = sparse_order_of(tensor)
    require(
        len(factors) == order,
        f"TTTP needs one factor per mode ({order}), got {len(factors)}",
    )
    spec = tttp_spec(order)
    return build_kernel(spec, [tensor] + list(factors))


def tttp(
    tensor: TensorLike,
    factors: Sequence[Union[DenseTensor, np.ndarray]],
    counter: Optional[OpCounter] = None,
    buffer_dim_bound: Optional[int] = 2,
) -> COOTensor:
    """Compute the TTTP of a sparse tensor with one factor matrix per mode.

    Returns a sparse tensor with the same pattern as the input whose stored
    values are ``T(i...) * sum_r prod_n F_n(i_n, r)``.
    """
    order = sparse_order_of(tensor)
    require(
        len(factors) == order,
        f"TTTP needs one factor per mode ({order}), got {len(factors)}",
    )
    spec = tttp_spec(order)
    output, _ = execute_kernel(
        spec, [tensor] + list(factors), buffer_dim_bound=buffer_dim_bound, counter=counter
    )
    assert isinstance(output, COOTensor)
    return output


def sddmm_spec() -> str:
    """Einsum specification of SDDMM (the order-2 TTTP)."""
    return tttp_spec(2)


def sddmm(
    matrix: TensorLike,
    left: Union[DenseTensor, np.ndarray],
    right: Union[DenseTensor, np.ndarray],
    counter: Optional[OpCounter] = None,
) -> COOTensor:
    """Sampled dense-dense matrix multiplication over the pattern of *matrix*.

    ``S(i, j) = M(i, j) * sum_r L(i, r) * R(j, r)`` for every stored (i, j).
    """
    require(sparse_order_of(matrix) == 2, "SDDMM requires an order-2 sparse matrix")
    output, _ = execute_kernel(sddmm_spec(), [matrix, left, right], counter=counter)
    assert isinstance(output, COOTensor)
    return output
