"""Tensor-Times-Tensor chain (TTTc), the tensor-train contraction kernel.

TTTc (Equation 4 of the paper) contracts a higher-order sparse tensor with a
chain of tensor-train cores, leaving one core's slot open.  For an
order-``d`` sparse tensor ``T`` and TT cores

* ``G_0`` of shape ``(I_0, R_0)``,
* ``G_n`` of shape ``(R_{n-1}, I_n, R_n)`` for ``0 < n < d-1``,
* ``G_{d-1}`` of shape ``(R_{d-2}, I_{d-1})``,

the TTTc with the *last* core removed is::

    Z(r_{d-2}, i_{d-1}) = sum_{i_0..i_{d-2}, r_0..r_{d-3}}
        T(i_0..i_{d-1}) * G_0(i_0, r_0) * G_1(r_0, i_1, r_1) * ...

(the gradient of the TT model with respect to the removed core).  The
helpers build this kernel for any order and any removed-core position.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.expr import SpTTNKernel
from repro.engine.executor import LoopNestExecutor
from repro.engine.plan_cache import cached_schedule
from repro.kernels.spttn import KernelBuilder, build_kernel, sparse_order_of
from repro.sptensor.dense import DenseTensor
from repro.util.counters import OpCounter
from repro.util.validation import require

if TYPE_CHECKING:
    from repro.engine.executor import TensorLike


def tttc_spec(order: int, removed_core: Optional[int] = None) -> str:
    """Einsum specification of the TTTc kernel.

    Parameters
    ----------
    order:
        Order of the sparse tensor.
    removed_core:
        The TT core omitted from the chain (its slot forms the output).
        Defaults to the last core.
    """
    require(order >= 2, "TTTc needs a sparse tensor of order >= 2")
    if removed_core is None:
        removed_core = order - 1
    require(
        0 <= removed_core < order,
        f"removed_core {removed_core} out of range for order {order}",
    )
    kb = KernelBuilder(order)
    # bond index between core n and core n+1
    bonds = [kb.dense_index(n) for n in range(order - 1)]
    inputs = [kb.sparse_subscripts]
    for n in range(order):
        if n == removed_core:
            continue
        subs = ""
        if n > 0:
            subs += bonds[n - 1]
        subs += kb.sparse_index(n)
        if n < order - 1:
            subs += bonds[n]
        inputs.append(subs)
    # output: the open slot of the removed core
    out = ""
    if removed_core > 0:
        out += bonds[removed_core - 1]
    out += kb.sparse_index(removed_core)
    if removed_core < order - 1:
        out += bonds[removed_core]
    return ",".join(inputs) + "->" + out


def tt_core_shapes(
    dims: Sequence[int], rank: int
) -> List[Tuple[int, ...]]:
    """Shapes of the TT cores for the given mode dimensions and uniform rank."""
    order = len(dims)
    require(order >= 2, "a tensor train needs at least two cores")
    shapes: List[Tuple[int, ...]] = []
    for n, dim in enumerate(dims):
        if n == 0:
            shapes.append((dim, rank))
        elif n == order - 1:
            shapes.append((rank, dim))
        else:
            shapes.append((rank, dim, rank))
    return shapes


def _core_list(
    order: int,
    removed_core: int,
    cores: Sequence[Union[DenseTensor, np.ndarray]],
) -> List[Union[DenseTensor, np.ndarray]]:
    if len(cores) == order:
        return [c for n, c in enumerate(cores) if n != removed_core]
    require(
        len(cores) == order - 1,
        f"expected {order} cores (one per mode) or {order - 1} "
        f"(excluding the removed core), got {len(cores)}",
    )
    return list(cores)


def tttc_kernel(
    tensor: TensorLike,
    cores: Sequence[Union[DenseTensor, np.ndarray]],
    removed_core: Optional[int] = None,
) -> Tuple[SpTTNKernel, dict]:
    """Build (without executing) the TTTc kernel and its operand mapping."""
    order = sparse_order_of(tensor)
    if removed_core is None:
        removed_core = order - 1
    spec = tttc_spec(order, removed_core)
    operands = [tensor] + _core_list(order, removed_core, cores)
    return build_kernel(spec, operands)


def tttc(
    tensor: TensorLike,
    cores: Sequence[Union[DenseTensor, np.ndarray]],
    removed_core: Optional[int] = None,
    counter: Optional[OpCounter] = None,
    buffer_dim_bound: Optional[int] = 2,
    max_paths: Optional[int] = 2000,
) -> np.ndarray:
    """Contract the sparse tensor with all TT cores except *removed_core*.

    This is :func:`~repro.engine.executor.execute_kernel` with the path
    search capped at *max_paths*; the schedule comes from the process-wide
    schedule cache, so repeated calls on structurally identical operands
    search once.
    """
    kernel, mapping = tttc_kernel(tensor, cores, removed_core)
    schedule = cached_schedule(
        kernel, buffer_dim_bound=buffer_dim_bound, max_paths=max_paths
    )
    output = LoopNestExecutor(kernel, schedule.loop_nest, counter=counter).execute(mapping)
    assert isinstance(output, np.ndarray)
    return output
