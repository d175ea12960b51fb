"""Dense reference implementation used to validate all executors.

The reference materializes every operand densely and evaluates the kernel
with a single ``numpy.einsum`` call.  It is exponentially more expensive in
memory than the SpTTN executors, so it is only used on the small tensors of
the test suite and the examples' self-checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Union

import numpy as np

from repro.core.expr import SpTTNKernel
from repro.sptensor.coo import COOTensor
from repro.sptensor.csf import CSFTensor

if TYPE_CHECKING:
    from repro.engine.executor import TensorLike


def _to_dense(value: TensorLike) -> np.ndarray:
    if isinstance(value, (COOTensor, CSFTensor)):
        return value.to_dense()
    return np.asarray(value, dtype=np.float64)


def dense_reference(
    kernel: SpTTNKernel, tensors: Mapping[str, TensorLike]
) -> np.ndarray:
    """Dense einsum evaluation of the kernel (output axes in output order)."""
    operands = []
    subscripts = []
    for op in kernel.operands:
        operands.append(_to_dense(tensors[op.name]))
        subscripts.append("".join(op.indices))
    spec = ",".join(subscripts) + "->" + "".join(kernel.output.indices)
    return np.einsum(spec, *operands)


def reference_output(
    kernel: SpTTNKernel, tensors: Mapping[str, TensorLike]
) -> Union[np.ndarray, COOTensor]:
    """Reference output in the same form the SpTTN executor produces.

    Dense kernels return the dense einsum result; sparse-pattern kernels
    return a COO tensor holding the dense result restricted to the sparse
    operand's pattern.
    """
    dense = dense_reference(kernel, tensors)
    if not kernel.output.is_sparse:
        return dense
    sparse = tensors[kernel.sparse_operand.name]
    coo = sparse.to_coo() if isinstance(sparse, CSFTensor) else sparse
    assert isinstance(coo, COOTensor)
    # Map output axes (output index order) onto the sparse operand's modes.
    out_order = kernel.output.indices
    sparse_order = kernel.sparse_operand.indices
    axis_of = {name: pos for pos, name in enumerate(out_order)}
    values = np.empty(coo.nnz, dtype=np.float64)
    for row, coords in enumerate(coo.indices):
        key = tuple(
            int(coords[sparse_order.index(name)]) for name in out_order
        )
        values[row] = dense[key]
    return coo.with_values(values)


def assert_same_result(
    result: Union[np.ndarray, COOTensor],
    expected: Union[np.ndarray, COOTensor],
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> None:
    """Assert that an executor result matches the reference (test helper)."""
    if isinstance(expected, COOTensor):
        if not isinstance(result, COOTensor):
            raise AssertionError("expected a sparse-pattern (COO) result")
        if not expected.same_pattern(result):
            raise AssertionError("sparse result pattern differs from the input pattern")
        if not np.allclose(result.values, expected.values, rtol=rtol, atol=atol):
            raise AssertionError("sparse result values differ from the reference")
        return
    result_arr = np.asarray(result)
    if result_arr.shape != np.asarray(expected).shape:
        raise AssertionError(
            f"result shape {result_arr.shape} differs from expected {np.asarray(expected).shape}"
        )
    if not np.allclose(result_arr, expected, rtol=rtol, atol=atol):
        raise AssertionError("dense result differs from the reference")
