"""Generic SpTTN kernel construction helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.expr import SpTTNKernel, parse_kernel
from repro.engine.executor import TensorLike
from repro.sptensor.coo import COOTensor
from repro.sptensor.csf import CSFTensor
from repro.util.validation import require

#: Index letters used for sparse modes, then dense (rank) modes.
_SPARSE_LETTERS = "ijklmnop"
_DENSE_LETTERS = "rstuvwab"


@dataclass
class KernelBuilder:
    """Incrementally builds the einsum specification of an SpTTN kernel.

    Example
    -------
    >>> kb = KernelBuilder(sparse_order=3)
    >>> kb.sparse_subscripts
    'ijk'
    """

    sparse_order: int

    def __post_init__(self) -> None:
        require(
            1 <= self.sparse_order <= len(_SPARSE_LETTERS),
            f"sparse tensor order must be in 1..{len(_SPARSE_LETTERS)}",
        )

    @property
    def sparse_subscripts(self) -> str:
        return _SPARSE_LETTERS[: self.sparse_order]

    def sparse_index(self, mode: int) -> str:
        require(0 <= mode < self.sparse_order, f"mode {mode} out of range")
        return _SPARSE_LETTERS[mode]

    def dense_index(self, position: int) -> str:
        require(
            0 <= position < len(_DENSE_LETTERS),
            f"too many dense indices (max {len(_DENSE_LETTERS)})",
        )
        return _DENSE_LETTERS[position]


def build_kernel(
    spec: str,
    tensors: Sequence[TensorLike],
    names: Optional[Sequence[str]] = None,
) -> Tuple[SpTTNKernel, Dict[str, TensorLike]]:
    """Parse a kernel and return it with its operand-name -> tensor mapping."""
    kernel = parse_kernel(spec, tensors, names=names)
    mapping = {op.name: t for op, t in zip(kernel.operands, tensors)}
    return kernel, mapping


def sparse_order_of(tensor: TensorLike) -> int:
    if isinstance(tensor, (COOTensor, CSFTensor)):
        return tensor.order
    raise TypeError("expected a sparse tensor (COOTensor or CSFTensor)")
