"""Argument validation helpers used across the library.

These helpers exist so that public entry points fail fast with clear error
messages instead of deep inside NumPy broadcasting machinery.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with *message* when *condition* is false."""
    if not condition:
        raise ValueError(message)


def check_positive_int(value: int, name: str) -> int:
    """Validate that *value* is a positive integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_shape(shape: Iterable[int], name: str = "shape") -> Tuple[int, ...]:
    """Validate a tensor shape: a non-empty sequence of positive integers."""
    try:
        out = tuple(int(s) for s in shape)
    except TypeError as exc:  # not iterable / not int-convertible
        raise TypeError(f"{name} must be a sequence of integers") from exc
    if len(out) == 0:
        raise ValueError(f"{name} must have at least one dimension")
    for k, s in enumerate(out):
        if s <= 0:
            raise ValueError(f"{name}[{k}] must be positive, got {s}")
    return out


def as_index_array(indices: Sequence[Sequence[int]], order: int) -> np.ndarray:
    """Coerce *indices* into an ``(nnz, order)`` int64 array and validate it."""
    arr = np.asarray(indices, dtype=np.int64)
    if arr.ndim == 1:
        if order == 1:
            arr = arr.reshape(-1, 1)
        else:
            raise ValueError(
                f"indices must be 2-D with {order} columns, got 1-D array"
            )
    if arr.ndim != 2 or arr.shape[1] != order:
        raise ValueError(
            f"indices must have shape (nnz, {order}), got {arr.shape}"
        )
    if arr.size and arr.min() < 0:
        raise ValueError("indices must be non-negative")
    return arr
