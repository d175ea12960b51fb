"""Pooled array primitives for the compiled lowered programs.

Warm executions of a lowered program allocate the same intermediate shapes
over and over; on the fig7/TTMc workloads those allocations (page faults on
multi-megabyte einsum outputs, fresh gather buffers per call) dominate the
actual arithmetic.  This module centralizes the fix: a *pool* is a plain
``dict`` owned by the plan (one per compiled callable), mapping stable
slot keys to reusable ``ndarray`` buffers.  Each primitive computes into
the pooled buffer via the NumPy ``out=`` parameter when the cached buffer
still matches, and transparently re-allocates (updating the pool) when it
does not — so results are bit-identical to the unpooled expressions while
warm calls allocate nothing.  Gathers are direct only when every id is in
range: NumPy buffers ``np.take``'s ``out=`` under its default ``mode="raise"``.
A key can pass between registers: codegen gives a ``_mul`` the slot of an
operand dying at it, so :func:`multiply_into` multiplies into its buffer.

The pool is intentionally dumb: no locking (plans are not shared across
threads) and no size cap of its own (it lives and dies with the owning
plan-cache entry; :func:`pool_nbytes` reports what it holds).
"""

from __future__ import annotations

from typing import Dict, Hashable

import numpy as np

#: A buffer pool: slot key -> reusable array.
Pool = Dict[Hashable, np.ndarray]


def pool_nbytes(pool: Pool) -> int:
    """Total bytes held by one pool's buffers."""
    return sum(int(buf.nbytes) for buf in pool.values())


def buffer(pool: Pool, key: Hashable, shape, dtype) -> np.ndarray:
    """An uninitialized pooled buffer of exactly ``shape``/``dtype``."""
    buf = pool.get(key)
    if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
        buf = np.empty(shape, dtype)
        pool[key] = buf
    return buf


def take_into(pool: Pool, key: Hashable, arr: np.ndarray, ids: np.ndarray,
              axis: int) -> np.ndarray:
    """``np.take`` into a pooled buffer, lane axis moved to the front.

    The gathered axis stays at ``axis`` in the backing buffer and the
    returned value is a ``moveaxis`` view with the lane axis first.
    Non-empty ids inside ``[0, arr.shape[axis])`` gather with
    ``mode="clip"``, which writes straight into the buffer and equals
    ``"raise"`` for them; any other ids keep ``"raise"`` (negative ids
    wrap, out-of-range ones raise), which copies through a temporary.
    ``None`` ids take nothing: *arr* is returned as it is.
    """
    if ids is None:
        return arr
    buf = pool.get(key)
    if buf is not None:
        in_range = ids.size and 0 <= ids.min() and ids.max() < arr.shape[axis]
        try:
            np.take(arr, ids, axis=axis, out=buf, mode="clip" if in_range else "raise")
        except (ValueError, TypeError):
            buf = None
    if buf is None:
        buf = np.take(arr, ids, axis=axis)
        pool[key] = buf
    return np.moveaxis(buf, axis, 0) if axis else buf


def _einsum_shape(spec: str, operands) -> tuple:
    """Output shape of an explicit (no-ellipsis) einsum spec."""
    inputs, output = spec.split("->")
    dims = {}
    for sub, op in zip(inputs.split(","), operands):
        for letter, dim in zip(sub, op.shape):
            dims[letter] = dim
    return tuple(dims[letter] for letter in output)


def einsum_into(pool: Pool, key: Hashable, spec: str, *operands) -> np.ndarray:
    """``np.einsum`` into a pooled buffer (fresh allocation on mismatch).

    The buffer shape is checked against the spec's output shape up front:
    ``np.einsum`` *broadcasts* a smaller result into a larger ``out=``
    buffer instead of raising, which would silently return stale-shaped
    data when the same plan is re-bound to differently-shaped operands
    (e.g. distributed ranks with varying local nnz).
    """
    buf = pool.get(key)
    if (
        buf is not None
        and buf.shape == _einsum_shape(spec, operands)
        and buf.dtype == np.result_type(*operands)
    ):
        try:
            return np.einsum(spec, *operands, out=buf)
        except (ValueError, TypeError):
            pass
    out = np.einsum(spec, *operands)
    if isinstance(out, np.ndarray) and out.ndim:
        pool[key] = out
    return out


def multiply_into(pool: Pool, key: Hashable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.multiply`` into a pooled buffer: an einsum that sums nothing.

    The shapes are checked like :func:`einsum_into`'s, since ufunc ``out=``
    broadcasts too.  Each element is the one rounded product
    ``einsum('ab,ab->ab')`` computes, except that einsum adds it to
    ``+0.0``, so a ``-0.0`` product reads ``+0.0`` there.
    """
    buf = pool.get(key)
    if (
        buf is not None
        and buf.shape == a.shape == b.shape
        and buf.dtype == np.result_type(a, b)
    ):
        return np.multiply(a, b, out=buf)
    out = np.multiply(a, b)
    if out.ndim:
        pool[key] = out
    return out


def reduceat_into(pool: Pool, key: Hashable, value: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    """``np.add.reduceat`` along axis 0 into a pooled buffer.

    The buffer shape is checked explicitly (like :func:`einsum_into`):
    ufunc ``out=`` arguments accept broadcast-compatible shapes, so a
    length-1 result would silently smear across a stale longer buffer.
    """
    buf = pool.get(key)
    expected = (len(starts),) + value.shape[1:]
    if buf is not None and buf.shape == expected and buf.dtype == value.dtype:
        try:
            return np.add.reduceat(value, starts, axis=0, out=buf)
        except (ValueError, TypeError):
            pass
    out = np.add.reduceat(value, starts, axis=0)
    pool[key] = out
    return out


def sum0_into(pool: Pool, key: Hashable, value: np.ndarray) -> np.ndarray:
    """``value.sum(axis=0)`` into a pooled buffer (shape checked, see above)."""
    buf = pool.get(key)
    if buf is not None and buf.shape == value.shape[1:] and buf.dtype == value.dtype:
        try:
            return np.sum(value, axis=0, out=buf)
        except (ValueError, TypeError):
            pass
    out = value.sum(axis=0)
    if isinstance(out, np.ndarray) and out.ndim:
        pool[key] = out
    return out


def scatter_lanes_into(pool: Pool, key: Hashable, src: np.ndarray, shape) -> np.ndarray:
    """A zeroed pooled buffer for a lane scatter (``fill(0)`` on reuse)."""
    buf = buffer(pool, key, shape, src.dtype)
    buf.fill(0)
    return buf
