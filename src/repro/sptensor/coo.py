"""Coordinate-format (COO) sparse tensors.

The COO tensor is the interchange format of the library: tensors are built
or loaded as COO, deduplicated and sorted, and then converted to
:class:`~repro.sptensor.csf.CSFTensor` for execution.  A small set of
data-independent reductions (``nnz`` of index prefixes, mode marginals) is
provided here because they are naturally expressed over coordinates.  Kernel construction does not call them: the cost model's
``nnz_{I_1...I_k}`` are read from the CSF level sizes
(:func:`~repro.sptensor.csf.csf_for_mode_order`), and the sorting
reductions here are the independent oracle the tests compare those against.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.util.digest import content_digest
from repro.util.validation import as_index_array, check_shape, require

_DIGEST_COUNTS = {"digests": 0}
_DIGEST_LOCK = threading.Lock()


class COOTensor:
    """A sparse tensor stored as coordinates plus values.

    Parameters
    ----------
    shape:
        Dimensions of the tensor, one entry per mode.
    indices:
        Integer array of shape ``(nnz, order)``; each row is the multi-index
        of one stored entry.  Duplicate coordinates are summed.
    values:
        Array of shape ``(nnz,)`` with the stored values.
    sort:
        When true (default), entries are sorted lexicographically by index,
        which is the canonical internal ordering.

    Notes
    -----
    Explicit zeros are retained: sparsity in SpTTN kernels encodes the set of
    *observed* entries (e.g. in tensor completion), which is meaningful even
    when an observed value happens to be zero.
    """

    __slots__ = ("shape", "indices", "values", "_pattern", "__weakref__")

    def __init__(
        self,
        shape: Sequence[int],
        indices: Sequence[Sequence[int]],
        values: Sequence[float],
        sort: bool = True,
    ) -> None:
        self.shape: Tuple[int, ...] = check_shape(shape)
        order = len(self.shape)
        idx = as_index_array(indices, order)
        vals = np.asarray(values, dtype=np.float64).ravel()
        if len(idx) != len(vals):
            raise ValueError(f"indices has {len(idx)} rows but values has {len(vals)} entries")
        tops = idx.max(axis=0).tolist() if len(idx) else ()  # one reduction for every mode
        for mode, (top, dim) in enumerate(zip(tops, self.shape)):
            if top >= dim:
                raise ValueError(f"index {top} out of range for mode {mode} of dimension {dim}")
        idx, vals = _dedupe(idx, vals, self.shape)
        if sort and idx.shape[0] > 1:
            perm = np.lexsort(idx.T[::-1])
            idx = idx[perm]
            vals = vals[perm]
        self.indices = idx
        self.values = vals
        self._pattern: Optional[bytes] = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        """Number of modes (tensor order)."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.shape[0])

    @property
    def density(self) -> float:
        """Fraction of stored entries relative to the dense size."""
        total = float(np.prod([float(s) for s in self.shape]))
        return self.nnz / total if total > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"COOTensor(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3e})"
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, array: np.ndarray, tol: float = 0.0) -> "COOTensor":
        """Build a COO tensor from a dense array, dropping entries ``<= tol``."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim == 0:
            raise ValueError("cannot build a COO tensor from a scalar")
        mask = np.abs(array) > tol
        coords = np.argwhere(mask)
        vals = array[mask]
        return cls(array.shape, coords, vals, sort=True)

    @classmethod
    def empty(cls, shape: Sequence[int]) -> "COOTensor":
        """An all-zero sparse tensor with the given shape."""
        shape = check_shape(shape)
        return cls(shape, np.zeros((0, len(shape)), dtype=np.int64), np.zeros(0))

    def with_values(self, values: np.ndarray) -> "COOTensor":
        """Return a tensor with the same pattern but new values."""
        values = np.asarray(values, dtype=np.float64).ravel()
        require(
            values.shape[0] == self.nnz,
            f"expected {self.nnz} values, got {values.shape[0]}",
        )
        return COOTensor.on_pattern(self.shape, self.indices.copy(), values.copy(), self)

    @classmethod
    def on_pattern(
        cls,
        shape: Tuple[int, ...],
        indices: np.ndarray,
        values: np.ndarray,
        source: Optional["COOTensor"] = None,
    ) -> "COOTensor":
        """Wrap rows that are already canonical, unchecked and uncopied.

        *indices* must be unique, in-range ``int64`` rows in lexicographic
        order and *values* a matching ``float64`` vector; a *source* tensor
        with the same rows lends its pattern digest.
        """
        out = cls.__new__(cls)
        out.shape, out.indices, out.values = shape, indices, values
        out._pattern = source._pattern if source is not None else None
        return out

    def pattern_digest(self) -> bytes:
        """16-byte digest of the sparsity pattern (shape + coordinates).

        Two tensors with equal digests have the same shape and the same
        ``indices`` array, whatever their values; the CSF structure memo of
        :func:`~repro.sptensor.csf.csf_for_mode_order` is keyed by it.
        Computed on first use (one :func:`~repro.util.digest.content_digest`
        pass over the index buffer, no copy) and inherited by
        :meth:`with_values` and any :meth:`on_pattern` tensor
        given this one as its source; the tensor is immutable by contract, so
        ``indices`` must not be written in place afterwards.
        """
        if self._pattern is None:
            idx = np.ascontiguousarray(self.indices)
            header = f"{self.shape}{idx.dtype.str}".encode("ascii")
            self._pattern = content_digest(header, idx)
            with _DIGEST_LOCK:
                _DIGEST_COUNTS["digests"] += 1
        return self._pattern

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ``numpy.ndarray`` (use only for small tensors)."""
        total = int(np.prod(self.shape))
        out = np.zeros(total, dtype=np.float64)
        if self.nnz:
            flat = np.ravel_multi_index(self.indices.T, self.shape)
            np.add.at(out, flat, self.values)
        return out.reshape(self.shape)

    # ------------------------------------------------------------------ #
    # Reductions used by the cost models
    # ------------------------------------------------------------------ #
    def nnz_prefix(self, depth: int) -> int:
        """``nnz_{I_1...I_depth}(T)``: distinct index prefixes of length *depth*.

        This equals the number of nodes at level *depth* of the CSF tree with
        modes stored in their natural order, and is the quantity the paper's
        operation-count analysis uses (Section 2.2).
        """
        if depth < 0 or depth > self.order:
            raise ValueError(
                f"depth must be between 0 and {self.order}, got {depth}"
            )
        if depth == 0:
            return 1 if self.nnz else 0
        if self.nnz == 0:
            return 0
        sub = self.indices[:, :depth]
        return int(np.unique(sub, axis=0).shape[0])

    def mode_marginal(self, mode: int) -> np.ndarray:
        """Count of stored entries per index of *mode* (length ``shape[mode]``)."""
        if mode < 0 or mode >= self.order:
            raise ValueError(f"mode {mode} out of range for order {self.order}")
        out = np.zeros(self.shape[mode], dtype=np.int64)
        if self.nnz:
            np.add.at(out, self.indices[:, mode], 1)
        return out

    def frobenius_norm(self) -> float:
        """Frobenius norm of the tensor."""
        return float(np.sqrt(np.sum(self.values * self.values)))

    def same_pattern(self, other: "COOTensor") -> bool:
        """True when *other* has identical shape and stored coordinates."""
        return (
            isinstance(other, COOTensor)
            and self.shape == other.shape
            and self.indices.shape == other.indices.shape
            and bool(np.array_equal(self.indices, other.indices))
        )


def digest_stats() -> Dict[str, int]:
    """``digests``: pattern digests this process computed."""
    with _DIGEST_LOCK:
        return dict(_DIGEST_COUNTS)


def _dedupe(
    indices: np.ndarray, values: np.ndarray, shape: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Sum values at duplicate coordinates, merged rows in lexicographic order.

    Canonical input (rows strictly rising: wire, shared-memory and CSF round
    trips) is returned as is after one pass over the row-major linear index of
    the in-range *indices*, or column by column past a dense size of ``2**63``.
    """
    if indices.shape[0] <= 1:
        return indices, values
    if math.prod(shape) < 2**63:
        linear = indices @ np.array([math.prod(shape[k + 1 :]) for k in range(len(shape))])
        rising = linear[1:] > linear[:-1]
    else:
        rising = np.zeros(indices.shape[0] - 1, dtype=bool)
        tied = ~rising
        for col in indices.T:
            rising |= tied & (col[1:] > col[:-1])
            tied &= col[1:] == col[:-1]
    if bool(np.all(rising)):
        return indices, values
    uniq, inverse = np.unique(indices, axis=0, return_inverse=True)
    if uniq.shape[0] == indices.shape[0]:
        return indices, values
    summed = np.zeros(uniq.shape[0], dtype=np.float64)
    np.add.at(summed, inverse.ravel(), values)
    return uniq, summed
