"""Coordinate-format (COO) sparse tensors.

The COO tensor is the interchange format of the library: tensors are built
or loaded as COO, deduplicated and sorted, and then converted to
:class:`~repro.sptensor.csf.CSFTensor` for execution.  A small set of
data-independent reductions (``nnz`` of index prefixes and subsets, mode
marginals) is provided here because they are naturally expressed over
coordinates.  Kernel construction does not call them: the cost model's
``nnz_{I_1...I_k}`` are read from the CSF level sizes
(:func:`~repro.sptensor.csf.csf_for_mode_order`), and the sorting
reductions here are the independent oracle the tests compare those against.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.util.digest import blake2s_digest
from repro.util.validation import as_index_array, check_shape, require

#: ``(id(frame), address, nbytes, header)`` -> the latest tensor whose indices
#: view that range of an immutable ``bytes`` frame; weak, so it pins no frame.
_FRAME_DIGESTS: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
_DIGEST_COUNTS = {"digests": 0, "digest_reuses": 0}
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
        require(
            idx.shape[0] == vals.shape[0],
            f"indices has {idx.shape[0]} rows but values has {vals.shape[0]} entries",
        )
        for mode, dim in enumerate(self.shape):
            if idx.shape[0] and idx[:, mode].max() >= dim:
                raise ValueError(
                    f"index {idx[:, mode].max()} out of range for mode {mode} "
                    f"of dimension {dim}"
                )
        idx, vals = _dedupe(idx, vals)
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

    def copy(self) -> "COOTensor":
        return self.with_values(self.values)

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
        """16-byte blake2s digest of the sparsity pattern (shape + coordinates).

        Two tensors with equal digests have the same shape and the same
        ``indices`` array, whatever their values; the CSF structure memo of
        :func:`~repro.sptensor.csf.csf_for_mode_order` is keyed by it.
        Computed on first use (one pass over the index buffer, no copy) and
        inherited by :meth:`with_values` / :meth:`copy`; the tensor is
        immutable by contract, so ``indices`` must not be written in place
        afterwards.

        A tensor viewing the same range of the same live ``bytes`` wire frame
        as an earlier one, under the same header, takes that one's digest.
        """
        if self._pattern is None:
            idx = np.ascontiguousarray(self.indices)
            header = f"{self.shape}{idx.dtype.str}".encode("ascii")
            frame = _frame_of(idx)
            key = frame is not None and (id(frame), idx.ctypes.data, idx.nbytes, header)
            prior = _FRAME_DIGESTS.get(key)
            reused = prior is not None and _frame_of(prior.indices) is frame
            self._pattern = prior._pattern if reused else blake2s_digest(header, idx)
            if key:
                _FRAME_DIGESTS[key] = self
            with _DIGEST_LOCK:
                _DIGEST_COUNTS["digest_reuses" if reused else "digests"] += 1
        return self._pattern

    # ------------------------------------------------------------------ #
    # Conversions and views
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ``numpy.ndarray`` (use only for small tensors)."""
        total = int(np.prod(self.shape))
        out = np.zeros(total, dtype=np.float64)
        if self.nnz:
            flat = np.ravel_multi_index(self.indices.T, self.shape)
            np.add.at(out, flat, self.values)
        return out.reshape(self.shape)

    def transpose(self, perm: Sequence[int]) -> "COOTensor":
        """Permute modes according to *perm* (a permutation of ``range(order)``)."""
        perm = tuple(int(p) for p in perm)
        require(
            sorted(perm) == list(range(self.order)),
            f"perm must be a permutation of 0..{self.order - 1}, got {perm}",
        )
        new_shape = tuple(self.shape[p] for p in perm)
        new_idx = self.indices[:, list(perm)]
        return COOTensor(new_shape, new_idx, self.values, sort=True)

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

    def nnz_modes(self, modes: Sequence[int]) -> int:
        """Number of distinct index tuples over an arbitrary subset of modes."""
        modes = [int(m) for m in modes]
        for m in modes:
            if m < 0 or m >= self.order:
                raise ValueError(f"mode {m} out of range for order {self.order}")
        if not modes:
            return 1 if self.nnz else 0
        if self.nnz == 0:
            return 0
        sub = self.indices[:, modes]
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

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic on matching patterns
    # ------------------------------------------------------------------ #
    def same_pattern(self, other: "COOTensor") -> bool:
        """True when *other* has identical shape and stored coordinates."""
        return (
            isinstance(other, COOTensor)
            and self.shape == other.shape
            and self.indices.shape == other.indices.shape
            and bool(np.array_equal(self.indices, other.indices))
        )

    def _check_same_pattern(self, other: "COOTensor") -> None:
        if not self.same_pattern(other):
            raise ValueError(
                "operation requires two sparse tensors with the same pattern"
            )

    def __add__(self, other: "COOTensor") -> "COOTensor":
        self._check_same_pattern(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "COOTensor") -> "COOTensor":
        self._check_same_pattern(other)
        return self.with_values(self.values - other.values)

    def hadamard(self, other: "COOTensor") -> "COOTensor":
        """Elementwise product of two same-pattern sparse tensors."""
        self._check_same_pattern(other)
        return self.with_values(self.values * other.values)

    def scale(self, alpha: float) -> "COOTensor":
        return self.with_values(self.values * float(alpha))

    # ------------------------------------------------------------------ #
    # Iteration & equality
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterable[Tuple[Tuple[int, ...], float]]:
        for row, val in zip(self.indices, self.values):
            yield tuple(int(r) for r in row), float(val)

    def allclose(self, other: "COOTensor", rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Numerically compare two sparse tensors (patterns must match)."""
        if not self.same_pattern(other):
            return False
        return bool(np.allclose(self.values, other.values, rtol=rtol, atol=atol))


def digest_stats() -> Dict[str, int]:
    """``digests`` (blake2s passes run), ``digest_reuses`` (frame memo hits)."""
    with _DIGEST_LOCK:
        return dict(_DIGEST_COUNTS)


def _frame_of(arr: np.ndarray) -> Optional[bytes]:
    """The immutable ``bytes`` object whose memory *arr* views, if any."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    frame = arr.obj if isinstance(arr, memoryview) else arr
    return frame if type(frame) is bytes else None


def _dedupe(indices: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum values at duplicate coordinates, merged rows in lexicographic order.

    Rows are compared column by column, never through a linear index, which
    would overflow int64 once the dense size passes ``2**63``.
    """
    if indices.shape[0] <= 1:
        return indices, values
    rising = np.zeros(indices.shape[0] - 1, dtype=bool)
    tied = ~rising
    for col in indices.T:
        rising |= tied & (col[1:] > col[:-1])
        tied &= col[1:] == col[:-1]
    if bool(np.all(rising)):
        # strictly increasing coordinates are unique: canonical input
        # (wire-decoded, shared-memory and CSF round trips) skips the sort
        return indices, values
    uniq, inverse = np.unique(indices, axis=0, return_inverse=True)
    if uniq.shape[0] == indices.shape[0]:
        return indices, values
    summed = np.zeros(uniq.shape[0], dtype=np.float64)
    np.add.at(summed, inverse.ravel(), values)
    return uniq, summed
