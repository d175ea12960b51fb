"""Compressed Sparse Fiber (CSF) storage for sparse tensors.

CSF (Smith & Karypis, "Tensor-matrix products with a compressed sparse
tensor") stores an order-``d`` sparse tensor as a forest of depth ``d``:
level 0 holds the distinct indices of the first stored mode, the children of
a level-``k`` node are the distinct indices of mode ``k+1`` appearing under
that index prefix, and the values are attached to the leaves.

SpTTN loop nests iterate the sparse indices *in CSF storage order* (the
framework restricts loop orders to be consistent with this order, Section 5
of the paper), so the execution engine drives its sparse loops directly over
the level arrays stored here.

Representation
--------------
``fids[k]``
    1-D ``int64`` array of node index values at level ``k`` (length = number
    of distinct mode-prefixes of length ``k+1``, i.e. ``nnz_{I_1..I_{k+1}}``).
``fptr[k]``
    1-D ``int64`` array of length ``len(fids[k]) + 1``; the children of node
    ``p`` at level ``k`` occupy positions ``fptr[k][p]:fptr[k][p+1]`` of
    level ``k+1``.  There is no ``fptr`` for the last level.
``values``
    1-D ``float64`` array aligned with ``fids[order-1]``.
``leaf_perm``
    For a tensor built by :meth:`CSFTensor.from_coo`: the row of the source
    COO tensor each leaf came from (``values == coo.values[leaf_perm]``), or
    ``None`` when the leaves are the COO rows in order — the case for
    canonical COO in natural mode order, where ``values`` is the COO
    tensor's own array, not a copy.

The level arrays depend only on the sparsity pattern and the mode order,
so :func:`csf_for_mode_order` builds them once per pattern and binds each
new set of values to the shared structure.
"""

from __future__ import annotations

import weakref
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.sptensor.coo import COOTensor
from repro.util.lru import LRUCache
from repro.util.validation import require


class CSFTensor:
    """A sparse tensor in compressed sparse fiber format.

    Construct via :meth:`from_coo`; direct construction from level arrays is
    supported for tests and for distributed-local subtensors.
    """

    __slots__ = (
        "shape", "mode_order", "fids", "fptr", "values", "leaf_perm", "__weakref__"
    )

    def __init__(
        self,
        shape: Tuple[int, ...],
        mode_order: Tuple[int, ...],
        fids: List[np.ndarray],
        fptr: List[np.ndarray],
        values: np.ndarray,
        leaf_perm: Optional[np.ndarray] = None,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.mode_order = tuple(int(m) for m in mode_order)
        order = len(self.shape)
        require(
            sorted(self.mode_order) == list(range(order)),
            f"mode_order must be a permutation of 0..{order - 1}, got {mode_order}",
        )
        require(len(fids) == order, "fids must have one array per level")
        require(len(fptr) == order - 1, "fptr must have order-1 arrays")
        self.fids = [np.asarray(f, dtype=np.int64) for f in fids]
        self.fptr = [np.asarray(p, dtype=np.int64) for p in fptr]
        self.values = np.asarray(values, dtype=np.float64)
        self.leaf_perm = leaf_perm
        require(
            self.values.shape[0] == self.fids[-1].shape[0],
            "values must align with the leaf level",
        )
        for k in range(order - 1):
            require(
                self.fptr[k].shape[0] == self.fids[k].shape[0] + 1,
                f"fptr[{k}] must have len(fids[{k}])+1 entries",
            )
            require(
                int(self.fptr[k][-1]) == self.fids[k + 1].shape[0],
                f"fptr[{k}] must cover all nodes of level {k + 1}",
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(
        cls, coo: COOTensor, mode_order: Optional[Sequence[int]] = None
    ) -> "CSFTensor":
        """Build a CSF tensor from a COO tensor.

        Parameters
        ----------
        coo:
            Source tensor.
        mode_order:
            Order in which modes become CSF levels; defaults to the natural
            order ``(0, 1, ..., d-1)``.  The paper stores the sparse tensor
            once with a fixed mode order and restricts loop orders to it.
        """
        order = coo.order
        if mode_order is None:
            mode_order = tuple(range(order))
        else:
            mode_order = tuple(int(m) for m in mode_order)
            require(
                sorted(mode_order) == list(range(order)),
                f"mode_order must be a permutation of 0..{order - 1}",
            )
        if coo.nnz == 0:
            fids = [np.zeros(0, dtype=np.int64) for _ in range(order)]
            fptr = [np.zeros(1, dtype=np.int64) for _ in range(order - 1)]
            return cls(coo.shape, mode_order, fids, fptr, np.zeros(0))

        idx = coo.indices[:, list(mode_order)]
        # Sort lexicographically by the permuted index columns.
        perm: Optional[np.ndarray] = np.lexsort(idx.T[::-1])
        if np.array_equal(perm, np.arange(perm.shape[0])):
            perm, vals = None, coo.values
        else:
            idx = idx[perm]
            vals = coo.values[perm]

        fids: List[np.ndarray] = []
        fptr: List[np.ndarray] = []
        # ``group_ids`` assigns each nonzero the id of its length-(k+1) prefix.
        prev_group = np.zeros(idx.shape[0], dtype=np.int64)
        for level in range(order):
            keys = np.stack([prev_group, idx[:, level]], axis=1)
            # new prefix starts wherever the (group, index) pair changes
            change = np.ones(idx.shape[0], dtype=bool)
            if idx.shape[0] > 1:
                change[1:] = np.any(keys[1:] != keys[:-1], axis=1)
            group = np.cumsum(change) - 1
            starts = np.flatnonzero(change)
            fids.append(idx[starts, level].copy())
            if level > 0:
                # fptr for the previous level: where does each parent's child
                # range begin among this level's nodes?
                parent_of_node = prev_group[starts]
                n_parents = fids[level - 1].shape[0]
                counts = np.bincount(parent_of_node, minlength=n_parents)
                ptr = np.zeros(n_parents + 1, dtype=np.int64)
                np.cumsum(counts, out=ptr[1:])
                fptr.append(ptr)
            prev_group = group
        return cls(coo.shape, mode_order, fids, fptr, vals, leaf_perm=perm)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def level_shape(self) -> Tuple[int, ...]:
        """Dimensions of the tensor permuted into CSF level order."""
        return tuple(self.shape[m] for m in self.mode_order)

    def nnz_at_level(self, level: int) -> int:
        """Number of CSF nodes at *level* (``nnz_{I_1...I_{level+1}}`` of the paper)."""
        if level < 0 or level >= self.order:
            raise ValueError(f"level {level} out of range for order {self.order}")
        return int(self.fids[level].shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ", ".join(str(self.nnz_at_level(k)) for k in range(self.order))
        return (
            f"CSFTensor(shape={self.shape}, mode_order={self.mode_order}, "
            f"level_sizes=({sizes}))"
        )

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #
    def children_range(self, level: int, position: int) -> Tuple[int, int]:
        """Half-open range of child positions at ``level + 1`` for a node;
        ``(-1, 0)`` is the root, whose children are all level-0 nodes."""
        if level == -1 and position == 0:
            return 0, int(self.fids[0].shape[0])
        if level < 0 or level >= self.order - 1:
            raise ValueError(
                f"level {level} has no children (order {self.order})"
            )
        ptr = self.fptr[level]
        if position < 0 or position >= ptr.shape[0] - 1:
            raise ValueError(f"position {position} out of range at level {level}")
        return int(ptr[position]), int(ptr[position + 1])

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_coo(self) -> COOTensor:
        """Expand back to COO (in the original mode order)."""
        return COOTensor(self.shape, self.coordinates(), self.values, sort=True)

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    # ------------------------------------------------------------------ #
    # Vectorized views used by the execution engine
    # ------------------------------------------------------------------ #
    def expanded_level_indices(self, level: int) -> np.ndarray:
        """Index value of the level-*level* ancestor of every leaf (length nnz).

        Used by vectorized baseline executors that stream over all nonzeros
        at once rather than walking the tree.
        """
        if level < 0 or level >= self.order:
            raise ValueError(f"level {level} out of range")
        ids = self.fids[level]
        if level == self.order - 1:
            return ids
        lo = np.arange(ids.shape[0], dtype=np.int64)
        hi = lo + 1
        for lvl in range(level, self.order - 1):
            lo = self.fptr[lvl][lo]
            hi = self.fptr[lvl][hi]
        counts = hi - lo
        return np.repeat(ids, counts)

    def coordinates(self) -> np.ndarray:
        """``(nnz, order)`` coordinates of the leaves, in leaf order, with
        columns in the original mode order."""
        coords = np.empty((self.nnz, self.order), dtype=np.int64)
        for level, mode in enumerate(self.mode_order):
            coords[:, mode] = self.expanded_level_indices(level)
        return coords


# --------------------------------------------------------------------------- #
# Memoized conversion
# --------------------------------------------------------------------------- #
#: Budget of the process-wide structure memo.  A pattern of ``n`` nonzeros
#: costs at most ``8 * n * (2 * order)`` bytes per mode order (level arrays
#: plus a non-identity leaf permutation); larger structures are served but
#: not retained, and then live exactly as long as their source tensor does.
STRUCTURE_MEMO_BYTES = 32 << 20


class _Structure(NamedTuple):
    """What a CSF conversion computes from the pattern alone."""

    shape: Tuple[int, ...]
    fids: List[np.ndarray]
    fptr: List[np.ndarray]
    leaf_perm: Optional[np.ndarray]

    @property
    def nbytes(self) -> int:
        arrays = self.fids + self.fptr
        if self.leaf_perm is not None:
            arrays = arrays + [self.leaf_perm]
        return sum(int(a.nbytes) for a in arrays)


#: Locked, byte-budgeted; its ``misses`` are the COO sorts the process paid.
_STRUCTURE_MEMO = LRUCache(
    max_entries=None,
    max_bytes=STRUCTURE_MEMO_BYTES,
    name="csf",
)

#: Per-source-object fast path in front of the structure memo, keyed weakly
#: so entries disappear with their tensors.  Values map a CSF mode order to
#: ``(source values array, converted tensor)``.
_CONVERSION_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def csf_for_mode_order(
    tensor: "COOTensor | CSFTensor", mode_order: Sequence[int]
) -> "CSFTensor":
    """CSF view of a sparse tensor for one mode order, memoized by pattern.

    The one conversion path of the library: kernel construction reads the
    cost model's ``nnz_{I_1...I_k}`` from the returned tensor's level sizes
    and the executor then iterates the same object.

    Two memos sit in front of :meth:`CSFTensor.from_coo`.  Per source
    object, the converted tensor itself: repeated calls return the *same*
    ``CSFTensor`` while ``tensor.values`` is the same array.  Process-wide,
    the CSF *structure* (level arrays and leaf permutation) keyed by
    ``(COOTensor.pattern_digest(), mode_order, shape, nnz)``: any tensor with a pattern
    seen before — decoded from the wire again, or derived with
    :meth:`COOTensor.with_values` — only gathers its values into a new
    ``CSFTensor`` sharing the stored level arrays, so the sort is paid once
    per (pattern, mode order) per process, the SPLATT-style amortization
    across ALS sweeps extended across tensor objects.

    Source tensors are immutable.  Rebinding ``tensor.values`` to a new
    array is detected (by identity) and re-gathers; writing into ``values``
    or ``indices`` *in place* after the first conversion is unsupported and
    leaves the memoized CSF (and pattern digest) stale — build a new tensor
    instead, as all library code does.
    """
    mode_order = tuple(map(int, mode_order))
    if isinstance(tensor, CSFTensor) and tensor.mode_order == mode_order:
        return tensor
    per_source = _CONVERSION_MEMO.get(tensor)
    if per_source is not None:
        entry = per_source.get(mode_order)
        if entry is not None and entry[0] is tensor.values:
            return entry[1]
    coo = tensor.to_coo() if isinstance(tensor, CSFTensor) else tensor
    csf = _convert(coo, mode_order)
    _CONVERSION_MEMO.setdefault(tensor, {})[mode_order] = (tensor.values, csf)
    return csf


def _convert(coo: COOTensor, mode_order: Tuple[int, ...]) -> CSFTensor:
    """Bind *coo*'s values to memoized structure, building it on a miss."""

    def build() -> _Structure:
        csf = CSFTensor.from_coo(coo, mode_order)
        return _Structure(csf.shape, csf.fids, csf.fptr, csf.leaf_perm)

    # a digest match alone never binds: shape and nnz are part of the key
    key = (coo.pattern_digest(), mode_order, coo.shape, coo.nnz)
    known = _STRUCTURE_MEMO.get_or_create(key, build)
    # the structure was checked when it was built: bind the values unchecked
    csf = CSFTensor.__new__(CSFTensor)
    csf.shape, csf.mode_order, csf.fids, csf.fptr = known.shape, mode_order, known.fids, known.fptr
    csf.leaf_perm = perm = known.leaf_perm
    csf.values = coo.values if perm is None else coo.values[perm]
    return csf


def default_structure_memo() -> LRUCache:
    """The process-wide structure memo behind :func:`csf_for_mode_order`."""
    return _STRUCTURE_MEMO
