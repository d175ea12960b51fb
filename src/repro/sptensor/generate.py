"""Synthetic sparse tensor generators.

The paper evaluates on FROSTT datasets plus randomly generated tensors of
prescribed order, dimension and sparsity.  FROSTT files are not bundled with
this repository (no network access), so the dataset presets in
:mod:`repro.sptensor.datasets` are backed by these generators: uniform random
patterns for the synthetic strong-scaling experiments and power-law (skewed)
patterns that mimic the long-tailed mode distributions of real FROSTT
tensors such as nell-2 or enron.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.sptensor.coo import COOTensor
from repro.util.validation import check_positive_int, check_shape, require


def _resolve_nnz(shape: Tuple[int, ...], nnz: Optional[int], density: Optional[float]) -> int:
    total = float(np.prod([float(s) for s in shape]))
    if (nnz is None) == (density is None):
        raise ValueError("exactly one of nnz or density must be given")
    if nnz is None:
        require(0.0 < density <= 1.0, f"density must be in (0, 1], got {density}")
        nnz = int(round(total * float(density)))
    nnz = max(1, int(nnz))
    require(nnz <= total, f"requested nnz={nnz} exceeds dense size {int(total)}")
    return nnz


def _unique_rows(rows: np.ndarray, into: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.unique(rows, axis=0)`` by a lexsort, without its void-dtype sort.

    With *into* (sorted and unique), ``_unique_rows(np.vstack([into, rows]))``
    sorting *rows* alone: each new row is inserted at its place in *into*,
    found on big-endian bytes, which order non-negative ids as the numbers do.
    """
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(rows.shape[0], dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    if into is None:
        return rows[keep]
    keys, new = (
        np.ascontiguousarray(r, dtype=">i8").view(f"V{8 * r.shape[1]}").ravel()
        for r in (into, rows)
    )
    pos = np.searchsorted(keys, new)
    seen = pos < keys.size
    seen[seen] = keys[pos[seen]] == new[seen]
    keep &= ~seen
    return np.insert(into, pos[keep], rows[keep], axis=0)


def _dedupe_target(
    draw, shape: Tuple[int, ...], nnz: int, rng: np.random.Generator, max_rounds: int = 64
) -> np.ndarray:
    """Draw index rows with *draw* until *nnz* distinct coordinates are found."""
    collected = np.zeros((0, len(shape)), dtype=np.int64)
    for _ in range(max_rounds):
        need = nnz - collected.shape[0]
        collected = _unique_rows(draw(int(need * 1.3) + 8), into=collected)
        if collected.shape[0] >= nnz:
            break
    if collected.shape[0] < nnz:
        raise RuntimeError(
            f"could not generate {nnz} distinct coordinates for shape {shape}"
        )
    sel = rng.choice(collected.shape[0], size=nnz, replace=False)
    return collected[np.sort(sel)]


def random_sparse_tensor(
    shape: Sequence[int],
    nnz: Optional[int] = None,
    density: Optional[float] = None,
    seed: Optional[int] = None,
    value_distribution: str = "uniform",
) -> COOTensor:
    """A sparse tensor whose nonzero coordinates are uniform without replacement.

    Parameters
    ----------
    shape:
        Tensor dimensions.
    nnz, density:
        Exactly one must be given: the number of stored entries or the
        fraction of the dense size.
    seed:
        Seed for reproducibility.
    value_distribution:
        ``"uniform"`` (values in [0,1)), ``"normal"`` (standard normal) or
        ``"ones"`` (all stored values are 1.0, useful for counting tests).
    """
    shape = check_shape(shape)
    nnz = _resolve_nnz(shape, nnz, density)
    rng = np.random.default_rng(seed)
    total = math.prod(shape)
    if total <= 2 ** 62 and total > 0:
        # Sample flat positions without replacement when the dense size fits
        # in an integer range; this is exact and fast for the sizes we use.
        flat = rng.choice(total, size=nnz, replace=False)
        coords = np.stack(np.unravel_index(np.sort(flat), shape), axis=1).astype(np.int64)
    else:  # pragma: no cover - astronomically large shapes
        def draw(n: int) -> np.ndarray:
            return np.stack(
                [rng.integers(0, s, size=n) for s in shape], axis=1
            ).astype(np.int64)

        coords = _dedupe_target(draw, shape, nnz, rng)
    values = _draw_values(rng, nnz, value_distribution)
    return COOTensor(shape, coords, values, sort=True)


def power_law_sparse_tensor(
    shape: Sequence[int],
    nnz: Optional[int] = None,
    density: Optional[float] = None,
    seed: Optional[int] = None,
    exponent: float = 1.1,
    value_distribution: str = "uniform",
) -> COOTensor:
    """A sparse tensor with skewed (Zipf-like) per-mode index distributions.

    Real FROSTT tensors have highly non-uniform mode marginals (a few very
    dense slices, a long tail of nearly empty ones).  This generator draws
    each coordinate of each mode from a truncated Zipf distribution with the
    given *exponent*, then de-duplicates, reproducing that skew.
    """
    shape = check_shape(shape)
    nnz = _resolve_nnz(shape, nnz, density)
    require(exponent > 1.0, f"exponent must exceed 1.0, got {exponent}")
    rng = np.random.default_rng(seed)

    def draw(n: int) -> np.ndarray:
        cols = []
        for s in shape:
            # truncated Zipf via inverse-CDF on a precomputed table
            ranks = np.arange(1, s + 1, dtype=np.float64)
            probs = ranks ** (-exponent)
            probs /= probs.sum()
            cols.append(rng.choice(s, size=n, p=probs))
        # Random per-mode permutation so the "hot" indices are not all 0.
        out = np.stack(cols, axis=1).astype(np.int64)
        return out

    coords = _dedupe_target(draw, shape, nnz, rng)
    # Permute hot indices to random positions, consistently per mode.
    for mode, s in enumerate(shape):
        perm = rng.permutation(s)
        coords[:, mode] = perm[coords[:, mode]]
    values = _draw_values(rng, nnz, value_distribution)
    return COOTensor(shape, coords, values, sort=True)


def random_dense_matrix(rows: int, cols: int, seed: Optional[int] = None) -> np.ndarray:
    """A ``rows x cols`` float64 factor matrix with i.i.d. uniform [0, 1) entries."""
    rows = check_positive_int(rows, "rows")
    cols = check_positive_int(cols, "cols")
    return np.random.default_rng(seed).random((rows, cols))


def _draw_values(rng: np.random.Generator, n: int, distribution: str) -> np.ndarray:
    if distribution == "uniform":
        vals = rng.random(n)
        # Shift away from zero so that explicit zeros never appear by chance.
        return vals * 0.9 + 0.1
    if distribution == "normal":
        return rng.standard_normal(n)
    if distribution == "ones":
        return np.ones(n)
    raise ValueError(
        f"unknown value_distribution {distribution!r}; "
        "expected 'uniform', 'normal' or 'ones'"
    )
