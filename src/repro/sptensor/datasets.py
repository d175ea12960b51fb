"""FROSTT-style dataset presets.

The paper's single-node experiments use FROSTT tensors (nell-2, nips, enron,
vast-3d, darpa-1998).  Those files are hundreds of megabytes to tens of
gigabytes and are not redistributable inside this repository, so each preset
here records the *published* mode sizes and nonzero counts and generates a
synthetic tensor with the same order, proportionally scaled dimensions and
nnz, and a skewed (power-law) nonzero distribution.  The substitution is
sound because the loop-nest search is data-independent (it only
consumes mode sizes and CSF-level nonzero counts), and skewed synthetic
patterns exercise the same execution paths and load-imbalance behaviour as
the real data.

If real FROSTT ``.tns`` files are available locally, pass their path to
:func:`load_preset` via ``tns_path`` to run on the genuine data instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.sptensor.coo import COOTensor
from repro.sptensor.generate import power_law_sparse_tensor, random_sparse_tensor
from repro.sptensor.io import read_tns
from repro.util.validation import require


@dataclass(frozen=True)
class DatasetSpec:
    """Published statistics of a FROSTT (or DARPA) tensor used in the paper."""

    name: str
    full_shape: Tuple[int, ...]
    full_nnz: int
    skewed: bool = True
    description: str = ""

    @property
    def order(self) -> int:
        return len(self.full_shape)


#: Published FROSTT / DARPA statistics (rounded to the values reported by
#: FROSTT).  These drive the scaled synthetic generators.
_PRESETS: Dict[str, DatasetSpec] = {
    "nell-2": DatasetSpec(
        name="nell-2",
        full_shape=(12092, 9184, 28818),
        full_nnz=76_879_419,
        description="NELL knowledge-base triples (entity, relation, entity).",
    ),
    "nips": DatasetSpec(
        name="nips",
        full_shape=(2482, 2862, 14036, 17),
        full_nnz=3_101_609,
        description="NIPS papers (paper, author, word, year).",
    ),
    "enron": DatasetSpec(
        name="enron",
        full_shape=(6066, 5699, 244268, 1176),
        full_nnz=54_202_099,
        description="Enron emails (sender, receiver, word, date).",
    ),
    "vast-3d": DatasetSpec(
        name="vast-3d",
        full_shape=(165427, 11374, 2),
        full_nnz=26_021_854,
        description="VAST 2015 challenge, 3-way projection.",
    ),
    "darpa": DatasetSpec(
        name="darpa",
        full_shape=(22476, 22476, 23776223),
        full_nnz=28_436_033,
        description="1998 DARPA intrusion detection (src IP, dst IP, time).",
    ),
    "amazon": DatasetSpec(
        name="amazon",
        full_shape=(4821207, 1774269, 1805187),
        full_nnz=1_741_809_018,
        description="Amazon reviews (user, item, word).",
    ),
    "random-3d": DatasetSpec(
        name="random-3d",
        full_shape=(8192, 8192, 8192),
        full_nnz=549_755,  # 0.1% of 8192^3 is far larger; this is the scaled target
        skewed=False,
        description="Uniform random order-3 tensor used in strong-scaling runs.",
    ),
    "random-4d": DatasetSpec(
        name="random-4d",
        full_shape=(1024, 1024, 1024, 1024),
        full_nnz=1_099_511,
        skewed=False,
        description="Uniform random order-4 tensor used in strong-scaling runs.",
    ),
}


def dataset_presets() -> Dict[str, DatasetSpec]:
    """All available dataset presets, keyed by name."""
    return dict(_PRESETS)


def load_preset(
    name: str,
    scale: float = 1e-3,
    max_nnz: int = 200_000,
    seed: Optional[int] = 0,
    tns_path: Optional[str] = None,
) -> COOTensor:
    """Load a dataset preset as a (scaled) synthetic tensor or a real file.

    Parameters
    ----------
    name:
        Preset name (see :func:`dataset_presets`).
    scale:
        Linear scale factor applied to each mode dimension.  nnz is scaled so
        that the *density* of the original tensor is approximately preserved,
        then clamped to ``max_nnz``.
    max_nnz:
        Upper bound on generated nonzeros so Python-scale experiments finish.
    seed:
        Generator seed.
    tns_path:
        If given, load the real FROSTT ``.tns`` file from this path instead
        of generating synthetic data (scale/max_nnz are then ignored).
    """
    if name not in _PRESETS:
        raise KeyError(
            f"unknown dataset preset {name!r}; available: {sorted(_PRESETS)}"
        )
    spec = _PRESETS[name]
    if tns_path is not None:
        return read_tns(tns_path)
    require(0.0 < scale <= 1.0, f"scale must be in (0, 1], got {scale}")
    shape = tuple(max(4, int(round(s * scale))) for s in spec.full_shape)
    dense_scaled = 1.0
    for s in shape:
        dense_scaled *= float(s)
    # Scale the nonzero count linearly with the mode scale (preserving the
    # average number of nonzeros per slice rather than the overall density,
    # which would leave the scaled tensor nearly empty), then clamp.
    nnz = int(round(spec.full_nnz * scale))
    nnz = min(int(max_nnz), nnz, max(1, int(0.3 * dense_scaled)))
    nnz = max(nnz, min(64, int(dense_scaled)))
    if spec.skewed:
        return power_law_sparse_tensor(shape, nnz=nnz, seed=seed, exponent=1.2)
    return random_sparse_tensor(shape, nnz=nnz, seed=seed)
