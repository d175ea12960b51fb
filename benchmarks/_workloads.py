"""Shared workloads and helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation (see the experiment index in DESIGN.md and the recorded outcomes
in EXPERIMENTS.md).  Absolute times differ from the paper — the substrate is
a pure-Python/NumPy runtime rather than compiled C++ on Stampede2 — but the
*shape* of each comparison (who wins, by roughly what factor, where the
crossovers are) is the quantity under test.

Workload sizes are scaled-down versions of the paper's datasets (see
``repro.sptensor.datasets``) so a full benchmark run finishes in minutes.
Pass real FROSTT files via ``load_preset(..., tns_path=...)`` to run at full
scale.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.sptensor import COOTensor, load_preset, random_dense_matrix

#: Base seed for every benchmark RNG; change in one place to re-roll all
#: benchmark inputs.
BASE_SEED = 0


def bench_rng(salt: int = 0) -> np.random.Generator:
    """The one RNG factory all benchmarks draw from (deterministic in CI).

    Every source of randomness in the benchmark harness must come from this
    helper (or from the seeded tensor factories below, which derive their
    seeds from explicit constants), so two CI runs see identical inputs.
    *salt* decorrelates multiple streams within one benchmark.
    """
    return np.random.default_rng(BASE_SEED + salt)

#: Dataset presets used by the single-node kernel comparisons (Figure 7 and
#: the TTMc speedup discussion).  Scales keep every baseline under ~1 s per
#: run on the Python substrate.
FIG7_DATASETS = ("nell-2", "nips", "vast-3d")
FIG7_MAX_NNZ = 3000

#: Rank used by the MTTKRP comparison (the paper uses R = 64).
FIG7_RANK = 64

#: Ranks used by the TTMc comparisons (the paper uses R = S = 16 for order 3).
TTMC_RANK = 16


def preset_tensor(name: str, max_nnz: int = FIG7_MAX_NNZ, seed: int = 0) -> COOTensor:
    return load_preset(name, scale=2e-3, max_nnz=max_nnz, seed=seed)


def factor_matrices(tensor: COOTensor, rank: int, seed: int = 0):
    return [
        random_dense_matrix(dim, rank, seed=seed + mode)
        for mode, dim in enumerate(tensor.shape)
    ]


def record_rows(benchmark, rows: Sequence[Dict[str, object]]) -> None:
    """Attach result rows to the pytest-benchmark record (shown with --benchmark-json)."""
    benchmark.extra_info["rows"] = list(rows)
