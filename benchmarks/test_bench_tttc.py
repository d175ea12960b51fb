"""E6 — TTTc: tensor-train contraction of a higher-order sparse tensor.

The paper evaluates TTTc on synthetic order-6 tensors (dimension 80,
sparsity 0.1-1%, R = 16) for strong scaling, and reports a 534x speedup over
TACO on a smaller tensor (N = 40, 0.1%), since the unfactorized schedule
pays the product of all bond dimensions per nonzero.

Expected shape: the fused SpTTN-Cyclops execution beats the unfactorized
baseline by a large factor, and the simulated strong scaling improves with
the process count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import strong_scaling
from repro.frameworks import SpTTNCyclopsBaseline, TacoLikeBaseline
from repro.kernels.tttc import tt_core_shapes, tttc_kernel
from repro.sptensor import random_sparse_tensor

from _workloads import record_rows

RANK = 8
PROCESS_COUNTS = (1, 2, 4, 8, 16, 32)


def _setup(order=6, dim=14, nnz=1200, rank=RANK, seed=0):
    tensor = random_sparse_tensor(tuple(dim for _ in range(order)), nnz=nnz, seed=seed)
    rng = np.random.default_rng(seed + 1)
    cores = [rng.random(shape) for shape in tt_core_shapes(tensor.shape, rank)]
    return tttc_kernel(tensor, cores, removed_core=order - 1)


@pytest.mark.parametrize("framework", ["spttn-cyclops", "taco-unfactorized"])
def test_tttc_order6_vs_unfactorized(benchmark, framework):
    kernel, tensors = _setup()
    baseline = (
        SpTTNCyclopsBaseline() if framework == "spttn-cyclops" else TacoLikeBaseline()
    )
    if isinstance(baseline, SpTTNCyclopsBaseline):
        baseline.schedule_for(kernel)
    benchmark.extra_info.update(framework=framework, kernel="tttc-order6", rank=RANK)
    result = benchmark.pedantic(
        lambda: baseline.run(kernel, tensors), rounds=2, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["flops"] = result.counter.flops


@pytest.mark.smoke
def test_tttc_strong_scaling(benchmark):
    kernel, tensors = _setup(order=6, dim=12, nnz=900, seed=3)
    result = benchmark.pedantic(
        lambda: strong_scaling(kernel, tensors, PROCESS_COUNTS, kernel_name="tttc"),
        rounds=1,
        iterations=1,
    )
    record_rows(benchmark, result.as_rows())
    times = result.times()
    assert times[-1] < times[0]
