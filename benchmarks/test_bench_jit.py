"""JIT/codegen tier vs the lowered tier: what the peephole fusions buy.

The jit tier (:mod:`repro.engine.lowering.codegen`) compiles a lowered
program into one fused callable: straight-line NumPy specialized per
program, pooled buffers reused across runs, bind-time index preparation,
and SpMM / per-segment-GEMM peephole fusions.  The lowered tier compiles
the same program without the fusions, so this module measures exactly
their gain, on the paper's fig7 MTTKRP datasets and the TTMc workload —
the same workloads the lowered tier is benchmarked on.

Expected shape: the fusions collapse the dominant gather/scale/reduce
chains into single CSR SpMMs and the large-segment outer products into
per-segment GEMMs — >= 2x over the lowered tier on every fig7 MTTKRP
dataset and on TTMc.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.expr import parse_kernel
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.kernels.mttkrp import mttkrp_kernel
from repro.sptensor import random_dense_matrix, random_sparse_tensor

from _workloads import (
    FIG7_DATASETS,
    FIG7_RANK,
    TTMC_RANK,
    factor_matrices,
    preset_tensor,
    record_rows,
)

REPEATS = 15
TRIALS = 3


def _mttkrp_case(dataset):
    tensor = preset_tensor(dataset)
    factors = factor_matrices(tensor, FIG7_RANK, seed=1)
    return mttkrp_kernel(tensor, factors, mode=0)


def _ttmc_case(shape=(300, 250, 200), nnz=20000, rank=TTMC_RANK, seed=1):
    tensor = random_sparse_tensor(shape, nnz=nnz, seed=seed)
    u = random_dense_matrix(shape[1], rank, seed=seed + 1, name="U")
    v = random_dense_matrix(shape[2], rank, seed=seed + 2, name="V")
    kernel = parse_kernel("ijk,jr,ks->irs", [tensor, u, v], names=["T", "U", "V"])
    return kernel, {"T": tensor, "U": u, "V": v}


def _best_time(executor, tensors, repeats=REPEATS):
    executor.execute(tensors)  # warm plan, compiled callable and pools
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        executor.execute(tensors)
        best = min(best, time.perf_counter() - start)
    return best


def _engine_times(kernel, tensors, engines=("jit", "lowered")):
    """Min-of-interleaved-trials per engine (robust to scheduler noise)."""
    executors = {}
    for engine in engines:
        executors[engine] = LoopNestExecutor(
            kernel, SpTTNScheduler(kernel).schedule().loop_nest, engine=engine
        )
    times = {engine: np.inf for engine in engines}
    for _ in range(TRIALS):
        for engine, executor in executors.items():
            times[engine] = min(times[engine], _best_time(executor, tensors))
            assert executor.last_engine == engine
    return times


@pytest.mark.parametrize("dataset", FIG7_DATASETS)
@pytest.mark.parametrize("engine", ["jit", "lowered"])
def test_fig7_mttkrp_jit(benchmark, dataset, engine):
    kernel, tensors = _mttkrp_case(dataset)
    executor = LoopNestExecutor(
        kernel, SpTTNScheduler(kernel).schedule().loop_nest, engine=engine
    )
    executor.execute(tensors)  # warm plan
    benchmark.extra_info.update(
        engine=engine, kernel="mttkrp", dataset=dataset, rank=FIG7_RANK
    )
    benchmark.pedantic(lambda: executor.execute(tensors), rounds=3, iterations=1)
    assert executor.last_engine == engine


@pytest.mark.parametrize("engine", ["jit", "lowered"])
def test_ttmc_jit(benchmark, engine):
    kernel, tensors = _ttmc_case()
    executor = LoopNestExecutor(
        kernel, SpTTNScheduler(kernel).schedule().loop_nest, engine=engine
    )
    executor.execute(tensors)  # warm plan
    benchmark.extra_info.update(engine=engine, kernel="ttmc", rank=TTMC_RANK)
    benchmark.pedantic(lambda: executor.execute(tensors), rounds=3, iterations=1)
    assert executor.last_engine == engine


@pytest.mark.smoke
def test_jit_speedup_smoke(benchmark):
    """JIT vs lowered on every fig7 MTTKRP dataset and on TTMc.

    The acceptance bar: >= 2x over the lowered tier on each workload (the
    CSR SpMM fusions carry the MTTKRP datasets, the per-segment GEMM loop
    carries TTMc)."""
    cases = {f"mttkrp/{ds}": _mttkrp_case(ds) for ds in FIG7_DATASETS}
    cases["ttmc"] = _ttmc_case()

    def measure():
        return {
            name: _engine_times(kernel, tensors)
            for name, (kernel, tensors) in cases.items()
        }

    times = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        {
            "kernel": name,
            "jit_ms": engine_times["jit"] * 1e3,
            "lowered_ms": engine_times["lowered"] * 1e3,
            "speedup": engine_times["lowered"] / engine_times["jit"],
        }
        for name, engine_times in times.items()
    ]
    record_rows(benchmark, rows)
    speedups = {row["kernel"]: row["speedup"] for row in rows}
    benchmark.extra_info["speedups"] = speedups
    for name, speedup in speedups.items():
        assert speedup >= 2.0, f"{name}: jit only {speedup:.2f}x over lowered"
