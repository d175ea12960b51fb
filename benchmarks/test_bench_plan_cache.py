"""E10 — plan-cache amortization on repeated kernel execution.

The paper's applications (CP-ALS, Tucker-HOOI, completion) execute one
structurally fixed kernel dozens of times.  Without caching, every call pays
the full per-call pipeline: the CSF build the sparsity statistics are read
from, kernel IR construction, the scheduler's contraction-path + loop-order
search, and the executor's symbolic preprocessing (Algorithm 2 stage 1).  With the plan
cache, search and planning run once and every subsequent ``execute()`` call
only binds the compiled plan to fresh output arrays.

This benchmark measures both regimes on the Figure 7 MTTKRP workload
(rank 64 over the scaled FROSTT presets) and records the per-call speedup
(nominally ~3x).  What it *asserts* is the property behind that number, as
counts that repeat exactly on any host: the uncached loop pays one schedule
search per call, the cached loop pays none and never misses its plan cache.
Both paths produce bit-identical outputs (also asserted).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.engine.executor import LoopNestExecutor
from repro.engine.plan_cache import PlanCache, cached_schedule, schedule_search_count

from _workloads import FIG7_RANK, factor_matrices, preset_tensor, record_rows

from repro.kernels.mttkrp import mttkrp_kernel
from repro.sptensor import CSFTensor

#: fig7 datasets exercised here; vast-3d is omitted only because its nnz
#: pattern makes single-call times too small for a stable ratio in CI.
DATASETS = ("nell-2", "nips")

REPEATS = 10


def _workload(dataset: str):
    tensor = preset_tensor(dataset)
    factors = factor_matrices(tensor, FIG7_RANK, seed=1)
    kernel, tensors = mttkrp_kernel(tensor, factors, mode=0)
    return tensor, factors, kernel, tensors


def _run_cold(tensor, factors):
    """One fully-uncached call: CSF build + kernel IR + schedule search + plan + execute.

    The CSF is rebuilt per call because it is where the kernel IR's sparsity
    statistics come from; handing the COO tensor over would read them from
    the process-wide structure memo, i.e. measure a cached path.

    The engine is pinned to the lowered tier (as in the warm path): this
    benchmark isolates *planning* amortization, so execution must stay cheap
    relative to the per-call search — which no longer holds when the slower
    interpreter tier is forced process-wide via REPRO_ENGINE.
    """
    kernel, tensors = mttkrp_kernel(CSFTensor.from_coo(tensor), factors, mode=0)
    # empty private caches and no store: always a real (counted) search and
    # a freshly built plan
    schedule = cached_schedule(kernel, cache=PlanCache(), store=False)
    executor = LoopNestExecutor(
        kernel, schedule.loop_nest, plan_cache=PlanCache(), engine="lowered"
    )
    return np.asarray(executor.execute(tensors))


@pytest.mark.smoke
@pytest.mark.parametrize("dataset", DATASETS)
def test_repeated_execute_plan_cache_speedup(benchmark, dataset):
    tensor, factors, kernel, tensors = _workload(dataset)

    # Warm path: schedule once (private cache for isolation), one executor,
    # compiled plan reused across calls.
    schedules, plans = PlanCache(), PlanCache()
    schedule = cached_schedule(kernel, cache=schedules, store=False)
    executor = LoopNestExecutor(
        kernel, schedule.loop_nest, plan_cache=plans, engine="lowered"
    )
    warm_out = np.asarray(executor.execute(tensors))  # populate the plan

    cold_out = _run_cold(tensor, factors)
    np.testing.assert_array_equal(warm_out, cold_out)

    searches = schedule_search_count()
    start = time.perf_counter()
    for _ in range(REPEATS):
        _run_cold(tensor, factors)
    cold_seconds = (time.perf_counter() - start) / REPEATS
    cold_searches = schedule_search_count() - searches

    searches = schedule_search_count()
    misses = schedules.misses + plans.misses
    start = time.perf_counter()
    for _ in range(REPEATS):
        cached_schedule(kernel, cache=schedules, store=False)
        executor.execute(tensors)
    warm_seconds = (time.perf_counter() - start) / REPEATS
    warm_searches = schedule_search_count() - searches
    warm_misses = schedules.misses + plans.misses - misses

    rows = [
        {
            "dataset": dataset,
            "nnz": tensor.nnz,
            "rank": FIG7_RANK,
            "cold_ms": cold_seconds * 1e3,
            "warm_ms": warm_seconds * 1e3,
            "speedup": cold_seconds / warm_seconds,
        }
    ]
    record_rows(benchmark, rows)

    # the acceptance bar, as counts (wall-time ratios flake on shared
    # hosts): per-call planning searches every time, the cached path never
    # searches and never rebuilds its plan
    assert cold_searches == REPEATS
    assert warm_searches == 0
    assert warm_misses == 0

    # keep a pytest-benchmark record of the cached hot path
    benchmark.pedantic(
        lambda: executor.execute(tensors), rounds=3, iterations=1, warmup_rounds=1
    )
