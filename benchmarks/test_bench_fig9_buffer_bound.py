"""E7 — Figure 9: impact of the intermediate-buffer dimension bound.

For the order-3 all-mode TTMc (``S(r,s,t) = sum_{ijk} T(i,j,k) U(i,r) V(j,s)
W(k,t)``) with R = 64, the paper compares the loop nest selected under a
buffer-dimension bound of 1 (intermediates of size 1 and S; innermost sparse
loop; fewer BLAS offloads) against the bound-2 loop nest (intermediates of
size T and S x T; all three contractions offloaded to BLAS-1/BLAS-2) and
finds the bound-2 nest faster despite its larger footprint.

Asserted here on counts, which hold on any host: both bounds' nests execute
the same flops, and bound 2's keeps the strictly larger buffer (R x R
elements against bound 1's R).  Whether bound 2 is also faster is recorded
in ``extra_info``, ungated.
"""

from __future__ import annotations

import pytest

from repro.core.loop_nest import max_buffer_size
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.kernels.ttmc import all_mode_ttmc_kernel
from repro.util.counters import OpCounter

from _workloads import factor_matrices, preset_tensor

DATASETS = ("nell-2", "random-3d")
RANK = 64
#: Executed flops of the chosen nest, the same under bound 1 and bound 2.
FLOPS = {"nell-2": 16_153_600, "random-3d": 10_618_368}


def _setup(dataset: str, bound: int):
    tensor = preset_tensor(dataset)
    factors = factor_matrices(tensor, RANK, seed=3)
    kernel, tensors = all_mode_ttmc_kernel(tensor, factors)
    schedule = SpTTNScheduler(kernel, buffer_dim_bound=bound).schedule()
    return kernel, tensors, schedule


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("bound", [1, 2])
def test_fig9_allmode_ttmc_buffer_bound(benchmark, dataset, bound):
    kernel, tensors, schedule = _setup(dataset, bound)
    executor = LoopNestExecutor(kernel, schedule.loop_nest)
    benchmark.extra_info.update(
        dataset=dataset,
        bound=bound,
        rank=RANK,
        max_buffer_dimension=schedule.max_buffer_dimension(),
        loop_nest=str(schedule.loop_nest),
    )
    benchmark.pedantic(
        lambda: executor.execute(tensors), rounds=2, iterations=1, warmup_rounds=1
    )
    assert schedule.max_buffer_dimension() <= bound


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig9_bound2_keeps_larger_buffers_at_equal_flops(dataset):
    flops, sizes = {}, {}
    for bound in (1, 2):
        kernel, tensors, schedule = _setup(dataset, bound)
        counter = OpCounter()
        LoopNestExecutor(kernel, schedule.loop_nest, counter=counter).execute(tensors)
        flops[bound] = counter.flops
        sizes[bound] = max_buffer_size(schedule.path, schedule.order, kernel.index_dims)
    assert flops == {1: FLOPS[dataset], 2: FLOPS[dataset]}
    assert sizes == {1: RANK, 2: RANK * RANK}


@pytest.mark.smoke
def test_fig9_smoke(benchmark):
    """Tiny CI case: one bound-2 all-mode TTMc execution."""
    kernel, tensors, schedule = _setup("nell-2", bound=2)
    executor = LoopNestExecutor(kernel, schedule.loop_nest)
    out = benchmark.pedantic(
        lambda: executor.execute(tensors), rounds=1, iterations=1
    )
    assert schedule.max_buffer_dimension() <= 2
    assert out.shape == (RANK, RANK, RANK)
