"""E8 — Figure 10: cost distribution over randomly sampled loop orders.

The paper takes the order-3 all-mode TTMc (N = 1024, R = 32, 0.1% sparsity),
fixes the contraction path chosen by SpTTN-Cyclops, randomly samples 25% of
the CSF-consistent loop orders, executes each, and shows that the loop order
picked by the cost model sits at (or very near) the fast end of the measured
distribution.

The claim is that runtime tracks the scalar operations a nest executes, so
this reproduction asserts on those counts: each sampled nest runs once and
its executor's ``counter.flops`` is the measured quantity.  Counters are
identical on every tier, so the nests run on the default one, and the counts
repeat exactly on any host.

Expected shape: the cost-model-picked loop order executes within a small
factor of the cheapest sampled order's operations, no more than the sampled
median, and strictly fewer than the costliest sampled order.
"""

from __future__ import annotations

import pytest

from repro.core.enumeration import sample_loop_orders
from repro.core.loop_nest import LoopNest
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.kernels.ttmc import all_mode_ttmc_kernel
from repro.sptensor import random_dense_matrix, random_sparse_tensor

from _workloads import record_rows

RANK = 32


def _executed_flops(kernel, tensors, nest: LoopNest) -> int:
    executor = LoopNestExecutor(kernel, nest)
    executor.execute(tensors)
    return executor.counter.flops


def _sweep(kernel, tensors, max_samples: int):
    """(picked nest's flops, sorted flops of 25% of its path's loop orders)."""
    schedule = SpTTNScheduler(kernel, buffer_dim_bound=2).schedule()
    orders = sample_loop_orders(
        kernel, schedule.path, fraction=0.25, seed=0, max_samples=max_samples
    )
    sampled = sorted(
        _executed_flops(kernel, tensors, LoopNest(schedule.path, order))
        for order in orders
    )
    return _executed_flops(kernel, tensors, schedule.loop_nest), sampled


def _setup():
    tensor = random_sparse_tensor((48, 48, 48), nnz=3000, seed=7)
    factors = [
        random_dense_matrix(d, RANK, seed=20 + i) for i, d in enumerate(tensor.shape)
    ]
    return all_mode_ttmc_kernel(tensor, factors)


def test_fig10_random_loop_orders(benchmark):
    kernel, tensors = _setup()
    # 25% of the loop orders of the chosen contraction path, capped so the
    # benchmark stays interactive
    picked, sampled = benchmark.pedantic(
        lambda: _sweep(kernel, tensors, max_samples=24), rounds=1, iterations=1
    )
    record_rows(benchmark, [{"flops": flops} for flops in sampled])
    benchmark.extra_info["picked_flops"] = picked

    # Figure 10 shape: the cost-model choice lands in the cheap tail of the
    # distribution — within a small factor of the cheapest sampled order and
    # at or below the sampled median (and hence below the costly tail).
    median = sampled[len(sampled) // 2]
    assert picked <= 4 * sampled[0]
    assert picked <= median
    assert picked < sampled[-1]


@pytest.mark.smoke
def test_fig10_smoke(benchmark):
    """Tiny CI case: a few sampled loop orders still rank the cost-model
    pick below the costliest one."""
    tensor = random_sparse_tensor((16, 16, 16), nnz=400, seed=7)
    factors = [
        random_dense_matrix(d, 8, seed=30 + i) for i, d in enumerate(tensor.shape)
    ]
    kernel, tensors = all_mode_ttmc_kernel(tensor, factors)
    picked, sampled = benchmark.pedantic(
        lambda: _sweep(kernel, tensors, max_samples=6), rounds=1, iterations=1
    )
    assert picked < sampled[-1]
