"""E8 — Figure 10: cost distribution over randomly sampled loop orders.

The paper takes the order-3 all-mode TTMc (N = 1024, R = 32, 0.1% sparsity),
fixes the contraction path chosen by SpTTN-Cyclops, randomly samples 25% of
the CSF-consistent loop orders, executes each, and shows that the loop order
picked by the cost model sits at (or very near) the fast end of the measured
distribution.

This reproduction asserts on counts that repeat exactly on any host.  Each
sampled nest runs once on the default tier (counters are identical on every
tier) and its executor's ``counter.flops`` is the measured quantity.

On a fixed contraction path, every CSF-consistent loop order of this kernel
executes the same scalar operations: each sparse loop descends the CSF
wherever its earlier levels are bound, so every order executes the operation
count the model predicts (6 831 616 on the full case).  What the loop order
changes is the intermediate buffers (Def. 4.5).

Expected shape: the picked order and every sampled order execute the
modelled operation count, and the picked order's largest intermediate buffer
holds strictly fewer elements than the largest one among the sampled orders.
"""

from __future__ import annotations

import math

import pytest

from repro.core.cost_model import OperationCountCost, evaluate_cost
from repro.core.enumeration import sample_loop_orders
from repro.core.loop_nest import LoopNest
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.kernels.ttmc import all_mode_ttmc_kernel
from repro.sptensor import random_dense_matrix, random_sparse_tensor

from _workloads import record_rows

RANK = 32


def _measure(kernel, tensors, nest: LoopNest):
    """(executed flops, elements of the largest intermediate buffer)."""
    executor = LoopNestExecutor(kernel, nest)
    executor.execute(tensors)
    dims = kernel.index_dims
    largest = max(math.prod(dims[i] for i in b.indices) for b in nest.buffers())
    return executor.counter.flops, largest


def _sweep(kernel, tensors, max_samples: int):
    """The picked nest's modelled ops, its (flops, buffer) pair, and the
    pairs of 25% of its path's loop orders."""
    schedule = SpTTNScheduler(kernel, buffer_dim_bound=2).schedule()
    nest = schedule.loop_nest
    model = evaluate_cost(kernel, nest.path, nest.order, OperationCountCost(kernel))
    orders = sample_loop_orders(
        kernel, schedule.path, fraction=0.25, seed=0, max_samples=max_samples
    )
    sampled = [
        _measure(kernel, tensors, LoopNest(schedule.path, order)) for order in orders
    ]
    return model, _measure(kernel, tensors, nest), sampled


def _assert_fig10_shape(model, picked, sampled):
    """Every order executes the model's count; the pick's largest buffer is
    strictly below the largest sampled one."""
    picked_flops, picked_buffer = picked
    assert picked_flops == pytest.approx(model, rel=1e-9)
    assert {flops for flops, _ in sampled} == {picked_flops}
    assert picked_buffer < max(buffer for _, buffer in sampled)


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
    model, picked, sampled = benchmark.pedantic(
        lambda: _sweep(kernel, tensors, max_samples=24), rounds=1, iterations=1
    )
    record_rows(
        benchmark, [{"flops": flops, "max_buffer": buf} for flops, buf in sampled]
    )
    benchmark.extra_info.update(picked_flops=picked[0], picked_max_buffer=picked[1])

    # picked 1 024 buffer elements (R x R); the sampled orders hold 1 024 to
    # 73 728 (I x I x R)
    _assert_fig10_shape(model, picked, sampled)


@pytest.mark.smoke
def test_fig10_smoke(benchmark):
    """Tiny CI case: a few sampled loop orders execute the pick's modelled
    count and hold larger buffers than it (64 elements against 1 024 to
    2 048)."""
    tensor = random_sparse_tensor((16, 16, 16), nnz=400, seed=7)
    factors = [
        random_dense_matrix(d, 8, seed=30 + i) for i, d in enumerate(tensor.shape)
    ]
    kernel, tensors = all_mode_ttmc_kernel(tensor, factors)
    model, picked, sampled = benchmark.pedantic(
        lambda: _sweep(kernel, tensors, max_samples=6), rounds=1, iterations=1
    )
    _assert_fig10_shape(model, picked, sampled)
