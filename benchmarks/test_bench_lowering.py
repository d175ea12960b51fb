"""Lowered vs interpreted execution: the general vectorized lowering tier.

PR 1 vectorized one idiom (the fused MTTKRP sweep); the lowering subsystem
(:mod:`repro.engine.lowering`) generalizes it to every lowerable scheduled
loop nest.  This module measures that tier directly: the same scheduled
nest executed by the interpreter and by the lowered engine, for the TTMc
and TTTc workloads whose fused schedules the paper's evaluation features
(complementing the fig7 MTTKRP numbers, whose fast path now also goes
through the general lowering).

Expected shape: the lowered engine wins by a growing factor as nnz rises,
because per-fiber Python dispatch costs O(nnz) interpreter steps while the
lowered program runs O(loop-nest-size) NumPy ops.  The smoke case gates that
claim on counts, not on a wall-clock ratio.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.expr import parse_kernel
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.engine.plan_cache import PlanCache
from repro.kernels.tttc import tt_core_shapes, tttc_kernel
from repro.sptensor import DenseTensor, random_dense_matrix, random_sparse_tensor
from repro.sptensor.csf import csf_for_mode_order

from _workloads import TTMC_RANK


def _ttmc_case(shape=(300, 250, 200), nnz=20000, rank=TTMC_RANK, seed=1):
    tensor = random_sparse_tensor(shape, nnz=nnz, seed=seed)
    u = random_dense_matrix(shape[1], rank, seed=seed + 1, name="U")
    v = random_dense_matrix(shape[2], rank, seed=seed + 2, name="V")
    kernel = parse_kernel("ijk,jr,ks->irs", [tensor, u, v], names=["T", "U", "V"])
    return kernel, {"T": tensor, "U": u, "V": v}


def _tttc_case(order=6, dim=14, nnz=4000, rank=8, seed=3):
    tensor = random_sparse_tensor(tuple(dim for _ in range(order)), nnz=nnz, seed=seed)
    rng = np.random.default_rng(seed + 1)
    cores = [
        DenseTensor(rng.random(shape), name=f"G{i}")
        for i, shape in enumerate(tt_core_shapes(tensor.shape, rank))
    ]
    return tttc_kernel(tensor, cores, removed_core=order - 1)


@pytest.mark.parametrize("engine", ["lowered", "interpret"])
def test_ttmc_engines(benchmark, engine):
    kernel, tensors = _ttmc_case()
    executor = LoopNestExecutor(
        kernel, SpTTNScheduler(kernel).schedule().loop_nest, engine=engine
    )
    executor.execute(tensors)  # warm plan
    benchmark.extra_info.update(engine=engine, kernel="ttmc", rank=TTMC_RANK)
    benchmark.pedantic(lambda: executor.execute(tensors), rounds=3, iterations=1)
    assert executor.last_engine == engine


@pytest.mark.smoke
def test_lowered_program_is_independent_of_nnz_smoke(monkeypatch):
    """TTMc and TTTc at two nnz each: the lowered program and its generated
    source do not change, while the interpreter takes one ``_run`` step per
    stored non-leaf CSF node."""
    runs = []
    real_run = LoopNestExecutor._run
    monkeypatch.setattr(
        LoopNestExecutor, "_run", lambda self, *args: runs.append(1) or real_run(self, *args)
    )
    for build in (
        lambda nnz: _ttmc_case(shape=(120, 100, 80), nnz=nnz),
        lambda nnz: _tttc_case(dim=12, nnz=nnz),
    ):
        programs, steps = [], []
        for nnz in (400, 1600):
            kernel, tensors = build(nnz)
            nest = SpTTNScheduler(kernel).schedule().loop_nest
            lowered = LoopNestExecutor(kernel, nest, engine="lowered", plan_cache=PlanCache())
            lowered.execute(tensors)
            assert lowered.last_engine == "lowered"
            programs.append((lowered._plan.lowered.n_ops, lowered._plan.unfused.source))
            runs.clear()
            LoopNestExecutor(kernel, nest, engine="interpret", plan_cache=PlanCache()).execute(
                tensors
            )
            sparse = kernel.sparse_operand
            csf = csf_for_mode_order(
                tensors[sparse.name], [sparse.indices.index(i) for i in kernel.csf_mode_order]
            )
            inner_nodes = sum(csf.nnz_at_level(level) for level in range(csf.order - 1))
            assert len(runs) > inner_nodes
            steps.append(len(runs))
        assert programs[0] == programs[1]
        assert steps[0] < steps[1]
