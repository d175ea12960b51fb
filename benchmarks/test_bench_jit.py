"""JIT/codegen tier vs the lowered tier: what the peephole fusions buy.

The jit tier (:mod:`repro.engine.lowering.codegen`) compiles a lowered
program into one fused callable: straight-line NumPy specialized per
program, pooled buffers reused across runs, bind-time index preparation,
and SpMM / per-segment-GEMM peephole fusions.  The lowered tier compiles
the same program without the fusions, so the timed cases below record
exactly their gain, on the paper's fig7 MTTKRP datasets and the TTMc
workload — the same workloads the lowered tier is benchmarked on.

The smoke case asserts structure, not seconds: each workload compiles to
the fused unit that carries it (a CSR SpMM for MTTKRP, per-segment GEMMs
for TTMc, per-row GEMMs for a TTMc whose output index is a middle CSF
level), none builds a lane outer product for a selector SpMM to sum, and
every result and op count equals the lowered tier's.  Wall-clock ratios
are the end-to-end benchmark's business (``benchmarks/e2e``).
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.expr import parse_kernel
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.kernels.mttkrp import mttkrp_kernel
from repro.sptensor import random_dense_matrix, random_sparse_tensor
from repro.util.counters import OpCounter

from _workloads import (
    FIG7_DATASETS,
    FIG7_RANK,
    TTMC_RANK,
    factor_matrices,
    preset_tensor,
)


def _mttkrp_case(dataset):
    tensor = preset_tensor(dataset)
    factors = factor_matrices(tensor, FIG7_RANK, seed=1)
    return mttkrp_kernel(tensor, factors, mode=0)


def _ttmc_case(spec="ijk,jr,ks->irs", shape=(300, 250, 200), nnz=20000, rank=TTMC_RANK, seed=1):
    tensor = random_sparse_tensor(shape, nnz=nnz, seed=seed)
    dims = dict(zip("ijk", shape))
    lhs, rhs = spec.split("->")[0].split(",")[1:]
    u = random_dense_matrix(dims[lhs[0]], rank, seed=seed + 1)
    v = random_dense_matrix(dims[rhs[0]], rank, seed=seed + 2)
    kernel = parse_kernel(spec, [tensor, u, v], names=["T", "U", "V"])
    return kernel, {"T": tensor, "U": u, "V": v}


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


#: A lane outer-product einsum (more output letters than either input) ...
_OUTER_EINSUM = re.compile(r"^ +(r\d+) = _einsum\(B, \d+, '(\w+),(\w+)->(\w+)'", re.MULTILINE)
#: ... and the selector SpMM that would sum its lanes into the output.
_SELECTOR = re.compile(r"^ +O \+= _spmm\(P\[\d+\], (r\d+)\)$", re.MULTILINE)


@pytest.mark.smoke
def test_jit_fused_unit_census_smoke():
    """Every fig7 MTTKRP dataset and both TTMc shapes compile to their fused
    unit, with no lane-expanded outer product, and agree with the lowered
    tier."""
    cases = {f"mttkrp/{ds}": (_mttkrp_case(ds), "_spmm(") for ds in FIG7_DATASETS}
    cases["ttmc"] = (_ttmc_case(), " = _seg_outer(")
    # a hooi-style mode-1 TTMc: its output index is the CSF's middle level
    cases["ttmc/mode-1"] = (
        _ttmc_case("ijk,ir,ks->jrs", shape=(2000, 100, 2000), nnz=20000),
        "] += _seg_outer(",
    )
    for name, ((kernel, tensors), unit) in cases.items():
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        results = {}
        for engine in ("jit", "lowered"):
            counter = OpCounter()
            executor = LoopNestExecutor(kernel, nest, counter=counter, engine=engine)
            results[engine] = (np.asarray(executor.execute(tensors)), counter.as_dict())
            assert executor.last_engine == engine, name
        source = executor._plan.jit.source
        assert unit in source, name
        outer = {
            reg
            for reg, lhs, rhs, out in _OUTER_EINSUM.findall(source)
            if len(out) > max(len(lhs), len(rhs))
        }
        assert not outer & set(_SELECTOR.findall(source)), name
        np.testing.assert_allclose(results["jit"][0], results["lowered"][0], rtol=1e-12, err_msg=name)
        assert results["jit"][1] == results["lowered"][1], name
