"""Golden regression tests for the apps layer.

CP-ALS and Tucker-HOOI drive every engine layer — schedule cache, compiled
plans, the compiled tiers, BLAS offload — through dozens of kernel executions,
so their seeded fit trajectories are a sensitive end-to-end probe: a future
engine change that silently shifts numerics (a reassociated reduction, a
changed accumulation order, a broken recipe) moves these values long before
any unit test notices.

The stored values were produced by the seed revision of this test (NumPy
substrate, float64 accumulation).  Tolerances are tight enough to catch
algorithmic drift but leave room for BLAS/LAPACK library variation across
platforms: the trajectories are fit values and norms — invariant under the
sign/rotation ambiguity of the factors' leading singular vectors (HOOI takes
them from an eigensolve of the unfolding's smaller Gram matrix, not from an
SVD) — so 1e-6 relative slack is platform noise, not drift.

The op-count goldens pin what one benchmark operation of each application
executes in the engine, on the benchmark harness's own inputs, so a change
to the dense linear algebra around the contractions cannot move engine work.
"""

from __future__ import annotations

import numpy as np
import pytest

from interpreter import make_executor
from repro.apps.cp_als import cp_als
from repro.apps.tucker_hooi import tucker_hooi
from repro.core.cost_model import OperationCountCost, evaluate_cost
from repro.engine.lowering import compile_program
from repro.engine.lowering.pool import pool_nbytes
from repro.engine.plan_cache import cached_schedule, default_plan_cache
from repro.kernels.mttkrp import mttkrp_kernel
from repro.kernels.ttmc import all_mode_ttmc_kernel, ttmc_kernel
from repro.sptensor import random_sparse_tensor
from repro.util.counters import OpCounter
from test_codegen import elementwise_einsums, outer_products_fed_to_selectors

_RTOL = 1e-6
_ATOL = 1e-9

#: Seeded fit trajectory of cp_als(T(12,10,8; nnz=150; seed=42), rank=4,
#: iterations=5, seed=7, tolerance=0).
_CP_FITS = [
    0.11160780868986775,
    0.12703641227644002,
    0.13724516185448865,
    0.1490595732808081,
    0.15782069401649013,
]
#: Sorted column weights after the final sweep.
_CP_WEIGHTS = [
    1.7917970257772893,
    2.188581264087112,
    2.3116347506911676,
    2.672995635846958,
]

#: Seeded fit trajectory of tucker_hooi(same tensor, ranks=(3,3,2),
#: iterations=4, seed=7, tolerance=0).
_TUCKER_FITS = [
    0.044939275804668166,
    0.05398270429268737,
    0.06257218832890754,
    0.07844977580080692,
]
_TUCKER_CORE_NORM = 2.879782264670812


@pytest.fixture
def golden_tensor():
    return random_sparse_tensor((12, 10, 8), nnz=150, seed=42)


def test_cp_als_fit_trajectory_matches_golden(golden_tensor):
    result = cp_als(golden_tensor, rank=4, iterations=5, seed=7, tolerance=0.0)
    assert result.iterations == len(_CP_FITS)
    np.testing.assert_allclose(result.fits, _CP_FITS, rtol=_RTOL, atol=_ATOL)
    np.testing.assert_allclose(
        np.sort(result.weights), _CP_WEIGHTS, rtol=_RTOL, atol=_ATOL
    )
    # fits must be monotonically non-decreasing on this workload — a sanity
    # anchor independent of the stored constants
    assert all(b >= a - 1e-12 for a, b in zip(result.fits, result.fits[1:]))


def test_tucker_hooi_fit_trajectory_matches_golden(golden_tensor):
    result = tucker_hooi(
        golden_tensor, ranks=(3, 3, 2), iterations=4, seed=7, tolerance=0.0
    )
    assert result.iterations == len(_TUCKER_FITS)
    np.testing.assert_allclose(result.fits, _TUCKER_FITS, rtol=_RTOL, atol=_ATOL)
    np.testing.assert_allclose(
        float(np.linalg.norm(result.core)), _TUCKER_CORE_NORM, rtol=_RTOL
    )
    assert all(b >= a - 1e-12 for a, b in zip(result.fits, result.fits[1:]))


#: cp_als(golden tensor, rank=4, iterations=3, tolerance=0) from factors
#: ``default_rng(1).random((dim, 4))`` with column 1 of factor 2 zeroed: the
#: Gram Hadamard is exactly singular, so the update takes the pseudo-inverse.
_CP_ZERO_COLUMN_FITS = [0.09707803689156114, 0.11410913039700576, 0.12328061828663162]


def test_cp_als_singular_normal_equations_fall_back_to_pinv(golden_tensor):
    initial = [np.random.default_rng(1).random((dim, 4)) for dim in golden_tensor.shape]
    initial[2][:, 1] = 0.0
    result = cp_als(golden_tensor, 4, iterations=3, tolerance=0, initial_factors=initial)
    np.testing.assert_allclose(result.fits, _CP_ZERO_COLUMN_FITS, rtol=1e-12)


def test_cp_als_of_an_all_zero_tensor_is_a_perfect_finite_fit(golden_tensor):
    zero = golden_tensor.with_values(np.zeros(golden_tensor.nnz))
    result = cp_als(zero, 4, iterations=3, tolerance=0)
    assert result.fits == [1.0, 1.0, 1.0]
    assert all(np.isfinite(factor).all() for factor in result.factors)


def _app_kernels(tensor):
    """The kernels CP-ALS (rank 4) and HOOI (ranks 3) run on *tensor*: three
    MTTKRPs and three TTMcs, plus the all-mode TTMc that HOOI's core
    equals, with their operands."""
    rng = np.random.default_rng(0)

    def factors(rank):
        return [rng.random((dim, rank)) for dim in tensor.shape]

    modes = range(tensor.order)
    return (
        [mttkrp_kernel(tensor, factors(4), mode) for mode in modes]
        + [ttmc_kernel(tensor, factors(3), mode) for mode in modes]
        + [all_mode_ttmc_kernel(tensor, factors(3))]
    )


@pytest.mark.parametrize("engine", ["interpret", "jit"])
def test_the_model_counts_what_runs_on_the_app_kernels(golden_tensor, engine):
    """On each app kernel's chosen nest, the executed multiply-adds are the
    ``OperationCountCost`` Algorithm 1 minimizes."""
    for kernel, operands in _app_kernels(golden_tensor):
        nest = cached_schedule(kernel).loop_nest
        model = evaluate_cost(kernel, nest.path, nest.order, OperationCountCost(kernel))
        counter = OpCounter()
        make_executor(kernel, nest, engine, counter=counter).execute(operands)
        assert counter.flops == pytest.approx(model, rel=1e-9), kernel


@pytest.mark.parametrize("engine", ["lowered"])
def test_golden_trajectories_stable_across_engines(
    golden_tensor, engine, monkeypatch
):
    """The golden values must hold on the ``lowered`` tier too (the apps
    follow the ``REPRO_ENGINE`` process default; the ``jit`` default is
    the one the goldens were recorded on)."""
    monkeypatch.setenv("REPRO_ENGINE", engine)
    result = cp_als(golden_tensor, rank=4, iterations=5, seed=7, tolerance=0.0)
    np.testing.assert_allclose(result.fits, _CP_FITS, rtol=_RTOL, atol=_ATOL)


def _benchmark_operation(name, tensor, workloads):
    """One ``cp_als`` / ``hooi`` operation of ``benchmarks/e2e`` (no early stop)."""
    assert tensor.nnz == 60_000
    if name == "cp_als":
        cp_als(tensor, workloads.CP_RANK, workloads.CP_ITERATIONS, tolerance=0.0, seed=0)
    else:
        tucker_hooi(tensor, workloads.HOOI_RANKS, workloads.HOOI_ITERATIONS, tolerance=0.0, seed=0)


@pytest.mark.parametrize(
    "name, golden", [("cp_als", 130_083_840), ("hooi", 46_625_280)]
)
def test_one_benchmark_operation_executes_its_golden_scalar_op_count(
    name, golden, benchmark_tensor, harness_workloads, executed_scalar_ops
):
    """One benchmark operation executes exactly its ``engine.scalar_ops``.
    Tier-1 cost: ≈ 0.1 s per case (one decomposition), after ≈ 2 s
    generating the shared tensor once."""
    _benchmark_operation(name, benchmark_tensor, harness_workloads)
    assert executed_scalar_ops[0] == golden


def test_no_hooi_kernel_scatters_a_lane_outer_product_through_a_selector(
    benchmark_tensor, harness_workloads, monkeypatch
):
    """The fused-unit census of one ``hooi`` operation: none of its three jit
    kernels builds the lane-expanded outer product a selector SpMM then
    sums (the mode-1 TTMc runs GEMMs on row-grouped lanes instead), while
    the un-fused program of that TTMc still does."""
    monkeypatch.setenv("REPRO_ENGINE", "jit")
    _benchmark_operation("hooi", benchmark_tensor, harness_workloads)
    plans = [plan for plan in default_plan_cache().values() if plan.jit]
    assert len(plans) == 3
    assert not any(outer_products_fed_to_selectors(plan.jit.source) for plan in plans)
    row_grouped = [plan for plan in plans if "] += _seg_outer(" in plan.jit.source]
    assert len(row_grouped) == 1
    unfused = compile_program(row_grouped[0].lowered, fuse=False)
    assert outer_products_fed_to_selectors(unfused.source)


def test_no_cp_als_kernel_runs_an_elementwise_product_through_einsum(
    benchmark_tensor, harness_workloads, monkeypatch
):
    """The census of one ``cp_als`` operation: each of its three jit kernels
    multiplies its gathered factor rows with one pooled ``_mul``, and none
    calls ``_einsum`` with an equal-subscript (``'ab,ab->ab'``) spec.  Each
    ``_mul`` writes into the gather buffer that dies at it, so the three
    pools hold 4 buffers of ``nnz_IJ x R`` = 7 752 x 32 float64 (the
    two-gather kernel keeps both gathers, the others one), not 7."""
    monkeypatch.setenv("REPRO_ENGINE", "jit")
    _benchmark_operation("cp_als", benchmark_tensor, harness_workloads)
    plans = [plan for plan in default_plan_cache().values() if plan.jit]
    sources = [plan.jit.source for plan in plans]
    assert len(sources) == 3
    assert all(source.count(" = _mul(B, ") == 1 for source in sources)
    assert not any(elementwise_einsums(source) for source in sources)
    assert sum(pool_nbytes(plan.jit.pool) for plan in plans) == 4 * 7_752 * 32 * 8 == 7_938_048


@pytest.mark.parametrize("name, golden", [("cp_als", 13), ("hooi", 12)])
def test_one_benchmark_operation_binds_its_golden_prep_builder_count(
    name, golden, benchmark_tensor, harness_workloads, monkeypatch
):
    """One benchmark operation's jit callables carry exactly this many prep
    builders: a second, un-fused body per fused unit would add its ops'.
    Each of the three plans binds one prep for its flop total and none for
    any other count."""
    monkeypatch.setenv("REPRO_ENGINE", "jit")
    _benchmark_operation(name, benchmark_tensor, harness_workloads)
    plans = default_plan_cache().values()
    assert sum(len(plan.jit._prep_builders) for plan in plans if plan.jit) == golden
