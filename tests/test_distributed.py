"""Tests for the distributed runtime (virtual ranks, rank-parallel tier)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed import (
    AlphaBetaModel,
    CyclicDistribution,
    DistributedSpTTN,
    ProcessorGrid,
    factor_processors,
    measured_scaling,
    partition_sparse_tensor,
    strong_scaling,
)
from repro.engine.plan_cache import (
    default_executor_cache,
    default_plan_cache,
)
from repro.engine.reference import assert_same_result, reference_output
from repro.kernels.mttkrp import mttkrp_kernel
from repro.kernels.ttmc import ttmc_kernel
from repro.kernels.tttc import tttc_kernel
from repro.kernels.tttp import tttp_kernel
from repro.sptensor import COOTensor, random_dense_matrix, random_sparse_tensor


def _assert_bit_identical(a, b):
    """Outputs must be equal to the last bit (sparse: coords and values)."""
    if isinstance(a, COOTensor):
        assert isinstance(b, COOTensor)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)
    else:
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


class TestProcessorGrid:
    def test_factorization_product(self):
        for p in (1, 2, 6, 8, 12, 64):
            dims = factor_processors(p, 3)
            assert int(np.prod(dims)) == p

    def test_factorization_favours_large_modes(self):
        dims = factor_processors(8, 3, mode_sizes=[1000, 10, 10])
        assert dims[0] >= max(dims[1], dims[2])

    def test_rank_coords_roundtrip(self):
        grid = ProcessorGrid((2, 3, 2))
        for rank in grid.iter_ranks():
            assert grid.rank_of(grid.coords_of(rank)) == rank

    def test_owner_is_cyclic(self):
        grid = ProcessorGrid((2, 2))
        assert grid.owner_of((0, 0)) == grid.owner_of((2, 4))
        assert grid.owner_of((1, 0)) != grid.owner_of((0, 0))

    def test_fiber_group_size(self):
        grid = ProcessorGrid((2, 3, 2))
        assert grid.fiber_group_size(1) == 4

    def test_invalid_inputs(self):
        grid = ProcessorGrid((2, 2))
        with pytest.raises(ValueError):
            grid.rank_of((2, 0))
        with pytest.raises(ValueError):
            grid.coords_of(5)
        with pytest.raises(ValueError):
            ProcessorGrid((0, 2))

    def test_for_tensor(self):
        grid = ProcessorGrid.for_tensor(12, (100, 50, 2))
        assert grid.size == 12
        assert grid.order == 3


class TestPartitioning:
    def test_partition_preserves_all_nonzeros(self, random_coo3):
        grid = ProcessorGrid.for_tensor(6, random_coo3.shape)
        locals_ = partition_sparse_tensor(random_coo3, grid)
        assert sum(t.nnz for t in locals_) == random_coo3.nnz
        total = np.zeros(random_coo3.shape)
        for t in locals_:
            total += t.to_dense()
        np.testing.assert_allclose(total, random_coo3.to_dense())

    def test_partition_ownership_is_cyclic(self, random_coo3):
        grid = ProcessorGrid.for_tensor(4, random_coo3.shape)
        locals_ = partition_sparse_tensor(random_coo3, grid)
        for rank, local in enumerate(locals_):
            for coords in local.indices.tolist():
                assert grid.owner_of(coords) == rank

    def test_partition_grid_mismatch(self, random_coo3):
        with pytest.raises(ValueError):
            partition_sparse_tensor(random_coo3, ProcessorGrid((2, 2)))

    def test_local_nnz_matches_partition(self, random_coo3):
        grid = ProcessorGrid.for_tensor(8, random_coo3.shape)
        from repro.kernels.mttkrp import mttkrp_kernel

        kernel, _ = mttkrp_kernel(
            random_coo3, [np.ones((d, 3)) for d in random_coo3.shape], 0
        )
        plan = CyclicDistribution.plan(kernel, grid)
        counts = plan.local_nnz(random_coo3)
        locals_ = partition_sparse_tensor(random_coo3, grid)
        np.testing.assert_array_equal(counts, [t.nnz for t in locals_])

    def test_load_imbalance_at_least_one(self, random_coo3):
        grid = ProcessorGrid.for_tensor(8, random_coo3.shape)
        kernel, _ = mttkrp_kernel(
            random_coo3, [np.ones((d, 3)) for d in random_coo3.shape], 0
        )
        plan = CyclicDistribution.plan(kernel, grid)
        assert plan.load_imbalance(random_coo3) >= 1.0


class TestDistributionPlan:
    def test_dense_replication_volumes(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        grid = ProcessorGrid.for_tensor(8, tensors["T"].shape)
        plan = CyclicDistribution.plan(kernel, grid)
        assert len(plan.dense_placements) == len(kernel.dense_operands)
        for placement in plan.dense_placements:
            assert placement.local_elements > 0
            assert placement.broadcast_elements >= 0

    def test_output_reduction_dense_vs_sparse(self, mttkrp_setup, tttp_setup):
        dense_kernel, dense_tensors = mttkrp_setup
        sparse_kernel, sparse_tensors = tttp_setup
        grid = ProcessorGrid.for_tensor(4, dense_tensors["T"].shape)
        dense_plan = CyclicDistribution.plan(dense_kernel, grid)
        sparse_plan = CyclicDistribution.plan(sparse_kernel, grid)
        assert dense_plan.output_reduction_elements > 0
        assert sparse_plan.output_reduction_elements == 0

    def test_grid_order_mismatch_rejected(self, mttkrp_setup):
        kernel, _ = mttkrp_setup
        with pytest.raises(ValueError):
            CyclicDistribution.plan(kernel, ProcessorGrid((2, 2)))


class TestAlphaBetaModel:
    def test_single_process_is_free(self):
        model = AlphaBetaModel()
        assert model.broadcast(1000, 1).total == 0.0
        assert model.allreduce(1000, 1).total == 0.0

    def test_costs_scale_with_volume(self):
        model = AlphaBetaModel()
        small = model.broadcast(1000, 8).total
        large = model.broadcast(1000000, 8).total
        assert large > small

    def test_latency_grows_with_processes(self):
        model = AlphaBetaModel(alpha=1e-5, beta=0.0)
        assert model.reduce(10, 64).total > model.reduce(10, 2).total

    def test_allreduce_more_expensive_than_reduce(self):
        model = AlphaBetaModel()
        assert model.allreduce(1 << 20, 16).total >= model.reduce(1 << 20, 16).total

    def test_point_to_point(self):
        model = AlphaBetaModel(alpha=1e-6, beta=1e-9)
        est = model.point_to_point(1000)
        assert est.latency_seconds == pytest.approx(1e-6)
        assert est.bandwidth_seconds == pytest.approx(8000 * 1e-9)


class TestDistributedExecution:
    @pytest.mark.parametrize("n_procs", [1, 3, 8])
    def test_mttkrp_exact(self, mttkrp_setup, n_procs):
        kernel, tensors = mttkrp_setup
        expected = reference_output(kernel, tensors)
        dist = DistributedSpTTN(kernel, tensors)
        assert_same_result(dist.execute(n_procs), expected)

    def test_ttmc_exact(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        expected = reference_output(kernel, tensors)
        dist = DistributedSpTTN(kernel, tensors)
        assert_same_result(dist.execute(6), expected)

    def test_tttp_exact_sparse_output(self, tttp_setup):
        kernel, tensors = tttp_setup
        expected = reference_output(kernel, tensors)
        dist = DistributedSpTTN(kernel, tensors)
        assert_same_result(dist.execute(4), expected)

    def test_simulation_fields(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        dist = DistributedSpTTN(kernel, tensors)
        run = dist.simulate(8)
        assert run.processes == 8
        assert run.compute_seconds > 0
        assert run.communication_seconds > 0
        assert run.max_local_nnz <= tensors["T"].nnz
        assert run.load_imbalance >= 1.0

    def test_single_process_has_no_communication(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        dist = DistributedSpTTN(kernel, tensors)
        run = dist.simulate(1)
        assert run.communication_seconds == 0.0

    def test_analytic_mode(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        dist = DistributedSpTTN(kernel, tensors)
        run = dist.simulate(16, measure=False)
        assert run.compute_seconds > 0

    def test_compute_time_decreases_with_processes(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        dist = DistributedSpTTN(kernel, tensors)
        t1 = dist.simulate(1).compute_seconds
        t16 = dist.simulate(16).compute_seconds
        assert t16 < t1


class TestRankParallelExecution:
    """The shared-memory parallel tier must be bit-identical to serial."""

    @pytest.mark.parametrize(
        "fixture", ["mttkrp_setup", "ttmc_setup", "tttp_setup", "allmode_setup"]
    )
    @pytest.mark.parametrize("n_procs", [3, 6])
    def test_parallel_matches_serial_bit_exactly(self, request, fixture, n_procs):
        kernel, tensors = request.getfixturevalue(fixture)
        dist = DistributedSpTTN(kernel, tensors)
        serial = dist.execute(n_procs, workers=0)
        parallel = dist.execute(n_procs, workers=2)
        _assert_bit_identical(serial, parallel)
        assert_same_result(parallel, reference_output(kernel, tensors))

    def test_tttc_parallel_matches_serial(self, random_coo3):
        rng = np.random.default_rng(21)
        cores = [
            rng.random((random_coo3.shape[0], 3)),
            rng.random((3, random_coo3.shape[1], 2)),
            rng.random((2, random_coo3.shape[2])),
        ]
        kernel, tensors = tttc_kernel(random_coo3, cores)
        dist = DistributedSpTTN(kernel, tensors)
        serial = dist.execute(5, workers=0)
        parallel = dist.execute(5, workers=2)
        _assert_bit_identical(serial, parallel)
        assert_same_result(parallel, reference_output(kernel, tensors))

    @pytest.mark.parametrize("n_procs", [4, 8])
    def test_dense_reduction_matches_pre_refactor_fold(
        self, mttkrp_setup, n_procs
    ):
        """Parallel execute must equal the original sequential rank loop
        (fresh executor per rank, partial sums folded in rank order) to the
        last bit."""
        from repro.engine.executor import LoopNestExecutor

        kernel, tensors = mttkrp_setup
        dist = DistributedSpTTN(kernel, tensors)
        grid = dist.grid_for(n_procs)
        locals_ = partition_sparse_tensor(tensors["T"], grid)
        shape = tuple(kernel.index_dims[i] for i in kernel.output.indices)
        expected = np.zeros(shape, dtype=np.float64)
        for local in locals_:
            if local.nnz == 0:
                continue
            executor = LoopNestExecutor(kernel, dist.schedule.loop_nest)
            local_tensors = dict(tensors)
            local_tensors["T"] = local
            expected += np.asarray(executor.execute(local_tensors))
        np.testing.assert_array_equal(
            np.asarray(dist.execute(n_procs, workers=2)), expected
        )
        np.testing.assert_array_equal(
            np.asarray(dist.execute(n_procs, workers=0)), expected
        )

    def test_workers_field_sets_the_default_tier(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        dist = DistributedSpTTN(kernel, tensors, workers=2)
        _assert_bit_identical(
            dist.execute(4), dist.execute(4, workers=0)
        )

    def test_engine_override_is_honoured(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        for engine in ("lowered", "jit"):
            dist = DistributedSpTTN(kernel, tensors, engine=engine)
            assert_same_result(
                dist.execute(4, workers=2), reference_output(kernel, tensors)
            )

    def test_engine_is_resolved_in_the_parent(self, mttkrp_setup, monkeypatch):
        """A REPRO_ENGINE change after the pool is warm must reach both
        tiers identically (workers snapshot the environment at fork)."""
        kernel, tensors = mttkrp_setup
        dist = DistributedSpTTN(kernel, tensors)
        dist.execute(4, workers=2)  # warm the pool under the default engine
        monkeypatch.setenv("REPRO_ENGINE", "lowered")
        assert dist._resolved_engine() == "lowered"
        _assert_bit_identical(
            dist.execute(4, workers=0), dist.execute(4, workers=2)
        )

    def test_more_workers_than_ranks(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        dist = DistributedSpTTN(kernel, tensors)
        _assert_bit_identical(
            dist.execute(2, workers=0), dist.execute(2, workers=4)
        )

    def test_measure_execute_returns_positive_seconds(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        dist = DistributedSpTTN(kernel, tensors)
        assert dist.measure_execute(2, workers=2, repeats=1) > 0.0

    def test_measured_scaling_rows(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        rows = measured_scaling(
            kernel, tensors, [1, 2], kernel_name="mttkrp", workers=2
        )
        assert [row["processes"] for row in rows] == [1, 2]
        assert all(row["measured_s"] > 0 for row in rows)
        assert all(row["predicted_s"] > 0 for row in rows)
        assert rows[0]["speedup"] == 1.0


class TestPlanReuse:
    """Distributed execution compiles one plan per kernel structure."""

    def test_execute_plans_once_across_ranks(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        dist = DistributedSpTTN(kernel, tensors)
        plan_cache = default_plan_cache()
        misses, hits = plan_cache.misses, plan_cache.hits
        dist.execute(8, workers=0)
        assert plan_cache.misses - misses == 1  # one CompiledPlan for all ranks
        assert plan_cache.hits - hits >= 1
        assert len(default_executor_cache()) == 1
        dist.execute(8, workers=0)
        assert plan_cache.misses - misses == 1  # later sweeps reuse it too

    def test_measure_single_rank_plans_once_per_repeat_set(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        dist = DistributedSpTTN(kernel, tensors)
        plan_cache = default_plan_cache()
        misses = plan_cache.misses
        dist.measure_single_rank(repeats=3)
        assert plan_cache.misses - misses == 1
        assert len(default_executor_cache()) == 1

    def test_schedule_comes_from_the_schedule_cache(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        first = DistributedSpTTN(kernel, tensors)
        second = DistributedSpTTN(kernel, tensors)
        assert first.schedule is second.schedule


class TestPartitionProperties:
    """Hypothesis: cyclic partitioning is an exact, owner-correct partition."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_partition_is_exact(self, data):
        order = data.draw(st.integers(2, 4), label="order")
        shape = tuple(
            data.draw(st.integers(2, 9), label=f"dim{m}") for m in range(order)
        )
        total = int(np.prod(shape))
        nnz = data.draw(st.integers(0, min(60, total)), label="nnz")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        n_procs = data.draw(st.integers(1, 12), label="n_procs")
        tensor = random_sparse_tensor(shape, nnz=nnz, seed=seed)
        grid = ProcessorGrid.for_tensor(n_procs, shape)
        locals_ = partition_sparse_tensor(tensor, grid)

        # every nonzero is owned exactly once...
        assert len(locals_) == grid.size
        assert sum(t.nnz for t in locals_) == tensor.nnz
        gathered = sorted(
            (tuple(coords), v)
            for t in locals_
            for coords, v in zip(t.indices.tolist(), t.values.tolist())
        )
        expected = sorted(
            (tuple(coords), v)
            for coords, v in zip(tensor.indices.tolist(), tensor.values.tolist())
        )
        assert gathered == expected
        # ...by the rank the cyclic formula names
        for rank, local in enumerate(locals_):
            for coords in local.indices.tolist():
                cyclic = tuple(
                    int(c) % d for c, d in zip(coords, grid.dims)
                )
                assert grid.rank_of(cyclic) == rank
                assert grid.owner_of(coords) == rank


class TestParallelExecutionProperties:
    """Hypothesis: parallel == serial bit-exactly across kernels/grids/workers."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_parallel_equals_serial(self, data):
        builder = data.draw(
            st.sampled_from(["mttkrp", "ttmc", "tttp"]), label="kernel"
        )
        dims = tuple(
            data.draw(st.integers(4, 10), label=f"dim{m}") for m in range(3)
        )
        nnz = data.draw(st.integers(1, 120), label="nnz")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        n_procs = data.draw(st.integers(2, 8), label="n_procs")
        workers = data.draw(st.sampled_from([2, 4]), label="workers")
        tensor = random_sparse_tensor(
            dims, nnz=min(nnz, int(np.prod(dims))), seed=seed
        )
        rank = data.draw(st.integers(2, 3), label="rank")
        factors = [
            random_dense_matrix(d, rank, seed=seed + i)
            for i, d in enumerate(dims)
        ]
        if builder == "mttkrp":
            kernel, tensors = mttkrp_kernel(tensor, factors, mode=0)
        elif builder == "ttmc":
            kernel, tensors = ttmc_kernel(tensor, factors, mode=0)
        else:
            kernel, tensors = tttp_kernel(tensor, factors)
        dist = DistributedSpTTN(kernel, tensors)
        serial = dist.execute(n_procs, workers=0)
        parallel = dist.execute(n_procs, workers=workers)
        _assert_bit_identical(serial, parallel)


class TestDistCLI:
    def test_execute_mode_runs(self, capsys):
        from repro.__main__ import main

        rc = main(
            [
                "dist",
                "--spec", "ijk,ja,ka->ia",
                "--shape", "14,12,10",
                "--nnz", "120",
                "--rank", "3",
                "--procs", "1,2,4",
                "--workers", "2",
                "--mode", "both",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "rank-parallel execution: 2 worker(s)" in out
        assert "predicted [ms]" in out
        assert "max |Δ|" in out

    def test_simulate_mode_runs(self, capsys):
        from repro.__main__ import main

        rc = main(
            [
                "dist",
                "--spec", "ijk,jr,ks->irs",
                "--shape", "12,10,8",
                "--nnz", "80",
                "--rank", "3",
                "--procs", "1,4,16",
                "--mode", "simulate",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "simulated strong scaling" in out
        assert "imbalance" in out


class TestStrongScaling:
    def test_scaling_result_structure(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        result = strong_scaling(kernel, tensors, [1, 2, 4, 8], kernel_name="ttmc")
        assert result.processes() == [1, 2, 4, 8]
        assert len(result.times()) == 4
        rows = result.as_rows()
        assert rows[0]["kernel"] == "ttmc"
        assert all(0 < row["efficiency"] <= 1.5 for row in rows)

    def test_speedup_generally_increases(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        result = strong_scaling(kernel, tensors, [1, 4, 16], kernel_name="ttmc")
        times = result.times()
        assert times[1] < times[0]
        assert times[2] < times[0]

    def test_empty_process_list_rejected(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        with pytest.raises(ValueError):
            strong_scaling(kernel, tensors, [], kernel_name="ttmc")
