"""End-to-end integration tests spanning multiple subsystems."""

import numpy as np

import repro
from repro.apps import cp_als, cp_completion
from repro.core.scheduler import SpTTNScheduler
from repro.distributed import DistributedSpTTN
from repro.engine.reference import assert_same_result, reference_output
from repro.frameworks import SpTTNCyclopsBaseline, TacoLikeBaseline
from repro.kernels import mttkrp_kernel
from repro.sptensor import load_preset, random_dense_matrix, read_tns, write_tns


class TestPublicAPI:
    def test_contract_alias(self, random_coo3):
        B = random_dense_matrix(random_coo3.shape[1], 4, seed=0)
        C = random_dense_matrix(random_coo3.shape[2], 4, seed=1)
        out, schedule = repro.contract("ijk,ja,ka->ia", [random_coo3, B, C])
        ref = np.einsum("ijk,ja,ka->ia", random_coo3.to_dense(), B, C)
        np.testing.assert_allclose(out, ref, atol=1e-10)
        assert schedule.max_buffer_dimension() <= 2

    def test_version_exported(self):
        assert repro.__version__

    def test_top_level_symbols(self):
        for name in ("SpTTNScheduler", "LoopNestExecutor", "CSFTensor", "contract"):
            assert hasattr(repro, name)

    def test_cli_dense_operands_are_ndarrays(self, random_coo3):
        from repro.__main__ import _build_operands

        _, J, K = random_coo3.shape
        operands = _build_operands("ijk,ja,kab->ib", random_coo3, rank=4, seed=7)
        assert operands[0] is random_coo3
        assert [type(d) for d in operands[1:]] == [np.ndarray, np.ndarray]
        np.testing.assert_array_equal(operands[1], np.random.default_rng(7).random((J, 4)))
        np.testing.assert_array_equal(operands[2], np.random.default_rng(8).random((K, 4, 4)))


class TestDatasetToScheduleFlow:
    def test_preset_tensor_through_scheduler_and_executor(self):
        T = load_preset("nips", scale=4e-3, max_nnz=400, seed=0)
        factors = [random_dense_matrix(d, 4, seed=n) for n, d in enumerate(T.shape)]
        kernel, tensors = mttkrp_kernel(T, factors, mode=0)
        expected = reference_output(kernel, tensors)
        schedule = SpTTNScheduler(kernel).schedule()
        from repro.engine.executor import LoopNestExecutor

        out = LoopNestExecutor(kernel, schedule.loop_nest).execute(tensors)
        assert_same_result(out, expected, rtol=1e-8, atol=1e-10)

    def test_tns_roundtrip_through_kernel(self, tmp_path, random_coo3):
        path = tmp_path / "tensor.tns"
        write_tns(random_coo3, path)
        T = read_tns(path, shape=random_coo3.shape)
        B = random_dense_matrix(T.shape[1], 3, seed=0)
        C = random_dense_matrix(T.shape[2], 3, seed=1)
        out, _ = repro.contract("ijk,jr,ks->irs", [T, B, C])
        ref = np.einsum("ijk,jr,ks->irs", random_coo3.to_dense(), B, C)
        np.testing.assert_allclose(out, ref, atol=1e-10)


class TestFrameworkComparisonFlow:
    def test_single_kernel_swept_across_frameworks(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        expected = reference_output(kernel, tensors)
        results = {}
        for baseline in (SpTTNCyclopsBaseline(), TacoLikeBaseline()):
            res = baseline.run(kernel, tensors)
            assert_same_result(res.output, expected)
            results[baseline.name] = res
        # the framework comparison data needed for Figure 7 style tables
        assert results["spttn-cyclops"].counter.flops <= results[
            "taco-unfactorized"
        ].counter.flops


class TestDistributedDecompositionFlow:
    def test_distributed_kernel_inside_decomposition_step(self, random_coo3):
        """One CP-ALS style step where the MTTKRP runs on the distributed runtime."""
        rank = 3
        factors = [
            random_dense_matrix(d, rank, seed=n) for n, d in enumerate(random_coo3.shape)
        ]
        kernel, tensors = mttkrp_kernel(random_coo3, factors, mode=0)
        dist = DistributedSpTTN(kernel, tensors)
        parallel = dist.execute(4)
        serial = dist.execute(1)
        np.testing.assert_allclose(parallel, serial, atol=1e-10)

    def test_apps_run_on_preset_data(self):
        T = load_preset("vast-3d", scale=3e-3, max_nnz=300, seed=2)
        cp = cp_als(T, rank=2, iterations=2, seed=0)
        assert cp.iterations == 2
        comp = cp_completion(T, rank=2, iterations=3, seed=0)
        assert len(comp.rmse_history) == 3
