"""Correctness tests for the loop-nest executor (Algorithm 2).

The strongest check: for every kernel family, *every* enumerated loop order
of the best contraction path (and a sample over other paths) must produce
the same result as the dense einsum reference.
"""

import numpy as np
import pytest

from repro.core.contraction_path import enumerate_contraction_paths, rank_contraction_paths
from repro.core.enumeration import enumerate_loop_orders, sample_loop_orders
from repro.core.expr import parse_kernel
from repro.core.loop_nest import LoopNest
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor, execute_kernel
from repro.engine.reference import assert_same_result, reference_output
from repro.sptensor import COOTensor, CSFTensor, random_dense_matrix, random_sparse_tensor
from repro.util.counters import OpCounter

KERNELS = ["mttkrp_setup", "ttmc_setup", "tttp_setup", "allmode_setup"]


def run_nest(kernel, tensors, nest, counter=None):
    executor = LoopNestExecutor(kernel, nest, counter=counter)
    return executor.execute(tensors)


@pytest.mark.parametrize("fixture_name", KERNELS)
class TestAllLoopOrdersMatchReference:
    def test_best_path_all_orders(self, fixture_name, request):
        kernel, tensors = request.getfixturevalue(fixture_name)
        expected = reference_output(kernel, tensors)
        path = rank_contraction_paths(kernel)[0][0]
        for order in enumerate_loop_orders(kernel, path):
            result = run_nest(kernel, tensors, LoopNest(path, order))
            assert_same_result(result, expected)

    def test_other_paths_sampled_orders(self, fixture_name, request):
        kernel, tensors = request.getfixturevalue(fixture_name)
        expected = reference_output(kernel, tensors)
        # every alternative path, two fixed-seed orders each: the exhaustive
        # order sweep is test_best_path_all_orders' job
        for path in enumerate_contraction_paths(kernel)[1:]:
            for order in sample_loop_orders(kernel, path, fraction=0.3, seed=0, max_samples=2):
                result = run_nest(kernel, tensors, LoopNest(path, order))
                assert_same_result(result, expected)


class TestOrder4:
    def test_ttmc4_scheduled(self, ttmc4_setup):
        kernel, tensors = ttmc4_setup
        expected = reference_output(kernel, tensors)
        schedule = SpTTNScheduler(kernel).schedule()
        assert_same_result(run_nest(kernel, tensors, schedule.loop_nest), expected)

    def test_ttmc4_sampled_orders(self, ttmc4_setup):
        kernel, tensors = ttmc4_setup
        expected = reference_output(kernel, tensors)
        path = rank_contraction_paths(kernel)[0][0]
        for order in sample_loop_orders(kernel, path, fraction=0.02, seed=3, max_samples=10):
            assert_same_result(
                run_nest(kernel, tensors, LoopNest(path, order)), expected
            )


class TestInputHandling:
    def test_accepts_csf_input(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        expected = reference_output(kernel, tensors)
        csf_tensors = dict(tensors)
        csf_tensors["T"] = CSFTensor.from_coo(tensors["T"])
        schedule = SpTTNScheduler(kernel).schedule()
        assert_same_result(run_nest(kernel, csf_tensors, schedule.loop_nest), expected)

    def test_rebuilds_csf_with_wrong_mode_order(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        expected = reference_output(kernel, tensors)
        csf_tensors = dict(tensors)
        csf_tensors["T"] = CSFTensor.from_coo(tensors["T"], mode_order=(2, 1, 0))
        schedule = SpTTNScheduler(kernel).schedule()
        assert_same_result(run_nest(kernel, csf_tensors, schedule.loop_nest), expected)

    def test_accepts_plain_arrays_for_dense(self, mttkrp_setup):
        # any float ndarray is a dense operand; float32 is widened on bind
        kernel, tensors = mttkrp_setup
        arr_tensors = {
            name: (t if name == "T" else t.astype(np.float32))
            for name, t in tensors.items()
        }
        expected = reference_output(kernel, arr_tensors)
        schedule = SpTTNScheduler(kernel).schedule()
        assert_same_result(run_nest(kernel, arr_tensors, schedule.loop_nest), expected)

    def test_missing_operand_rejected(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        schedule = SpTTNScheduler(kernel).schedule()
        executor = LoopNestExecutor(kernel, schedule.loop_nest)
        partial = {k: v for k, v in tensors.items() if k != "B"}
        with pytest.raises(ValueError, match="missing tensor"):
            executor.execute(partial)

    def test_wrong_dense_shape_rejected(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        schedule = SpTTNScheduler(kernel).schedule()
        executor = LoopNestExecutor(kernel, schedule.loop_nest)
        bad = dict(tensors)
        bad["B"] = np.ones((3, 3))
        with pytest.raises(ValueError, match="shape"):
            executor.execute(bad)

    def test_wrong_sparse_type_rejected(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        schedule = SpTTNScheduler(kernel).schedule()
        executor = LoopNestExecutor(kernel, schedule.loop_nest)
        bad = dict(tensors)
        bad["T"] = np.zeros((18, 15, 12))
        with pytest.raises(TypeError):
            executor.execute(bad)

    def test_invalid_loop_order_rejected_on_construction(self, ttmc_setup):
        from repro.core.loop_nest import LoopOrder

        kernel, _ = ttmc_setup
        path = rank_contraction_paths(kernel)[0][0]
        bad = LoopOrder((("j", "i", "k", "s"), ("i", "j", "s", "r")))
        with pytest.raises(ValueError):
            LoopNestExecutor(kernel, LoopNest(path, bad))


def _tttp_case(case):
    """(kernel, tensors) of an order-3 TTTP whose sparse input is *case*."""
    T = random_sparse_tensor((9, 8, 7), nnz=60, seed=5)
    if case == "empty":
        T = COOTensor.empty(T.shape)
    elif case == "unsorted":
        rows = np.random.default_rng(0).permutation(T.nnz)
        T = COOTensor(T.shape, T.indices[rows], T.values[rows], sort=False)
    elif case == "permuted":
        T = CSFTensor.from_coo(T, mode_order=(2, 0, 1))
    factors = [random_dense_matrix(dim, 3, seed=dim) for dim in T.shape]
    kernel = parse_kernel("ijk,ir,jr,kr->ijk", [T, *factors], names=["T", "A", "B", "C"])
    return kernel, dict(zip(["T", "A", "B", "C"], [T, *factors]))


class TestSparseOutput:
    @pytest.mark.parametrize("engine", ["jit", "interpret"])
    @pytest.mark.parametrize("case", ["sorted", "unsorted", "permuted", "empty"])
    def test_output_on_the_input_pattern_matches_a_sorted_build(
        self, case, engine, monkeypatch
    ):
        # the output shares the input's pattern instead of re-expanding and
        # re-sorting it; it must equal the sorted COOTensor built from the
        # CSF leaves bit for bit, for natural and permuted mode orders
        kernel, tensors = _tttp_case(case)
        assert (kernel.csf_mode_order != ("i", "j", "k")) == (case == "permuted")
        leaves = {}
        original = LoopNestExecutor._sparse_output

        def capture(self):
            leaves["csf"], leaves["values"] = self._csf, self._out_values.copy()
            return original(self)

        monkeypatch.setattr(LoopNestExecutor, "_sparse_output", capture)
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        out = LoopNestExecutor(kernel, nest, engine=engine).execute(tensors)

        csf = leaves["csf"]
        coords = np.empty((csf.nnz, csf.order), dtype=np.int64)
        for level in range(csf.order):
            coords[:, csf.mode_order[level]] = csf.expanded_level_indices(level)
        expected = COOTensor(csf.shape, coords, leaves["values"], sort=True)
        assert out.shape == expected.shape
        for got, want in ((out.indices, expected.indices), (out.values, expected.values)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        source = tensors["T"]
        assert not np.shares_memory(out.values, source.values)
        if isinstance(source, COOTensor) and np.shares_memory(out.indices, source.indices):
            assert not out.indices.flags.writeable
        # an unsorted input's reference keeps its row order: compare values
        reference = reference_output(kernel, tensors)
        np.testing.assert_allclose(out.to_dense(), reference.to_dense(), atol=1e-10)


class TestEdgeCases:
    def test_empty_sparse_tensor_gives_zero_output(self):
        T = COOTensor.empty((6, 5, 4))
        B = random_dense_matrix(5, 3, seed=0)
        C = random_dense_matrix(4, 3, seed=1)
        out, _ = execute_kernel("ijk,ja,ka->ia", [T, B, C])
        assert np.all(out == 0.0)

    def test_single_nonzero(self):
        T = COOTensor((6, 5, 4), [(2, 3, 1)], [2.5])
        B = random_dense_matrix(5, 3, seed=0)
        C = random_dense_matrix(4, 3, seed=1)
        out, _ = execute_kernel("ijk,ja,ka->ia", [T, B, C])
        expected = np.zeros((6, 3))
        expected[2] = 2.5 * B[3] * C[1]
        np.testing.assert_allclose(out, expected)

    def test_rank_one_dense_factors(self, random_coo3):
        B = random_dense_matrix(random_coo3.shape[1], 1, seed=0)
        C = random_dense_matrix(random_coo3.shape[2], 1, seed=1)
        out, _ = execute_kernel("ijk,ja,ka->ia", [random_coo3, B, C])
        ref = np.einsum("ijk,ja,ka->ia", random_coo3.to_dense(), B, C)
        np.testing.assert_allclose(out, ref)

    def test_matrix_spmv_like_kernel(self):
        """Order-2 sparse tensor times a vectorized factor (SpMM-like)."""
        M = random_sparse_tensor((20, 16), density=0.1, seed=2)
        X = random_dense_matrix(16, 7, seed=3)
        out, _ = execute_kernel("ij,jr->ir", [M, X])
        np.testing.assert_allclose(out, M.to_dense() @ X, atol=1e-12)

    def test_full_contraction_to_scalar(self, random_coo3):
        """All indices contracted: the output is a 0-d tensor."""
        u = random_dense_matrix(random_coo3.shape[0], 1, seed=0)
        v = random_dense_matrix(random_coo3.shape[1], 1, seed=1)
        w = random_dense_matrix(random_coo3.shape[2], 1, seed=2)
        kernel_spec = "ijk,ir,jr,kr->r"
        out, _ = execute_kernel(kernel_spec, [random_coo3, u, v, w])
        ref = np.einsum(
            "ijk,ir,jr,kr->r", random_coo3.to_dense(), u, v, w
        )
        np.testing.assert_allclose(out, ref)

    def test_counter_records_work(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        counter = OpCounter()
        schedule = SpTTNScheduler(kernel).schedule()
        run_nest(kernel, tensors, schedule.loop_nest, counter=counter)
        assert counter.flops > 0
        assert sum(counter.kernel_calls.values()) > 0

    def test_execute_kernel_convenience(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        expected = reference_output(kernel, tensors)
        out, schedule = execute_kernel(
            "ijk,ja,ka->ia", [tensors["T"], tensors["B"], tensors["C"]]
        )
        np.testing.assert_allclose(out, expected, atol=1e-10)
        assert schedule.max_buffer_dimension() <= 2
