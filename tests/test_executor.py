"""Correctness tests for the loop-nest executor (Algorithm 2).

The strongest check: for every kernel family, *every* enumerated loop order
of the best contraction path (and a sample over other paths) must produce
the same result as the dense einsum reference.
"""

import sys
import threading

import numpy as np
import pytest

from interpreter import TIERS, Interpreter, execute, make_executor
from repro.core.contraction_path import enumerate_contraction_paths, rank_contraction_paths
from repro.core.cost_model import OperationCountCost, evaluate_cost
from repro.core.enumeration import (
    enumerate_loop_orders,
    enumerate_loop_orders_for_term,
    sample_loop_orders,
)
from repro.core.expr import parse_kernel
from repro.core.loop_nest import LoopNest, LoopOrder
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor, execute_kernel
from repro.engine.lowering import ir
from repro.engine.plan_cache import PlanCache, cached_schedule
from repro.engine.reference import assert_same_result, reference_output
from repro.sptensor import COOTensor, CSFTensor, random_dense_matrix, random_sparse_tensor
from repro.util.counters import OpCounter

from conftest import ALL_KERNEL_FIXTURES

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


def _drawn_nests(kernel, per_path: int, seed: int):
    """*per_path* CSF-consistent nests of every ranked path, each term's
    order drawn uniformly (with replacement) from its own enumeration."""
    rng = np.random.default_rng(seed)
    for path, _ in rank_contraction_paths(kernel):
        per_term = [enumerate_loop_orders_for_term(kernel, term, True) for term in path]
        for _ in range(per_path):
            order = tuple(orders[int(rng.integers(len(orders)))] for orders in per_term)
            yield LoopNest(path, LoopOrder(order))


def _executed_and_modelled_flops(kernel, tensors, nest, engine, cache):
    counter = OpCounter()
    execute(make_executor(kernel, nest, engine, counter=counter, plan_cache=cache), tensors)
    model = evaluate_cost(kernel, nest.path, nest.order, OperationCountCost(kernel))
    return counter.flops, model


class TestTheModelCountsWhatRuns:
    """Claim 3(a): a nest executes exactly the scalar operations
    ``OperationCountCost`` charges it, on the tests' interpreter and on
    ``jit``, because the model, the plan and the lowering share one descent
    rule (``SpTTNKernel.csf_descends``)."""

    @pytest.mark.parametrize("fixture_name", ALL_KERNEL_FIXTURES)
    def test_drawn_nests_execute_the_modelled_count(self, fixture_name, request):
        kernel, tensors = request.getfixturevalue(fixture_name)
        cache = PlanCache()
        for nest in _drawn_nests(kernel, per_path=3, seed=0):
            for engine in ("interpret", "jit"):
                flops, model = _executed_and_modelled_flops(
                    kernel, tensors, nest, engine, cache
                )
                assert flops == pytest.approx(model, rel=1e-9), nest.order

    @pytest.mark.parametrize("fixture_name", ALL_KERNEL_FIXTURES)
    def test_drawn_nests_on_an_empty_tensor_run_compiled(self, fixture_name, request):
        """With no stored entry, every drawn nest runs compiled on both
        engines: zero outputs, and the interpreter's count (the model
        charges some of these nests operations that never run)."""
        kernel, tensors = request.getfixturevalue(fixture_name)
        empty = dict(tensors, T=COOTensor.empty(tensors["T"].shape))
        cache = PlanCache()
        for nest in _drawn_nests(kernel, per_path=2, seed=1):
            runs = {}
            for engine in TIERS:
                counter = OpCounter()
                executor = make_executor(kernel, nest, engine, counter=counter, plan_cache=cache)
                output = execute(executor, empty)
                values = output.values if isinstance(output, COOTensor) else output
                assert not np.asarray(values).any(), (engine, nest.order)
                runs[engine] = counter.flops
            assert runs["jit"] == runs["lowered"] == runs["interpret"], nest.order

    @pytest.mark.parametrize(
        "spec, modes", [("ijkl,ir,jr,lr->kr", (0, 1, 3)), ("ijkl,ir,kr,lr->jr", (0, 2, 3))]
    )
    @pytest.mark.parametrize("engine", ["interpret", "jit"])
    def test_order4_mttkrp_executes_its_model(self, spec, modes, engine):
        """The two rank-4 order-4 MTTKRPs of the serving mix (its order-4
        tensor) execute their chosen nests' 4 368 modelled operations, not
        12 584: the loop over a sparse index in a term that reads only a
        buffer descends too."""
        tensor = random_sparse_tensor((14, 12, 10, 8), nnz=220, seed=2)
        operands = [tensor] + [random_dense_matrix(tensor.shape[m], 4, seed=m) for m in modes]
        kernel = parse_kernel(spec, operands)
        tensors = {op.name: t for op, t in zip(kernel.operands, operands)}
        nest = cached_schedule(kernel).loop_nest
        flops, model = _executed_and_modelled_flops(kernel, tensors, nest, engine, PlanCache())
        assert flops == 4_368
        assert model == pytest.approx(flops, rel=1e-12)


class TestSharedPlanThreads:
    def test_threads_count_the_einsum_fallback_apart(self):
        """Interpreters on more threads than cores share one memo of
        specialized site steps; its ``k_einsum`` site counts from its own
        operands, so no thread's count or output sees another's."""
        tensor = random_sparse_tensor((9, 8, 7), nnz=60, seed=0)
        operands = [tensor] + [
            random_dense_matrix(dim, rank, seed=m + 1)
            for m, (dim, rank) in enumerate(zip(tensor.shape, (3, 4, 2)))
        ]
        kernel = parse_kernel("ijk,ir,js,kt->rst", operands)
        tensors = {op.name: t for op, t in zip(kernel.operands, operands)}
        nest = cached_schedule(kernel).loop_nest
        expected = reference_output(kernel, tensors)
        single = OpCounter()
        Interpreter(kernel, nest, counter=single).execute(tensors)

        sites, calls = {}, 300
        executors = [Interpreter(kernel, nest, sites=sites) for _ in range(3)]
        outputs = [[] for _ in executors]
        barrier = threading.Barrier(len(executors))
        errors = []

        def run(executor, out) -> None:
            try:
                barrier.wait(timeout=30)
                for _ in range(calls):
                    out.append(executor.execute(tensors))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=pair) for pair in zip(executors, outputs)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(executor.sites is sites for executor in executors)
        kernels = [step[5].__name__ for site in sites.values() for step in site
                   if step[0] == "offload"]
        assert "k_einsum" in kernels
        for executor, out in zip(executors, outputs):
            assert len(out) == calls
            assert executor.counter.flops == calls * single.flops
            for result in out:
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
        out = execute(make_executor(kernel, nest, engine), tensors)

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
        executor = LoopNestExecutor(kernel, schedule.loop_nest, counter=counter)
        executor.execute(tensors)
        assert counter.flops > 0
        assert any(isinstance(op, ir.Contract) for op in executor._plan.lowered.ops)

    def test_execute_kernel_convenience(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        expected = reference_output(kernel, tensors)
        out, schedule = execute_kernel(
            "ijk,ja,ka->ia", [tensors["T"], tensors["B"], tensors["C"]]
        )
        np.testing.assert_allclose(out, expected, atol=1e-10)
        assert schedule.max_buffer_dimension() <= 2
