"""Tests for the vectorized lowering subsystem (repro.engine.lowering).

The contract under test: for every kernel whose scheduled loop nest lowers,
the lowered engine produces the same output as the interpreter (to the
floating-point reassociation of vectorized summation, ~1 ulp) with *exactly*
equal operation counters; only a nest past the 52 einsum letters is
interpreted.  Every shipped kernel family (MTTKRP, TTMc,
TTTc, TTTP, all-mode TTMc) must take the lowered path for its
scheduler-chosen loop order.
"""

import numpy as np
import pytest

from repro.core.contraction_path import enumerate_contraction_paths, rank_contraction_paths
from repro.core.enumeration import enumerate_loop_orders
from repro.core.loop_nest import LoopNest, LoopOrder
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.engine.lowering import Program, lower_plan
from repro.engine.plan_cache import PlanCache, default_plan_cache
from repro.kernels.tttc import tt_core_shapes, tttc_kernel
from repro.sptensor import COOTensor, random_sparse_tensor
from repro.util.counters import OpCounter

KERNELS = ["mttkrp_setup", "ttmc_setup", "ttmc4_setup", "tttp_setup", "allmode_setup"]


def _values(output):
    return output.values if isinstance(output, COOTensor) else np.asarray(output)


def run_both(kernel, tensors, nest):
    """Execute one nest under both engines; return (lowered, interpreted)."""
    results = {}
    for engine in ("lowered", "interpret"):
        counter = OpCounter()
        executor = LoopNestExecutor(
            kernel, nest, counter=counter, plan_cache=PlanCache(), engine=engine,
        )
        output = executor.execute(tensors)
        results[engine] = (output, counter, executor.last_engine)
    return results["lowered"], results["interpret"]


def assert_equivalent(lowered, interpreted):
    (out_low, ctr_low, _), (out_int, ctr_int, _) = lowered, interpreted
    np.testing.assert_allclose(
        _values(out_low), _values(out_int), rtol=1e-12, atol=1e-14
    )
    assert ctr_low.flops == ctr_int.flops


@pytest.mark.parametrize("fixture_name", KERNELS)
class TestScheduledKernelsLower:
    def test_scheduler_pick_takes_lowered_path(self, fixture_name, request):
        kernel, tensors = request.getfixturevalue(fixture_name)
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        lowered, interpreted = run_both(kernel, tensors, nest)
        assert lowered[2] == "lowered"
        assert interpreted[2] == "interpret"
        assert_equivalent(lowered, interpreted)


class TestTTTcLowers:
    def test_order6_tensor_train_contraction(self):
        tensor = random_sparse_tensor(tuple(8 for _ in range(6)), nnz=300, seed=3)
        rng = np.random.default_rng(5)
        cores = [rng.random(shape) for shape in tt_core_shapes(tensor.shape, 4)]
        kernel, tensors = tttc_kernel(tensor, cores, removed_core=5)
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        lowered, interpreted = run_both(kernel, tensors, nest)
        assert lowered[2] == "lowered"
        assert_equivalent(lowered, interpreted)


@pytest.mark.parametrize("fixture_name", ["mttkrp_setup", "ttmc_setup", "tttp_setup"])
def test_all_best_path_loop_orders_agree(fixture_name, request):
    """Every enumerated loop order of the best path: lowered == interpreted
    (whether the order lowers or falls back)."""
    kernel, tensors = request.getfixturevalue(fixture_name)
    path = rank_contraction_paths(kernel)[0][0]
    lowered_count = 0
    for order in enumerate_loop_orders(kernel, path):
        nest = LoopNest(path, order)
        lowered, interpreted = run_both(kernel, tensors, nest)
        assert_equivalent(lowered, interpreted)
        lowered_count += lowered[2] == "lowered"
    assert lowered_count > 0


def test_dense_only_group_over_sparse_indices_compiles(tttp_setup):
    """``A*B -> X; C*X -> Y; T*Y -> O`` with orders ``(r,i,j)``,
    ``(r,i,j,k)``, ``(i,j,k)``: the two dense-only terms fuse under a dense
    loop over ``r`` and then over the sparse indices ``i`` and ``j``, which
    lower as ordinary batch axes."""
    kernel, tensors = tttp_setup
    path = next(
        p for p in enumerate_contraction_paths(kernel)
        if [(t.lhs, t.rhs) for t in p] == [("A", "B"), ("C", p[0].out), ("T", p[1].out)]
    )
    nest = LoopNest(path, LoopOrder((("r", "i", "j"), ("r", "i", "j", "k"), ("i", "j", "k"))))
    runs = {}
    for engine in ("jit", "lowered", "interpret"):
        counter = OpCounter()
        executor = LoopNestExecutor(kernel, nest, counter=counter, engine=engine)
        runs[engine] = (executor.execute(tensors), counter, executor.last_engine)
        assert executor.last_engine == engine
    for engine in ("jit", "lowered"):
        assert_equivalent(runs[engine], runs["interpret"])


class TestEngineSwitch:
    def test_invalid_engine_rejected(self, mttkrp_setup):
        kernel, _ = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        with pytest.raises(ValueError, match="engine"):
            LoopNestExecutor(kernel, nest, engine="vectorized")

    def test_interpret_engine_never_lowers(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        executor = LoopNestExecutor(kernel, nest, engine="interpret")
        executor.execute(tensors)
        assert executor.last_engine == "interpret"

    def test_env_variable_selects_engine(self, mttkrp_setup, monkeypatch):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        monkeypatch.setenv("REPRO_ENGINE", "interpret")
        executor = LoopNestExecutor(kernel, nest)
        assert executor.engine == "interpret"
        monkeypatch.setenv("REPRO_ENGINE", "lowered")
        executor = LoopNestExecutor(kernel, nest)
        executor.execute(tensors)
        assert executor.last_engine == "lowered"

    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_env_variable_is_unset(self, mttkrp_setup, monkeypatch, value):
        kernel, _ = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        monkeypatch.setenv("REPRO_ENGINE", value)
        assert LoopNestExecutor(kernel, nest).engine == "jit"

    def test_empty_tensor_interprets(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        empty = dict(tensors)
        empty["T"] = COOTensor.empty(tensors["T"].shape)
        executor = LoopNestExecutor(kernel, nest, engine="lowered")
        output = executor.execute(empty)
        assert executor.last_engine == "interpret"
        assert np.all(np.asarray(output) == 0.0)


class TestPlanIntegration:
    def test_lowered_program_cached_on_plan(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        executor = LoopNestExecutor(kernel, nest, engine="lowered")
        executor.execute(tensors)
        plan = executor._plan
        assert isinstance(plan.lowered, Program)
        program = plan.lowered
        # a second executor sharing the process-wide cache reuses the program
        other = LoopNestExecutor(kernel, nest, engine="lowered")
        other.execute(tensors)
        assert other._plan is plan
        assert other._plan.lowered is program
        assert plan.key in default_plan_cache()

    def test_interpreter_shares_the_same_plan(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        fast = LoopNestExecutor(kernel, nest, engine="lowered")
        slow = LoopNestExecutor(kernel, nest, engine="interpret")
        out_fast = fast.execute(tensors)
        out_slow = slow.execute(tensors)
        assert fast._plan is slow._plan
        np.testing.assert_allclose(out_fast, out_slow, rtol=1e-12, atol=1e-14)

    def test_lower_plan_is_structural(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        executor = LoopNestExecutor(kernel, nest, engine="interpret")
        executor._prepare(tensors)
        program = lower_plan(executor)
        assert isinstance(program, Program)
        assert program.n_ops > 0
        assert "lowered program" in program.describe()


class TestCacheCLI:
    def test_cache_subcommand_prints_stats(
        self, mttkrp_setup, capsys, monkeypatch, tmp_path
    ):
        from repro.__main__ import main
        from repro.engine.plan_cache import cached_schedule

        monkeypatch.setenv("REPRO_PLAN_STORE", str(tmp_path / "store"))
        kernel, _ = mttkrp_setup
        cached_schedule(kernel)  # a search, written through to the store
        assert main(["cache"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == f"plan store at {tmp_path / 'store'}:"
        assert lines[1].split() == ["entries", "hits", "misses", "writes", "errors", "bytes"]
        assert lines[2].split()[:5] == ["1", "0", "1", "1", "0"]

    def test_cache_subcommand_without_a_store(self, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.delenv("REPRO_PLAN_STORE", raising=False)
        assert main(["cache"]) == 0
        captured = capsys.readouterr().out
        assert "plan store: not configured" in captured
