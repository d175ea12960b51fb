"""Tests for the vectorized lowering subsystem (repro.engine.lowering).

The contract under test: every scheduled loop nest lowers, and the lowered
engine produces the same output as the tests' interpreter
(``tests/interpreter.py``, to the floating-point reassociation of
vectorized summation, ~1 ulp) with *exactly* equal operation counters.
Every shipped kernel family (MTTKRP, TTMc, TTTc, TTTP, all-mode TTMc)
runs compiled code for its scheduler-chosen loop order, and a lowered
program depends on the nest's structure, not on the tensor's nnz.
"""

import numpy as np
import pytest

from interpreter import TIERS, Interpreter, execute, make_executor
from repro.core.contraction_path import enumerate_contraction_paths, rank_contraction_paths
from repro.core.enumeration import enumerate_loop_orders
from repro.core.loop_nest import LoopNest, LoopOrder
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.engine.lowering import Program, lower_plan
from repro.core.expr import parse_kernel
from repro.engine.plan_cache import PlanCache, default_plan_cache
from repro.kernels.tttc import tt_core_shapes, tttc_kernel
from repro.sptensor import COOTensor, random_dense_matrix, random_sparse_tensor
from repro.sptensor.csf import csf_for_mode_order
from repro.util.counters import OpCounter

KERNELS = ["mttkrp_setup", "ttmc_setup", "ttmc4_setup", "tttp_setup", "allmode_setup"]


def _values(output):
    return output.values if isinstance(output, COOTensor) else np.asarray(output)


def run_both(kernel, tensors, nest):
    """Execute one nest on the lowered engine, asserting that it ran
    compiled code, and on the interpreter; return (lowered, interpreted)."""
    results = {}
    for engine in ("lowered", "interpret"):
        counter = OpCounter()
        executor = make_executor(kernel, nest, engine, counter=counter, plan_cache=PlanCache())
        results[engine] = (execute(executor, tensors), counter)
    return results["lowered"], results["interpret"]


def assert_equivalent(lowered, interpreted):
    (out_low, ctr_low), (out_int, ctr_int) = lowered, interpreted
    np.testing.assert_allclose(
        _values(out_low), _values(out_int), rtol=1e-12, atol=1e-14
    )
    assert ctr_low.flops == ctr_int.flops


@pytest.mark.parametrize("fixture_name", KERNELS)
class TestScheduledKernelsLower:
    def test_scheduler_pick_takes_lowered_path(self, fixture_name, request):
        kernel, tensors = request.getfixturevalue(fixture_name)
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        assert_equivalent(*run_both(kernel, tensors, nest))


class TestTTTcLowers:
    def test_order6_tensor_train_contraction(self):
        tensor = random_sparse_tensor(tuple(8 for _ in range(6)), nnz=300, seed=3)
        rng = np.random.default_rng(5)
        cores = [rng.random(shape) for shape in tt_core_shapes(tensor.shape, 4)]
        kernel, tensors = tttc_kernel(tensor, cores, removed_core=5)
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        assert_equivalent(*run_both(kernel, tensors, nest))


@pytest.mark.parametrize("fixture_name", ["mttkrp_setup", "ttmc_setup", "tttp_setup"])
def test_all_best_path_loop_orders_agree(fixture_name, request):
    """Every enumerated loop order of the best path lowers, and lowered ==
    interpreted."""
    kernel, tensors = request.getfixturevalue(fixture_name)
    path = rank_contraction_paths(kernel)[0][0]
    for order in enumerate_loop_orders(kernel, path):
        assert_equivalent(*run_both(kernel, tensors, LoopNest(path, order)))


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
    for engine in TIERS:
        counter = OpCounter()
        executor = make_executor(kernel, nest, engine, counter=counter)
        runs[engine] = (execute(executor, tensors), counter)
    for engine in ("jit", "lowered"):
        assert_equivalent(runs[engine], runs["interpret"])


class TestEngineSwitch:
    def test_invalid_engine_rejected(self, mttkrp_setup):
        kernel, _ = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        with pytest.raises(ValueError, match="engine"):
            LoopNestExecutor(kernel, nest, engine="vectorized")

    def test_interpret_is_not_an_engine(self, mttkrp_setup):
        """The interpreter is the tests' oracle, not a runtime engine."""
        kernel, _ = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        with pytest.raises(ValueError, match="engine must be one of"):
            LoopNestExecutor(kernel, nest, engine="interpret")

    def test_env_variable_selects_engine(self, mttkrp_setup, monkeypatch):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        monkeypatch.setenv("REPRO_ENGINE", "interpret")
        with pytest.raises(ValueError, match="engine must be one of"):
            LoopNestExecutor(kernel, nest)
        monkeypatch.setenv("REPRO_ENGINE", "lowered")
        executor = LoopNestExecutor(kernel, nest, plan_cache=PlanCache())
        assert executor.engine == "lowered"
        execute(executor, tensors)
        assert executor._plan.unfused is not None and executor._plan.jit is None

    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_env_variable_is_unset(self, mttkrp_setup, monkeypatch, value):
        kernel, _ = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        monkeypatch.setenv("REPRO_ENGINE", value)
        assert LoopNestExecutor(kernel, nest).engine == "jit"

    def test_empty_tensor_runs_compiled(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        empty = dict(tensors)
        empty["T"] = COOTensor.empty(tensors["T"].shape)
        counter = OpCounter()
        executor = LoopNestExecutor(kernel, nest, counter=counter, engine="lowered")
        output = execute(executor, empty)
        assert np.all(np.asarray(output) == 0.0)
        assert counter.flops == 0


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

    def test_lower_plan_is_structural(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        executor = LoopNestExecutor(kernel, nest, plan_cache=PlanCache())
        executor._prepare(tensors)
        program = lower_plan(executor)
        assert isinstance(program, Program)
        assert program.n_ops > 0
        assert "lowered program" in program.describe()


def _ttmc_case(nnz):
    tensor = random_sparse_tensor((120, 100, 80), nnz=nnz, seed=1)
    u, v = random_dense_matrix(100, 16, seed=2), random_dense_matrix(80, 16, seed=3)
    kernel = parse_kernel("ijk,jr,ks->irs", [tensor, u, v], names=["T", "U", "V"])
    return kernel, {"T": tensor, "U": u, "V": v}


def _tttc_case(nnz):
    tensor = random_sparse_tensor((12,) * 6, nnz=nnz, seed=3)
    rng = np.random.default_rng(4)
    cores = [rng.random(shape) for shape in tt_core_shapes(tensor.shape, 8)]
    return tttc_kernel(tensor, cores, removed_core=5)


@pytest.mark.parametrize("build", [_ttmc_case, _tttc_case], ids=["ttmc", "tttc"])
def test_lowered_program_is_independent_of_nnz(build, monkeypatch):
    """TTMc and TTTc at two nnz each: the lowered program and its generated
    source do not change, while the interpreter takes one ``_run`` step per
    stored non-leaf CSF node, and so more steps at the larger nnz."""
    runs = []
    real_run = Interpreter._run
    monkeypatch.setattr(
        Interpreter, "_run", lambda self, *args: runs.append(1) or real_run(self, *args)
    )
    programs, steps = [], []
    for nnz in (400, 1600):
        kernel, tensors = build(nnz)
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        lowered = LoopNestExecutor(kernel, nest, engine="lowered", plan_cache=PlanCache())
        execute(lowered, tensors)
        programs.append((lowered._plan.lowered.n_ops, lowered._plan.unfused.source))
        runs.clear()
        Interpreter(kernel, nest).execute(tensors)
        sparse = kernel.sparse_operand
        csf = csf_for_mode_order(
            tensors[sparse.name], [sparse.indices.index(i) for i in kernel.csf_mode_order]
        )
        assert len(runs) > sum(csf.nnz_at_level(level) for level in range(csf.order - 1))
        steps.append(len(runs))
    assert programs[0] == programs[1]
    assert steps[0] < steps[1]


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
