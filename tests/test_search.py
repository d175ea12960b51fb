"""Parallel search sweeps: determinism, argmin equality, autotune wiring."""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core.autotune import Autotuner
from repro.core.cost_model import ExecutionCost, TreeSeparableCost
from repro.core.enumeration import enumerate_loop_orders
from repro.core.loop_nest import LoopNest
from repro.core.optimizer import OptimalLoopOrderSearch
from repro.core.scheduler import SpTTNScheduler
from repro.core.search import (
    CostModelEvaluator,
    ExecutionRunner,
    measure_loop_nests,
    sweep_loop_nests,
    sweep_loop_orders,
)
from repro.runtime import parallel_map, resolve_workers
from repro.engine.executor import LoopNestExecutor
from repro.__main__ import main as cli_main

ENUMERATION_FIXTURES = ["mttkrp_setup", "ttmc_setup", "tttp_setup", "allmode_setup"]


class ConstantCost(TreeSeparableCost):
    """Every loop nest costs the same — exercises deterministic tie-breaking."""

    def combine(self, a, b):
        return a + b

    def phi(self, path, root_index, inner_positions, after_positions, removed, inner_cost):
        return 0.0

    def leaf(self, path, term_position, after_positions, removed):
        return 0.0


class TestResolveWorkers:
    def test_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(-1) >= 1

    def test_env_default_is_shared_with_the_runtime_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert resolve_workers(None) == 2
        assert resolve_workers(0) == 1  # explicit serial beats the env


class TestParallelMap:
    def test_matches_serial(self):
        evaluator = CostModelEvaluatorStandIn()
        items = list(range(17))
        assert parallel_map(evaluator, items, workers=2) == [x * x for x in items]

    def test_unpicklable_falls_back_to_serial(self):
        items = [1, 2, 3]
        result = parallel_map(lambda x: x + 1, items, workers=2)
        assert result == [2, 3, 4]

    def test_empty_and_single(self):
        evaluator = CostModelEvaluatorStandIn()
        assert parallel_map(evaluator, [], workers=4) == []
        assert parallel_map(evaluator, [3], workers=4) == [9]


class CostModelEvaluatorStandIn:
    """Picklable module-level callable for the pool tests."""

    def __call__(self, x):
        return x * x


class TestCostModelSweep:
    @pytest.mark.parametrize("fixture", ENUMERATION_FIXTURES)
    def test_parallel_matches_serial_argmin(self, request, fixture):
        kernel, _ = request.getfixturevalue(fixture)
        path = SpTTNScheduler(kernel).schedule().path
        serial = sweep_loop_orders(kernel, path, workers=1, limit=36)
        parallel = sweep_loop_orders(kernel, path, workers=2, limit=36)
        assert serial.values() == parallel.values()
        assert serial.best.index == parallel.best.index
        assert serial.best.nest == parallel.best.nest
        assert serial.best.value == parallel.best.value

    def test_sweep_matches_optimizer(self, mttkrp_setup):
        kernel, _ = mttkrp_setup
        path = SpTTNScheduler(kernel).schedule().path
        cost = ExecutionCost(kernel)
        sweep = sweep_loop_orders(kernel, path, cost=cost, workers=2)
        dp = OptimalLoopOrderSearch(kernel, cost).search(path)
        assert sweep.best.value == pytest.approx(dp.cost)

    def test_deterministic_tie_break(self, mttkrp_setup):
        kernel, _ = mttkrp_setup
        path = SpTTNScheduler(kernel).schedule().path
        cost = ConstantCost(kernel)
        serial = sweep_loop_orders(kernel, path, cost=cost, workers=1)
        parallel = sweep_loop_orders(kernel, path, cost=cost, workers=2)
        # all candidates tie; the earliest enumerated one must win everywhere
        assert serial.best.index == 0
        assert parallel.best.index == 0
        assert parallel.best.nest == serial.best.nest

    def test_full_space_sweep(self, mttkrp_setup):
        kernel, _ = mttkrp_setup
        sweep = sweep_loop_nests(kernel, workers=2, limit_per_path=12)
        assert len(sweep) > 0
        ranked = sweep.sorted_entries()
        assert ranked[0].value <= ranked[-1].value
        assert sweep.rank_of(sweep.best.nest) == 0

    def test_evaluator_pickles(self, mttkrp_setup):
        kernel, _ = mttkrp_setup
        path = SpTTNScheduler(kernel).schedule().path
        nest = LoopNest(path, next(iter(enumerate_loop_orders(kernel, path))))
        evaluator = CostModelEvaluator(kernel)
        clone = pickle.loads(pickle.dumps(evaluator))
        assert clone(nest) == evaluator(nest)


class TestMeasuredSweep:
    def test_execution_runner_pickles_and_matches_executor(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        runner = ExecutionRunner(kernel, tensors)
        clone = pickle.loads(pickle.dumps(runner))
        direct = LoopNestExecutor(kernel, nest).execute(tensors)
        np.testing.assert_array_equal(np.asarray(clone(nest)), np.asarray(direct))

    def test_measured_sweep_parallel_covers_all_candidates(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        path = SpTTNScheduler(kernel).schedule().path
        nests = [
            LoopNest(path, order)
            for order in enumerate_loop_orders(kernel, path, limit=6)
        ]
        runner = ExecutionRunner(kernel, tensors)
        sweep = measure_loop_nests(nests, runner, workers=2)
        assert len(sweep) == len(nests)
        assert all(entry.value > 0 for entry in sweep.entries)
        assert [entry.nest for entry in sweep.entries] == nests  # order kept


class TestAutotunerWiring:
    def test_parallel_autotune_same_candidate_ranking_universe(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        path = SpTTNScheduler(kernel).schedule().path
        runner = ExecutionRunner(kernel, tensors)
        tuner = Autotuner(kernel, runner, repeats=1)
        serial = tuner.tune_path(path, max_candidates=6)
        parallel = tuner.tune_path(path, max_candidates=6, workers=2)
        def key(entry):
            return entry.loop_nest.order

        assert sorted(map(key, serial.entries), key=str) == sorted(
            map(key, parallel.entries), key=str
        )
        assert parallel.rank_of(serial.best.loop_nest) is not None

    def test_closure_runner_still_works(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        path = SpTTNScheduler(kernel).schedule().path
        calls = []

        def runner(nest):  # not picklable across processes -> serial fallback
            calls.append(nest)
            return LoopNestExecutor(kernel, nest).execute(tensors)

        tuner = Autotuner(kernel, runner, repeats=1, workers=2)
        result = tuner.tune_path(path, max_candidates=4)
        assert len(result.entries) == 4
        # 4 timed runs plus the one untimed process warmup
        assert len(calls) == 5


class TestTuneCLI:
    def test_tune_command_runs(self, capsys):
        rc = cli_main(
            [
                "tune",
                "--spec", "ijk,ja,ka->ia",
                "--shape", "12,10,8",
                "--nnz", "60",
                "--rank", "3",
                "--workers", "2",
                "--top", "3",
                "--measure",
                "--measure-candidates", "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cost-model sweep" in out
        assert "scheduler's pick" in out
        assert "measured 3 candidates" in out

    def test_tune_measures_tttp_without_replicating_picked_axes(self, capsys):
        """TTTP nests that pick two axes of a shallow buffer per nonzero are
        measured at lanes x rank: replicating the buffer to every nonzero
        first would hold its j and k axes whole per nonzero (400 x 16 x
        40 x 40 doubles, 82 MB, 1600x the picked register)."""
        tracemalloc.start()
        try:
            rc = cli_main(
                [
                    "tune",
                    "--spec", "ijk,ia,ja,ka->ijk",
                    "--shape", "40,40,40",
                    "--nnz", "400",
                    "--rank", "16",
                    "--workers", "0",
                    "--measure",
                ]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert rc == 0
        assert "measured 12 candidates" in out
        assert peak < 48 * 2**20
