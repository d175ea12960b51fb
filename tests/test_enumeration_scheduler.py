"""Tests for exhaustive enumeration, the scheduler and measured tuning."""

import math

import pytest

from repro.core.contraction_path import enumerate_contraction_paths, rank_contraction_paths
from repro.core.cost_model import CONSTRAINT_PENALTY, MaxBufferDimCost
from repro.core.enumeration import (
    count_loop_orders,
    enumerate_loop_nests,
    enumerate_loop_orders,
    enumerate_loop_orders_for_term,
    sample_loop_orders,
)
from repro.core.loop_nest import LoopNest, validate_loop_order
from repro.core.optimizer import find_optimal_loop_order
from repro.core.scheduler import FLOP_TOLERANCE, SpTTNScheduler
from repro.core.search import SweepResult, TimedRunner, measure_loop_nests
from repro.engine.executor import LoopNestExecutor


class TestTermOrderEnumeration:
    def test_count_with_csf_restriction(self, ttmc_setup):
        """A term with n indices and k sparse ones has n!/k! valid orders."""
        kernel, _ = ttmc_setup
        path = rank_contraction_paths(kernel)[0][0]
        for term in path:
            orders = enumerate_loop_orders_for_term(kernel, term)
            n = len(term.all_indices)
            k = sum(1 for i in term.all_indices if i in kernel.sparse_indices)
            assert len(orders) == math.factorial(n) // math.factorial(k)
            assert len(set(orders)) == len(orders)

    def test_count_without_restriction(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = rank_contraction_paths(kernel)[0][0]
        term = path[0]
        orders = enumerate_loop_orders_for_term(kernel, term, enforce_csf_order=False)
        assert len(orders) == math.factorial(len(term.all_indices))

    def test_all_orders_respect_csf(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = rank_contraction_paths(kernel)[0][0]
        for term in path:
            for order in enumerate_loop_orders_for_term(kernel, term):
                sparse_seq = [i for i in order if i in kernel.sparse_indices]
                expected = [i for i in kernel.csf_mode_order if i in set(sparse_seq)]
                assert sparse_seq == expected

    def test_count_loop_orders_matches_enumeration(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = rank_contraction_paths(kernel)[0][0]
        assert count_loop_orders(kernel, path) == len(
            list(enumerate_loop_orders(kernel, path))
        )

    def test_enumerate_loop_orders_limit(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = rank_contraction_paths(kernel)[0][0]
        assert len(list(enumerate_loop_orders(kernel, path, limit=5))) == 5

    def test_enumerated_orders_are_valid(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = rank_contraction_paths(kernel)[0][0]
        for order in enumerate_loop_orders(kernel, path, limit=30):
            validate_loop_order(kernel, path, order)

    def test_enumerate_loop_nests_spans_paths(self, ttmc_setup):
        kernel, _ = ttmc_setup
        nests = list(enumerate_loop_nests(kernel, limit_per_path=2))
        paths = enumerate_contraction_paths(kernel)
        assert len(nests) == 2 * len(paths)

    def test_enumerate_loop_nests_total_limit(self, ttmc_setup):
        kernel, _ = ttmc_setup
        assert len(list(enumerate_loop_nests(kernel, limit_total=7))) == 7

    def test_sample_loop_orders_fraction(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = rank_contraction_paths(kernel)[0][0]
        total = count_loop_orders(kernel, path)
        sample = sample_loop_orders(kernel, path, fraction=0.25, seed=0)
        assert len(sample) == max(1, round(0.25 * total))
        # samples are drawn without replacement
        assert len({tuple(o.orders) for o in sample}) == len(sample)

    def test_sample_loop_orders_validation(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = rank_contraction_paths(kernel)[0][0]
        with pytest.raises(ValueError):
            sample_loop_orders(kernel, path, fraction=0.0)


class TestScheduler:
    def test_schedule_is_feasible(self, ttmc_setup):
        kernel, _ = ttmc_setup
        schedule = SpTTNScheduler(kernel, buffer_dim_bound=2).schedule()
        assert schedule.max_buffer_dimension() <= 2
        assert schedule.cost_value < CONSTRAINT_PENALTY
        validate_loop_order(kernel, schedule.path, schedule.order)

    def test_schedule_picks_flop_optimal_path(self, ttmc_setup):
        kernel, _ = ttmc_setup
        schedule = SpTTNScheduler(kernel).schedule()
        ranked = rank_contraction_paths(kernel)
        best_flops = ranked[0][1]
        assert schedule.flop_estimate <= best_flops * 1.5

    def test_mttkrp_schedule_factorizes(self, mttkrp_setup):
        """The chosen MTTKRP loop nest is the factorize-and-fuse one (not unfactorized)."""
        kernel, _ = mttkrp_setup
        schedule = SpTTNScheduler(kernel).schedule()
        assert len(schedule.path) == 2
        assert schedule.max_buffer_dimension() <= 1

    def test_describe_contains_loop_listing(self, ttmc_setup):
        kernel, _ = ttmc_setup
        schedule = SpTTNScheduler(kernel).schedule()
        text = schedule.describe()
        assert "for" in text and "sparse" in text

    @pytest.mark.parametrize("setup", ["mttkrp_setup", "ttmc_setup", "ttmc4_setup"])
    def test_schedule_for_path(self, request, setup):
        """The chosen nest is Algorithm 1's CSF-ordered optimum on its path."""
        kernel, _ = request.getfixturevalue(setup)
        scheduler = SpTTNScheduler(kernel)
        schedule = scheduler.schedule()
        result = find_optimal_loop_order(kernel, schedule.path, scheduler.cost)
        assert schedule.order == result.order
        assert schedule.cost_value == result.cost
        validate_loop_order(kernel, schedule.path, schedule.order, enforce_csf_order=True)

    def test_band_is_the_flop_tolerance_of_the_best_path(self, ttmc4_setup):
        kernel, _ = ttmc4_setup
        scheduler = SpTTNScheduler(kernel)
        schedule = scheduler.schedule()
        flops = [f for _, f in scheduler.ranked_paths()]
        assert FLOP_TOLERANCE == 1.5
        assert schedule.candidates_considered == sum(
            f <= flops[0] * FLOP_TOLERANCE for f in flops
        )
        assert schedule.flop_estimate <= flops[0] * FLOP_TOLERANCE

    def test_infeasible_bound_falls_back(self, ttmc4_setup):
        """With an impossible bound of 0, the scheduler still returns a schedule."""
        kernel, _ = ttmc4_setup
        schedule = SpTTNScheduler(kernel, buffer_dim_bound=0, max_paths=30).schedule()
        assert schedule is not None
        assert schedule.loop_nest.max_loop_depth() >= 1

    def test_custom_cost_used(self, ttmc_setup):
        kernel, _ = ttmc_setup
        schedule = SpTTNScheduler(kernel, cost=MaxBufferDimCost(kernel)).schedule()
        assert schedule.cost_value == schedule.max_buffer_dimension()


class TestMeasuredTuning:
    def test_measured_sweep_finds_fast_order(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        path = rank_contraction_paths(kernel)[0][0]

        def runner(nest: LoopNest):
            executor = LoopNestExecutor(kernel, nest)
            return executor.execute(tensors)

        orders = sample_loop_orders(kernel, path, fraction=0.2, seed=0, max_samples=8)
        result = measure_loop_nests([LoopNest(path, o) for o in orders], runner)
        ranked = result.sorted_entries()
        assert len(ranked) >= 1
        assert result.best.value == min(result.values())
        assert ranked[0] == result.best
        assert all(a.value <= b.value for a, b in zip(ranked, ranked[1:]))

    def test_rank_of(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        path = rank_contraction_paths(kernel)[0][0]

        def runner(nest: LoopNest):
            return LoopNestExecutor(kernel, nest).execute(tensors)

        orders = sample_loop_orders(kernel, path, fraction=0.1, seed=1, max_samples=4)
        result = measure_loop_nests([LoopNest(path, o) for o in orders], runner)
        ranked = result.sorted_entries()
        assert result.rank_of(ranked[0].nest) == 0
        other = LoopNest(path, ranked[-1].nest.order)
        assert result.rank_of(other) == len(ranked) - 1

    def test_empty_result_raises(self):
        with pytest.raises(ValueError):
            _ = SweepResult([]).best

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            TimedRunner(lambda nest: None, repeats=0)
        with pytest.raises(ValueError):
            measure_loop_nests([], lambda nest: None, repeats=0)
