"""Unit tests for the tree-separable cost functions.

The key invariant checked here is that the recursive (peeling-based)
evaluation of each cost agrees with the direct, ground-truth computation of
the quantity it models (buffer dimension/size from Equation 5), and that the
cache-miss and execution models behave monotonically in the ways the paper
relies on.
"""

from collections import Counter

import pytest

from repro.core.contraction_path import enumerate_contraction_paths, rank_contraction_paths
from repro.core.cost_model import (
    CONSTRAINT_PENALTY,
    CacheMissCost,
    ExecutionCost,
    MaxBufferDimCost,
    MaxBufferSizeCost,
    OperationCountCost,
    evaluate_cost,
)
from repro.core.enumeration import enumerate_loop_orders, enumerate_loop_orders_for_term
from repro.core.loop_nest import LoopOrder, max_buffer_dimension, max_buffer_size

from conftest import ALL_KERNEL_FIXTURES


def best_path(kernel):
    return rank_contraction_paths(kernel)[0][0]


class TestMaxBufferDim:
    def test_matches_ground_truth_for_all_orders(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = best_path(kernel)
        cost = MaxBufferDimCost(kernel)
        for order in enumerate_loop_orders(kernel, path):
            assert evaluate_cost(kernel, path, order, cost) == max_buffer_dimension(
                path, order
            )

    def test_matches_ground_truth_order4(self, ttmc4_setup):
        kernel, _ = ttmc4_setup
        path = best_path(kernel)
        cost = MaxBufferDimCost(kernel)
        for order in enumerate_loop_orders(kernel, path, limit=200):
            assert evaluate_cost(kernel, path, order, cost) == max_buffer_dimension(
                path, order
            )

    def test_listing3_vs_listing4(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = best_path(kernel)
        cost = MaxBufferDimCost(kernel)
        listing3 = LoopOrder((("i", "j", "k", "s"), ("i", "j", "s", "r")))
        listing4 = LoopOrder((("i", "j", "s", "k"), ("i", "j", "s", "r")))
        assert evaluate_cost(kernel, path, listing3, cost) == 1
        assert evaluate_cost(kernel, path, listing4, cost) == 0


class TestMaxBufferSize:
    def test_matches_ground_truth(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = best_path(kernel)
        cost = MaxBufferSizeCost(kernel)
        for order in enumerate_loop_orders(kernel, path):
            truth = max_buffer_size(path, order, kernel.index_dims)
            got = evaluate_cost(kernel, path, order, cost)
            # the recursive form counts exhausted-term scalar buffers as 1
            assert got == max(truth, 1 if len(path) > 1 else 0)

    def test_size_at_least_dim_consistent(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = best_path(kernel)
        dim_cost = MaxBufferDimCost(kernel)
        size_cost = MaxBufferSizeCost(kernel)
        for order in enumerate_loop_orders(kernel, path, limit=50):
            d = evaluate_cost(kernel, path, order, dim_cost)
            s = evaluate_cost(kernel, path, order, size_cost)
            if d == 0:
                assert s <= 1
            else:
                assert s >= 2 ** 0  # any kept index has dimension >= 1


class TestCacheMissCost:
    def test_positive_and_finite(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = best_path(kernel)
        cost = CacheMissCost(kernel, cache_dims=1)
        for order in enumerate_loop_orders(kernel, path, limit=20):
            value = evaluate_cost(kernel, path, order, cost)
            assert 0 <= value < float("inf")

    def test_larger_cache_never_increases_misses(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = best_path(kernel)
        small = CacheMissCost(kernel, cache_dims=1)
        large = CacheMissCost(kernel, cache_dims=2)
        for order in enumerate_loop_orders(kernel, path, limit=20):
            assert evaluate_cost(kernel, path, order, large) <= evaluate_cost(
                kernel, path, order, small
            )

    def test_invalid_cache_dims(self, ttmc_setup):
        kernel, _ = ttmc_setup
        with pytest.raises(ValueError):
            CacheMissCost(kernel, cache_dims=-1)


class TestOperationCount:
    def test_fusion_does_not_change_op_count(self, ttmc_setup):
        """All fully-fused loop nests of one path perform the same operations."""
        kernel, _ = ttmc_setup
        path = best_path(kernel)
        cost = OperationCountCost(kernel)
        kept = [
            order
            for order in enumerate_loop_orders(kernel, path, limit=50)
            # only orders that keep the sparse loops sparse (descent available)
            if all(
                [i for i in o if i in kernel.sparse_indices]
                == [i for i in kernel.csf_mode_order if i in set(o)]
                for o in order
            )
        ]
        values = {round(evaluate_cost(kernel, path, order, cost), 6) for order in kept}
        # op count may differ when a sparse index is iterated densely, but the
        # CSF-consistent orders that keep descent available all agree
        assert kept
        assert len(values) == 1


class TestExecutionCost:
    def test_penalty_applied_beyond_bound(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = best_path(kernel)
        bounded = ExecutionCost(kernel, buffer_dim_bound=0)
        listing3 = LoopOrder((("i", "j", "k", "s"), ("i", "j", "s", "r")))
        listing4 = LoopOrder((("i", "j", "s", "k"), ("i", "j", "s", "r")))
        assert evaluate_cost(kernel, path, listing3, bounded) >= CONSTRAINT_PENALTY
        assert evaluate_cost(kernel, path, listing4, bounded) < CONSTRAINT_PENALTY

    def test_no_penalty_when_unbounded(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = best_path(kernel)
        unbounded = ExecutionCost(kernel, buffer_dim_bound=None)
        listing3 = LoopOrder((("i", "j", "k", "s"), ("i", "j", "s", "r")))
        assert evaluate_cost(kernel, path, listing3, unbounded) < CONSTRAINT_PENALTY

    def test_offloadable_orders_cheaper(self, ttmc_setup):
        """Loop nests ending in dense (BLAS-able) loops cost less than
        sparse-innermost nests under the execution model."""
        kernel, _ = ttmc_setup
        path = best_path(kernel)
        cost = ExecutionCost(kernel, buffer_dim_bound=None)
        blasable = LoopOrder((("i", "j", "k", "s"), ("i", "j", "s", "r")))
        scalarish = LoopOrder((("i", "j", "s", "k"), ("i", "j", "s", "r")))
        assert evaluate_cost(kernel, path, blasable, cost) < evaluate_cost(
            kernel, path, scalarish, cost
        )

    def test_iteration_count_sparse_vs_dense(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = best_path(kernel)
        cost = ExecutionCost(kernel)
        # with no preceding sparse loop iterated, a sparse index runs densely
        dense_trips = cost.iteration_count("j", (0,), frozenset(), path)
        assert dense_trips == kernel.index_dims["j"]
        # after iterating i, the j loop only visits stored fibers
        sparse_trips = cost.iteration_count("j", (0,), frozenset({"i"}), path)
        assert sparse_trips <= dense_trips


def _scanned_offload_mode(kernel, term, order, depth):
    """The executor's offload rule as it read before
    ``SpTTNKernel.offload_mode``: scan the term's remaining loops for the
    ones that descend the CSF (the oracle the predicate must equal)."""
    remaining = order[depth:]
    descending = [
        idx
        for at, idx in enumerate(remaining)
        if kernel.csf_descends(idx, order[: depth + at])
    ]
    if not descending:
        return "dense"
    k = remaining[0]
    if descending != [k] or k != kernel.csf_mode_order[-1]:
        return None
    if k in term.out_indices and not (
        term.out == kernel.output.name and kernel.output.is_sparse
    ):
        return None
    return "fiber"


def _offload_sites(kernel):
    """Every single-term site ``(term, bound order, root)`` of every path's
    CSF-consistent term orders."""
    for path in enumerate_contraction_paths(kernel):
        for term in path:
            for order in enumerate_loop_orders_for_term(kernel, term, True):
                for depth in range(len(order)):
                    yield term, order, depth


class TestOffloadRule:
    @pytest.mark.parametrize("fixture_name", ALL_KERNEL_FIXTURES)
    def test_predicate_equals_the_order_scan(self, fixture_name, request):
        kernel, _ = request.getfixturevalue(fixture_name)
        for term, order, depth in _offload_sites(kernel):
            want = _scanned_offload_mode(kernel, term, order, depth)
            assert kernel.offload_mode(term, order[:depth], order[depth]) == want

    @pytest.mark.parametrize(
        "fixture_name, departures",
        [
            ("mttkrp_setup", (2, 6, 3)),
            ("ttmc_setup", (2, 12, 16)),
            ("ttmc4_setup", (12, 212, 472)),
            ("tttp_setup", (30, 12, 15)),
            ("allmode_setup", (24, 140, 316)),
        ],
    )
    def test_model_departs_from_the_executor_in_three_counted_cases(
        self, fixture_name, departures, request
    ):
        """``ExecutionCost.offloadable`` and the executor's predicate differ
        on exactly these many distinct (term, bound set, root) sites, each
        in one of the three cases its docstring names: (kept fiber,
        sparse indices none of which descends, root not first)."""
        kernel, _ = request.getfixturevalue(fixture_name)
        cost = ExecutionCost(kernel)
        sites = {
            (term, frozenset(order[:depth]), order[depth])
            for term, order, depth in _offload_sites(kernel)
        }
        cases = Counter()
        for term, bound, root in sites:
            mode = kernel.offload_mode(term, bound, root)
            model = cost.offloadable((term,), (0,), root, bound)
            if model == (mode is not None):
                continue
            remaining = cost.remaining_indices(term.all_indices, bound)
            if not model and remaining[0] != root:
                cases["root not first"] += 1
            elif model and root in term.out_indices:
                cases["kept fiber"] += 1
            elif not model and mode == "dense":
                cases["none descends"] += 1
            else:
                cases["other"] += 1
        assert (
            cases["kept fiber"], cases["none descends"], cases["root not first"]
        ) == departures
        assert cases["other"] == 0
