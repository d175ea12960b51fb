"""Unit tests for contraction paths and their enumeration."""

import numpy as np
import pytest

from repro.core.contraction_path import (
    enumerate_contraction_paths,
    path_flop_estimate,
    path_intermediate_size_estimate,
    rank_contraction_paths,
    single_term_path,
    term_flop_estimate,
)
from repro.core.expr import parse_kernel


def _operand_names(kernel):
    return {op.name for op in kernel.operands}


class TestEnumeration:
    def test_two_dense_operands_paths(self, ttmc_setup):
        kernel, _ = ttmc_setup
        paths = enumerate_contraction_paths(kernel)
        # 3 input tensors -> 3 unordered pairings for the first contraction
        assert len(paths) == 3
        for path in paths:
            assert len(path) == 2

    def test_three_dense_operands_paths(self, ttmc4_setup):
        kernel, _ = ttmc4_setup
        paths = enumerate_contraction_paths(kernel)
        assert len(paths) > 3
        # T(n) = C(n, 2) T(n - 1), T(2) = 1: 18 trees before de-duplication
        assert len(paths) <= 18

    def test_every_path_ends_at_output(self, ttmc_setup):
        kernel, _ = ttmc_setup
        for path in enumerate_contraction_paths(kernel):
            assert path[-1].out == kernel.output.name
            assert set(path[-1].out_indices) == set(kernel.output.indices)

    def test_every_input_used_exactly_once(self, ttmc4_setup):
        kernel, _ = ttmc4_setup
        names = _operand_names(kernel)
        for path in enumerate_contraction_paths(kernel):
            used = [t.lhs for t in path] + [t.rhs for t in path]
            for name in names:
                assert used.count(name) == 1

    def test_intermediates_consumed_exactly_once(self, ttmc4_setup):
        kernel, _ = ttmc4_setup
        for path in enumerate_contraction_paths(kernel):
            consumers = path.consumers()
            assert len(consumers) == len(path) - 1
            for producer, consumer in consumers.items():
                assert consumer > producer

    def test_intermediate_indices_only_keep_needed(self, ttmc_setup):
        kernel, _ = ttmc_setup
        for path in enumerate_contraction_paths(kernel):
            for term in path.terms[:-1]:
                for idx in term.out_indices:
                    # every kept index is needed by the output or another term
                    needed = set(kernel.output.indices)
                    assert idx in needed or any(
                        idx in t.lhs_indices or idx in t.rhs_indices
                        for t in path.terms
                        if t is not term
                    )

    def test_max_paths_cap(self, ttmc4_setup):
        kernel, _ = ttmc4_setup
        paths = enumerate_contraction_paths(kernel, max_paths=2)
        assert len(paths) == 2

    def test_dedupe_reduces_count(self, ttmc4_setup):
        kernel, _ = ttmc4_setup
        deduped = enumerate_contraction_paths(kernel, dedupe=True)
        raw = enumerate_contraction_paths(kernel, dedupe=False)
        assert len(deduped) <= len(raw)

    @pytest.mark.parametrize(
        "spec, trees",
        [
            ("ijkl,jr->irkl", 1),
            ("ijkl,jr,ks->irsl", 3),
            ("ijkl,jr,ks,lt->irst", 18),
            ("ijkl,ia,jr,ks,lt->arst", 180),
        ],
    )
    def test_count_formula(self, random_coo4, spec, trees):
        """Raw pairing enumerates T(n) = C(n, 2) T(n - 1) trees, T(2) = 1."""
        dims = dict(zip("ijkl", random_coo4.shape))
        dense = [
            np.ones(tuple(dims.get(c, 2) for c in operand))
            for operand in spec.split("->")[0].split(",")[1:]
        ]
        kernel = parse_kernel(spec, [random_coo4, *dense])
        assert len(enumerate_contraction_paths(kernel, dedupe=False)) == trees

    def test_count_requires_two(self, random_coo4):
        with pytest.raises(ValueError, match="at least two operands"):
            parse_kernel("ijkl->ij", [random_coo4])


class TestTermProperties:
    def test_all_indices_union(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = enumerate_contraction_paths(kernel)[0]
        for term in path:
            assert set(term.all_indices) == (
                set(term.lhs_indices) | set(term.rhs_indices) | set(term.out_indices)
            )

    def test_contracted_indices(self, ttmc4_setup):
        """Each index the output drops is summed away by exactly one term,
        and no later term reads it again."""
        kernel, _ = ttmc4_setup
        for path in enumerate_contraction_paths(kernel):
            summed = []
            for pos, term in enumerate(path):
                dropped = (
                    set(term.lhs_indices) | set(term.rhs_indices)
                ) - set(term.out_indices)
                for later in path.terms[pos + 1:]:
                    assert not dropped & set(later.all_indices)
                summed.extend(dropped)
            assert sorted(summed) == sorted(kernel.contracted_indices)

    def test_max_loop_depth(self, ttmc_setup):
        kernel, _ = ttmc_setup
        paths = enumerate_contraction_paths(kernel)
        depths = {p.max_loop_depth() for p in paths}
        # T-first paths have depth 4; the dense-first path (Figure 1d) has 5
        assert 4 in depths and 5 in depths


class TestCostEstimates:
    def test_term_flops_use_nnz_statistics(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        paths = enumerate_contraction_paths(kernel)
        t_first = next(
            p for p in paths if "T" in (p[0].lhs, p[0].rhs)
        )
        first = t_first[0]
        expected_sparse = kernel.sparse_subset_nnz(
            [i for i in first.all_indices if i in kernel.sparse_indices]
        )
        dense = 1.0
        for i in first.all_indices:
            if i not in kernel.sparse_indices:
                dense *= kernel.index_dims[i]
        assert term_flop_estimate(kernel, first) == pytest.approx(
            2.0 * expected_sparse * dense
        )

    def test_ranking_prefers_sparse_first_for_ttmc(self, ttmc_setup):
        kernel, _ = ttmc_setup
        ranked = rank_contraction_paths(kernel)
        best_path = ranked[0][0]
        # the best TTMc path contracts the sparse tensor first (Figure 1a-c),
        # not the dense-dense pair (Figure 1d)
        assert "T" in (best_path[0].lhs, best_path[0].rhs)
        assert ranked[0][1] <= ranked[-1][1]

    def test_path_flops_sum_of_terms(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = enumerate_contraction_paths(kernel)[0]
        assert path_flop_estimate(kernel, path) == pytest.approx(
            sum(term_flop_estimate(kernel, t) for t in path)
        )

    def test_intermediate_size_estimate_positive(self, ttmc_setup):
        kernel, _ = ttmc_setup
        for path in enumerate_contraction_paths(kernel):
            assert path_intermediate_size_estimate(kernel, path) > 0


class TestSingleTermPath:
    def test_single_term_path_structure(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = single_term_path(kernel)
        assert len(path) == len(kernel.operands) - 1
        assert path[0].lhs == kernel.sparse_operand.name
        assert path[-1].out == kernel.output.name

    def test_single_term_path_order4(self, ttmc4_setup):
        kernel, _ = ttmc4_setup
        path = single_term_path(kernel)
        used = [t.lhs for t in path] + [t.rhs for t in path]
        for op in kernel.operands:
            assert used.count(op.name) == 1
