"""Unit tests for loop orders, peeling, fused forests and buffer inference."""

import pytest

from repro.core.contraction_path import rank_contraction_paths
from repro.core.loop_nest import (
    LoopNest,
    LoopOrder,
    LoopVertex,
    TermLeaf,
    build_fused_forest,
    common_ancestor_loops,
    default_loop_order,
    intermediate_buffers,
    max_buffer_dimension,
    max_buffer_size,
    validate_loop_order,
)


def ttmc_path(kernel):
    """The sparse-first TTMc contraction path (T*V first, then U)."""
    ranked = rank_contraction_paths(kernel)
    return ranked[0][0]


def walk(nodes, depth=1):
    """``(depth, node)`` for every vertex and leaf of a fused forest."""
    for node in nodes:
        yield depth, node
        if isinstance(node, LoopVertex):
            yield from walk(node.children, depth + 1)


class TestLoopOrderValidation:
    def test_default_order_is_valid(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        order = default_loop_order(kernel, path)
        validate_loop_order(kernel, path, order)

    def test_wrong_length_rejected(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        with pytest.raises(ValueError, match="terms"):
            validate_loop_order(kernel, path, LoopOrder(((("i", "j"),))))

    def test_non_permutation_rejected(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        order = default_loop_order(kernel, path)
        bad = LoopOrder((order[0][:-1], order[1]))
        with pytest.raises(ValueError, match="permutation"):
            validate_loop_order(kernel, path, bad)

    def test_csf_order_violation_rejected(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        good = default_loop_order(kernel, path)
        # swap two sparse indices in the first term's order
        first = list(good[0])
        si = [p for p, i in enumerate(first) if i in kernel.sparse_indices]
        first[si[0]], first[si[1]] = first[si[1]], first[si[0]]
        bad = LoopOrder((tuple(first),) + tuple(good[t] for t in range(1, len(good))))
        with pytest.raises(ValueError, match="CSF"):
            validate_loop_order(kernel, path, bad)
        # but it is accepted when the restriction is lifted
        validate_loop_order(kernel, path, bad, enforce_csf_order=False)

    def test_loop_order_helpers(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        order = default_loop_order(kernel, path)
        assert order.max_depth() == max(len(o) for o in order)
        assert {i for o in order for i in o} == set(kernel.index_names)


class TestFusedForest:
    def test_listing3_structure(self, ttmc_setup):
        """The Listing-3 TTMc loop order fuses i and j with an S-sized buffer."""
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        # identify index names: first term contracts T with V over k
        first, second = path[0], path[1]
        order = LoopOrder(
            (
                ("i", "j", "k", "s"),
                ("i", "j", "s", "r") if "r" in second.all_indices else ("i", "j", "s"),
            )
        )
        forest = build_fused_forest(path, order)
        assert len(forest.roots) == 1
        root = forest.roots[0]
        assert isinstance(root, LoopVertex) and root.index == "i"
        assert forest.is_fully_fused()
        buffers = intermediate_buffers(path, order)
        assert len(buffers) == 1
        assert buffers[0].indices == ("s",)

    def test_listing4_scalar_buffer(self, ttmc_setup):
        """Fusing i, j and s yields a scalar intermediate (Listing 4)."""
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        order = LoopOrder((("i", "j", "s", "k"), ("i", "j", "s", "r")))
        buffers = intermediate_buffers(path, order)
        assert buffers[0].indices == ()
        assert max_buffer_dimension(path, order) == 0

    def test_unshared_orders_make_separate_roots(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        order = LoopOrder((("i", "j", "k", "s"), ("s", "i", "j", "r")))
        forest = build_fused_forest(path, order)
        assert len(forest.roots) == 2
        # nothing fused: the buffer keeps all of the producer's output indices
        buffers = intermediate_buffers(path, order)
        assert set(buffers[0].indices) == set(path[0].out_indices)

    def test_forest_term_positions_cover_all(self, ttmc4_setup):
        kernel, _ = ttmc4_setup
        path = rank_contraction_paths(kernel)[0][0]
        order = default_loop_order(kernel, path)
        forest = build_fused_forest(path, order)
        positions = [
            n.term_position for _, n in walk(forest.roots) if isinstance(n, TermLeaf)
        ]
        assert sorted(positions) == list(range(len(path)))

    def test_loop_count_and_depth(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        order = LoopOrder((("i", "j", "k", "s"), ("i", "j", "s", "r")))
        loops = [
            depth
            for depth, n in walk(build_fused_forest(path, order).roots)
            if isinstance(n, LoopVertex)
        ]
        assert max(loops) == 4
        # i, j shared; then k, s under term0 and s, r under term1
        assert len(loops) == 6

    def test_is_fully_fused_detects_violation(self):
        # two sibling loops over the same index are not fully fused
        forest_roots = [
            LoopVertex("i", [TermLeaf(0)]),
            LoopVertex("i", [TermLeaf(1)]),
        ]
        from repro.core.loop_nest import FusedForest

        assert not FusedForest(forest_roots).is_fully_fused()


class TestCommonAncestors:
    def test_full_prefix(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        order = LoopOrder((("i", "j", "k", "s"), ("i", "j", "s", "r")))
        assert common_ancestor_loops(order, 0, 1) == ("i", "j")

    def test_no_shared_prefix(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        order = LoopOrder((("i", "j", "k", "s"), ("s", "r", "i", "j")))
        assert common_ancestor_loops(order, 0, 1) == ()

    def test_same_term(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        order = LoopOrder((("i", "j", "k", "s"), ("i", "j", "s", "r")))
        assert common_ancestor_loops(order, 1, 1) == ("i", "j", "s", "r")

    def test_invalid_positions(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        order = default_loop_order(kernel, path)
        with pytest.raises(ValueError):
            common_ancestor_loops(order, 1, 0)


class TestBufferSizes:
    def test_buffer_size_products(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        order = LoopOrder((("i", "j", "k", "s"), ("i", "j", "s", "r")))
        size = max_buffer_size(path, order, kernel.index_dims)
        assert size == kernel.index_dims["s"]

    def test_unfused_buffer_is_large(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        fused = LoopOrder((("i", "j", "k", "s"), ("i", "j", "s", "r")))
        unfused = LoopOrder((("i", "j", "k", "s"), ("s", "i", "j", "r")))
        assert max_buffer_size(path, unfused, kernel.index_dims) > max_buffer_size(
            path, fused, kernel.index_dims
        )

    def test_order4_paper_buffers(self, ttmc4_setup):
        """Figure 6: the order-4 TTMc loop nest has buffers of size T and S*T."""
        kernel, _ = ttmc4_setup
        path = rank_contraction_paths(kernel)[0][0]
        # loop orders of Figure 6: (i j k l t), (i j k s t), (i j r s t)
        i, j, k, l = kernel.csf_mode_order
        dense = sorted(kernel.dense_indices)
        order = LoopOrder(
            (
                tuple(path[0].all_indices),
                tuple(path[1].all_indices),
                tuple(path[2].all_indices),
            )
        )
        # use the actual fully-fused orders from the scheduler-style layout
        buffers = intermediate_buffers(path, order)
        assert len(buffers) == 2

    def test_loop_nest_wrapper(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        order = LoopOrder((("i", "j", "k", "s"), ("i", "j", "s", "r")))
        nest = LoopNest(path, order)
        assert nest.max_buffer_dimension() == 1
        assert nest.max_loop_depth() == 4
        text = nest.describe(kernel)
        assert "for i (sparse)" in text
        assert "for s (dense)" in text

    def test_describe_lists_every_loop_vertex(self, ttmc4_setup):
        kernel, _ = ttmc4_setup
        for path, _ in rank_contraction_paths(kernel)[:4]:
            nest = LoopNest(path, default_loop_order(kernel, path))
            vertices = [
                (depth, n.index)
                for depth, n in walk(nest.forest().roots)
                if isinstance(n, LoopVertex)
            ]
            loops = [
                line for line in nest.describe(kernel).splitlines()
                if line.lstrip().startswith("for ")
            ]
            indents = [(len(line) - len(line.lstrip())) // 2 for line in loops]
            assert indents == [d for d, _ in vertices]
            assert [line.split()[1] for line in loops] == [i for _, i in vertices]

    def test_loop_nest_length_mismatch(self, ttmc_setup):
        kernel, _ = ttmc_setup
        path = ttmc_path(kernel)
        with pytest.raises(ValueError):
            LoopNest(path, LoopOrder((("i", "j", "k", "s"),)))
