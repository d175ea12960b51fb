"""Unit tests for the CSF (compressed sparse fiber) format."""

import numpy as np
import pytest

from repro.sptensor import COOTensor, CSFTensor


class TestConstruction:
    def test_roundtrip_coo_csf_coo(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        back = csf.to_coo()
        assert back.same_pattern(random_coo3)
        np.testing.assert_allclose(back.values, random_coo3.values)

    def test_roundtrip_with_mode_order(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3, mode_order=(2, 0, 1))
        back = csf.to_coo()
        assert back.same_pattern(random_coo3)
        np.testing.assert_allclose(back.values, random_coo3.values)

    def test_roundtrip_dense(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        np.testing.assert_allclose(csf.to_dense(), random_coo3.to_dense())

    def test_from_dense(self, rng):
        dense = rng.random((6, 5, 4))
        dense[dense < 0.6] = 0.0
        csf = CSFTensor.from_dense(dense)
        np.testing.assert_allclose(csf.to_dense(), dense)

    def test_empty_tensor(self):
        csf = CSFTensor.from_coo(COOTensor.empty((4, 5, 6)))
        assert csf.nnz == 0
        assert csf.nnz_at_level(0) == 0

    def test_invalid_mode_order(self, random_coo3):
        with pytest.raises(ValueError):
            CSFTensor.from_coo(random_coo3, mode_order=(0, 0, 1))

    def test_order4(self, random_coo4):
        csf = CSFTensor.from_coo(random_coo4)
        assert csf.order == 4
        back = csf.to_coo()
        assert back.same_pattern(random_coo4)


class TestLevelStructure:
    def test_level_sizes_match_prefix_nnz(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        for level in range(csf.order):
            assert csf.nnz_at_level(level) == random_coo3.nnz_prefix(level + 1)

    def test_leaf_level_is_nnz(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        assert csf.nnz_at_level(csf.order - 1) == random_coo3.nnz

    def test_level_sizes_nondecreasing(self, random_coo4):
        csf = CSFTensor.from_coo(random_coo4)
        sizes = [csf.nnz_at_level(k) for k in range(csf.order)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_nnz_at_level_bounds(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        with pytest.raises(ValueError):
            csf.nnz_at_level(-1)
        with pytest.raises(ValueError):
            csf.nnz_at_level(csf.order)

    def test_fptr_partitions_children(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        for level in range(csf.order - 1):
            ptr = csf.fptr[level]
            assert ptr[0] == 0
            assert ptr[-1] == csf.nnz_at_level(level + 1)
            assert np.all(np.diff(ptr) >= 1)  # every node has at least one child

    @pytest.mark.parametrize("mode_order", [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    def test_fptr_on_the_benchmark_pattern(self, mode_order, benchmark_tensor):
        # the cp_als / hooi workloads' 60k-nnz nell-2-like pattern, each mode
        # at the root once: a parent's child count is the number of distinct
        # (k + 2)-prefixes that extend its (k + 1)-prefix
        assert benchmark_tensor.nnz == 60_000
        csf = CSFTensor.from_coo(benchmark_tensor, mode_order)
        columns = benchmark_tensor.indices[:, list(mode_order)]
        for level in range(csf.order - 1):
            children = np.unique(columns[:, : level + 2], axis=0)
            _, counts = np.unique(children[:, : level + 1], axis=0, return_counts=True)
            expected = np.concatenate([[0], np.cumsum(counts)])
            assert csf.fptr[level].dtype == np.int64
            np.testing.assert_array_equal(csf.fptr[level], expected)

    def test_children_are_sorted(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        for level in range(csf.order - 1):
            for pos in range(csf.nnz_at_level(level)):
                children = csf.child_indices(level, pos)
                assert np.all(np.diff(children) > 0)

    def test_roots_sorted_unique(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        roots = csf.roots()
        assert np.all(np.diff(roots) > 0)

    def test_children_range_errors(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        with pytest.raises(ValueError):
            csf.children_range(csf.order - 1, 0)
        with pytest.raises(ValueError):
            csf.children_range(0, csf.nnz_at_level(0) + 5)


class TestNavigation:
    def test_subtree_leaf_range_covers_all(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        total = 0
        for pos in range(csf.nnz_at_level(0)):
            lo, hi = csf.subtree_leaf_range(0, pos)
            total += hi - lo
        assert total == csf.nnz

    def test_subtree_leaf_values_match_marginal(self, small_coo):
        csf = CSFTensor.from_coo(small_coo)
        dense = small_coo.to_dense()
        for pos in range(csf.nnz_at_level(0)):
            root_index = int(csf.roots()[pos])
            lo, hi = csf.subtree_leaf_range(0, pos)
            assert np.isclose(
                csf.values[lo:hi].sum(), dense[root_index].sum()
            )

    def test_expanded_level_indices_lengths(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        for level in range(csf.order):
            assert csf.expanded_level_indices(level).shape[0] == csf.nnz

    def test_expanded_level_indices_reconstruct_coords(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        coords = np.stack(
            [csf.expanded_level_indices(level) for level in range(csf.order)], axis=1
        )
        # coords are in CSF level order == natural mode order here
        coo = COOTensor(csf.shape, coords, csf.values)
        assert coo.same_pattern(random_coo3)

    def test_leaf_parent_positions(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        parents = csf.leaf_parent_positions()
        assert parents.shape[0] == csf.nnz
        assert parents.max() == csf.nnz_at_level(csf.order - 2) - 1

    def test_iter_nodes_count(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3)
        for level in range(csf.order):
            assert len(list(csf.iter_nodes(level))) == csf.nnz_at_level(level)
