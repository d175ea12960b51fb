"""Unit tests for the synthetic generators, .tns I/O and presets."""

import numpy as np
import pytest

from repro.sptensor import (
    dataset_presets,
    load_preset,
    power_law_sparse_tensor,
    random_dense_matrix,
    random_sparse_tensor,
    read_tns,
    write_tns,
)
from repro.sptensor.generate import _unique_rows
from repro.sptensor.io import tns_from_string


class TestGenerators:
    def test_random_sparse_nnz_exact(self):
        t = random_sparse_tensor((20, 20, 20), nnz=150, seed=0)
        assert t.nnz == 150

    def test_random_sparse_density(self):
        t = random_sparse_tensor((10, 10), density=0.25, seed=1)
        assert t.nnz == 25

    def test_random_sparse_requires_exactly_one_of_nnz_density(self):
        with pytest.raises(ValueError):
            random_sparse_tensor((5, 5))
        with pytest.raises(ValueError):
            random_sparse_tensor((5, 5), nnz=3, density=0.5)

    def test_random_sparse_nnz_exceeds_size(self):
        with pytest.raises(ValueError):
            random_sparse_tensor((3, 3), nnz=100)

    def test_random_sparse_reproducible(self):
        a = random_sparse_tensor((15, 15, 15), nnz=80, seed=3)
        b = random_sparse_tensor((15, 15, 15), nnz=80, seed=3)
        assert a.same_pattern(b)
        np.testing.assert_allclose(a.values, b.values)

    def test_value_distributions(self):
        ones = random_sparse_tensor((10, 10), nnz=20, seed=0, value_distribution="ones")
        assert np.all(ones.values == 1.0)
        normal = random_sparse_tensor(
            (10, 10), nnz=20, seed=0, value_distribution="normal"
        )
        assert normal.values.min() < 0  # normal draws include negatives
        with pytest.raises(ValueError):
            random_sparse_tensor((10, 10), nnz=5, value_distribution="bogus")

    def test_uniform_values_never_zero(self):
        t = random_sparse_tensor((30, 30), nnz=200, seed=5)
        assert np.all(np.abs(t.values) > 1e-12)

    def test_power_law_is_skewed(self):
        t = power_law_sparse_tensor((200, 200), nnz=2000, seed=0, exponent=1.5)
        uniform = random_sparse_tensor((200, 200), nnz=2000, seed=0)
        # the most loaded slice of a skewed tensor holds far more nonzeros
        assert t.mode_marginal(0).max() > 2 * uniform.mode_marginal(0).max()

    def test_power_law_exponent_validation(self):
        with pytest.raises(ValueError):
            power_law_sparse_tensor((10, 10), nnz=5, exponent=0.9)

    @pytest.mark.parametrize("rows", [0, 1, 2, 500, 5000])
    @pytest.mark.parametrize("shape", [(7,), (6, 5, 4), (30, 3, 900, 2)])
    def test_unique_rows_equals_numpy_unique_on_drawn_batches(self, rows, shape):
        # small extents force duplicates; the draws match the generators'
        rng = np.random.default_rng(rows + len(shape))
        batch = np.stack([rng.integers(0, s, size=rows) for s in shape], axis=1)
        batch = batch.astype(np.int64)
        got = _unique_rows(batch)
        assert got.dtype == np.int64 and got.shape[1] == len(shape)
        np.testing.assert_array_equal(got, np.unique(batch, axis=0))

    @pytest.mark.parametrize("shape", [(7,), (6, 5, 4), (2**40, 3, 300)])
    def test_merging_into_sorted_rows_equals_unique_rows_of_the_stack(self, shape):
        # rounds of drawn batches, 0- and 1-row ones among them, merged as
        # the generators' dedupe merges them; 2**40 ids span several bytes
        rng = np.random.default_rng(len(shape))
        collected = np.zeros((0, len(shape)), dtype=np.int64)
        for rows in (1, 0, 500, 1, 0, 2, 5000):
            batch = np.stack([rng.integers(0, s, size=rows) for s in shape], axis=1)
            want = _unique_rows(np.vstack([collected, batch.astype(np.int64)]))
            collected = _unique_rows(batch.astype(np.int64), into=collected)
            assert collected.dtype == np.int64
            np.testing.assert_array_equal(collected, want)

    def test_random_dense_matrix(self):
        m = random_dense_matrix(6, 4, seed=0)
        assert type(m) is np.ndarray
        assert m.dtype == np.float64 and m.flags.c_contiguous
        np.testing.assert_array_equal(m, np.random.default_rng(0).random((6, 4)))


class TestTnsIO:
    def test_write_read_roundtrip(self, small_coo, tmp_path):
        path = tmp_path / "t.tns"
        write_tns(small_coo, path)
        back = read_tns(path, shape=small_coo.shape)
        assert back.same_pattern(small_coo)
        np.testing.assert_allclose(back.values, small_coo.values)

    def test_written_lines_are_coordinates_then_value(self, small_coo, tmp_path):
        path = tmp_path / "t.tns"
        write_tns(small_coo, path)
        rows = [line.split() for line in path.read_text().splitlines()]
        assert len(rows) == small_coo.nnz
        for row, coords, value in zip(rows, small_coo.indices, small_coo.values):
            assert [int(c) - 1 for c in row[:-1]] == coords.tolist()
            assert float(row[-1]) == value
        assert rows[0] == ["1", "1", "1", "1.0"]

    def test_gzip_roundtrip(self, small_coo, tmp_path):
        path = tmp_path / "t.tns.gz"
        write_tns(small_coo, path)
        back = read_tns(path, shape=small_coo.shape)
        assert back.same_pattern(small_coo)
        np.testing.assert_allclose(back.values, small_coo.values)

    def test_shape_inferred(self, small_coo, tmp_path):
        path = tmp_path / "t.tns"
        write_tns(small_coo, path)
        back = read_tns(path)
        # inferred shape is the max index + 1 per mode, possibly smaller
        assert back.nnz == small_coo.nnz

    def test_zero_based_roundtrip(self, small_coo, tmp_path):
        path = tmp_path / "t0.tns"
        write_tns(small_coo, path, one_based=False)
        back = read_tns(path, shape=small_coo.shape, one_based=False)
        assert back.same_pattern(small_coo)
        np.testing.assert_allclose(back.values, small_coo.values)

    def test_comments_and_blank_lines(self):
        text = "# comment\n\n1 1 2.5\n2 3 -1.0\n"
        t = tns_from_string(text)
        assert t.nnz == 2
        assert t.shape == (2, 3)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 2 3.0\n1 2\n")
        with pytest.raises(ValueError, match="fields"):
            read_tns(path)

    def test_non_numeric_raises(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 x 3.0\n")
        with pytest.raises(ValueError):
            read_tns(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.tns"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no nonzero"):
            read_tns(path)

    def test_one_based_violation_detected(self, tmp_path):
        path = tmp_path / "zero.tns"
        path.write_text("0 1 2.0\n")
        with pytest.raises(ValueError, match="one_based"):
            read_tns(path)

    def test_wrong_shape_order(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1.0\n")
        with pytest.raises(ValueError, match="order"):
            read_tns(path, shape=(2, 2, 2))


class TestDatasetPresets:
    def test_presets_available(self):
        presets = dataset_presets()
        for name in ("nell-2", "nips", "enron", "vast-3d", "darpa"):
            assert name in presets
            assert presets[name].order >= 3

    def test_load_preset_scaled(self):
        t = load_preset("nell-2", scale=2e-3, max_nnz=2000, seed=0)
        assert t.order == 3
        assert 64 <= t.nnz <= 2000
        for dim, full in zip(t.shape, dataset_presets()["nell-2"].full_shape):
            assert dim <= full

    def test_load_preset_reproducible(self):
        a = load_preset("nips", scale=5e-3, max_nnz=1000, seed=1)
        b = load_preset("nips", scale=5e-3, max_nnz=1000, seed=1)
        assert a.same_pattern(b)

    def test_load_preset_unknown(self):
        with pytest.raises(KeyError):
            load_preset("not-a-dataset")

    def test_load_preset_bad_scale(self):
        with pytest.raises(ValueError):
            load_preset("nips", scale=2.0)

    def test_load_preset_from_tns(self, small_coo, tmp_path):
        path = tmp_path / "real.tns"
        write_tns(small_coo, path)
        t = load_preset("nell-2", tns_path=str(path))
        assert t.nnz == small_coo.nnz
