"""Unit tests for the COO sparse tensor."""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.sptensor import COOTensor
from repro.sptensor.coo import digest_stats


class TestConstruction:
    def test_basic_properties(self, small_coo):
        assert small_coo.shape == (4, 3, 3)
        assert small_coo.order == 3
        assert small_coo.nnz == 7
        assert 0 < small_coo.density < 1

    def test_sorted_lexicographically(self, small_coo):
        idx = small_coo.indices
        flat = np.ravel_multi_index(idx.T, small_coo.shape)
        assert np.all(np.diff(flat) > 0)

    def test_duplicates_are_summed(self):
        t = COOTensor((3, 3), [(0, 0), (0, 0), (1, 1)], [1.0, 2.0, 5.0])
        assert t.nnz == 2
        assert t.to_dense()[0, 0] == pytest.approx(3.0)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            COOTensor((2, 2), [(0, 0), (2, 1)], [1.0, 1.0])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            COOTensor((2, 2), [(0, -1)], [1.0])

    def test_value_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="values"):
            COOTensor((2, 2), [(0, 0), (1, 1)], [1.0])

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            COOTensor((), [], [])

    def test_empty_tensor(self):
        t = COOTensor.empty((4, 5))
        assert t.nnz == 0
        assert t.to_dense().sum() == 0.0
        assert t.density == 0.0

    def test_explicit_zero_values_are_kept(self):
        t = COOTensor((3, 3), [(0, 1), (1, 2)], [0.0, 2.0])
        assert t.nnz == 2

    def test_from_dense_roundtrip(self, rng):
        dense = rng.random((5, 4, 3))
        dense[dense < 0.7] = 0.0
        t = COOTensor.from_dense(dense)
        np.testing.assert_allclose(t.to_dense(), dense)

    def test_from_dense_rejects_scalar(self):
        with pytest.raises(ValueError):
            COOTensor.from_dense(np.float64(3.0))


class TestDedupe:
    """``_dedupe`` skips the ``np.unique`` sort on strictly increasing input."""

    SHAPE = (4, 5, 6)
    ROWS = [(0, 1, 2), (0, 4, 0), (1, 0, 5), (3, 2, 2), (3, 4, 5)]
    VALUES = [1.5, -2.0, 0.25, 4.0, 8.0]

    @staticmethod
    def _sorting_dedupe(indices, values, shape):
        """The constructor's dedupe as it was before the fast path."""
        flat = np.ravel_multi_index(indices.T, shape)
        uniq, inverse = np.unique(flat, return_inverse=True)
        if uniq.shape[0] == indices.shape[0]:
            return indices, values
        summed = np.zeros(uniq.shape[0])
        np.add.at(summed, inverse, values)
        return np.stack(np.unravel_index(uniq, shape), axis=1).astype(np.int64), summed

    def _check(self, rows, values, monkeypatch, expect_sort):
        from repro.sptensor import coo as coo_module

        indices = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        want_idx, want_vals = self._sorting_dedupe(indices, values, self.SHAPE)
        calls = []
        real_unique = np.unique
        monkeypatch.setattr(
            coo_module.np, "unique",
            lambda *a, **k: calls.append(1) or real_unique(*a, **k),
        )
        tensor = COOTensor(self.SHAPE, indices, values, sort=False)
        monkeypatch.undo()
        assert bool(calls) == expect_sort
        assert tensor.indices.tobytes() == want_idx.tobytes()
        assert tensor.values.tobytes() == want_vals.tobytes()
        return tensor

    def test_canonical_input_untouched_without_sorting(self, monkeypatch):
        tensor = self._check(self.ROWS, self.VALUES, monkeypatch, expect_sort=False)
        assert tensor.nnz == len(self.ROWS)

    def test_unsorted_unique_input_keeps_its_order(self, monkeypatch):
        order = [3, 0, 4, 1, 2]
        rows = [self.ROWS[i] for i in order]
        values = [self.VALUES[i] for i in order]
        tensor = self._check(rows, values, monkeypatch, expect_sort=True)
        assert [tuple(r) for r in tensor.indices] == rows

    def test_duplicates_are_summed_on_the_sorting_path(self, monkeypatch):
        rows = self.ROWS + [self.ROWS[1], self.ROWS[1]]
        values = self.VALUES + [10.0, 20.0]
        tensor = self._check(rows, values, monkeypatch, expect_sort=True)
        assert tensor.nnz == len(self.ROWS)
        assert tensor.to_dense()[self.ROWS[1]] == pytest.approx(28.0)

    def test_adjacent_duplicate_is_not_mistaken_for_sorted(self, monkeypatch):
        rows = [self.ROWS[0], self.ROWS[1], self.ROWS[1], self.ROWS[2]]
        tensor = self._check(rows, [1.0, 2.0, 3.0, 4.0], monkeypatch, expect_sort=True)
        assert tensor.nnz == 3


class TestHugeShape:
    """Shapes whose dense size exceeds int64 (the ``amazon`` preset's)."""

    HUGE = (4821207, 1774269, 1805187)
    SMALL = TestDedupe.SHAPE
    #: order-preserving per-mode stretch of the small rows into the huge shape
    STRETCH = np.array([1_000_000, 350_000, 300_000], dtype=np.int64)

    def _both(self, rows, values, sort):
        small = COOTensor(self.SMALL, rows, values, sort=sort)
        huge = COOTensor(self.HUGE, np.asarray(rows) * self.STRETCH, values, sort=sort)
        assert huge.indices.dtype == np.int64
        assert huge.indices.tobytes() == (small.indices * self.STRETCH).tobytes()
        assert huge.values.tobytes() == small.values.tobytes()
        return huge

    @pytest.mark.parametrize("sort", [False, True])
    def test_canonical_input(self, sort):
        huge = self._both(TestDedupe.ROWS, TestDedupe.VALUES, sort)
        assert huge.nnz == len(TestDedupe.ROWS)

    @pytest.mark.parametrize("sort", [False, True])
    def test_unsorted_input(self, sort):
        order = [3, 0, 4, 1, 2]
        rows = [TestDedupe.ROWS[i] for i in order]
        self._both(rows, [TestDedupe.VALUES[i] for i in order], sort)

    @pytest.mark.parametrize("sort", [False, True])
    def test_duplicated_input(self, sort):
        rows = TestDedupe.ROWS + [TestDedupe.ROWS[1], TestDedupe.ROWS[4], TestDedupe.ROWS[1]]
        values = TestDedupe.VALUES + [10.0, 0.5, 20.0]
        huge = self._both(rows, values, sort)
        assert huge.nnz == len(TestDedupe.ROWS)

    def test_adjacent_duplicate_is_not_mistaken_for_sorted(self):
        rows = [TestDedupe.ROWS[0], TestDedupe.ROWS[1], TestDedupe.ROWS[1]]
        assert self._both(rows, [1.0, 2.0, 3.0], sort=False).nnz == 2

    def test_a_two_entry_tensor_constructs_and_hashes(self):
        tensor = COOTensor(self.HUGE, [[0, 0, 0], [1, 2, 3]], [1.0, 2.0], sort=False)
        assert tensor.nnz == 2 and len(tensor.pattern_digest()) == 16


def _frame_tensor(frame, shape, offset=0, rows=None):
    """A tensor whose indices view *frame* (a bytes-like) from byte *offset*."""
    order = len(shape)
    raw = memoryview(frame)[offset:]
    n = raw.nbytes // (8 * order) if rows is None else rows
    indices = np.frombuffer(raw, dtype=np.int64, count=n * order).reshape(n, order)
    return COOTensor(shape, indices, np.ones(n), sort=False)


def _fresh_digest(tensor):
    """The pattern digest recomputed here: sha256 of header and rows, 16 bytes."""
    idx = np.ascontiguousarray(tensor.indices)
    header = f"{tensor.shape}{idx.dtype.str}".encode("ascii")
    return hashlib.sha256(header + idx.tobytes()).digest()[:16]


def _delta(before):
    return digest_stats()["digests"] - before["digests"]


class TestFrameDigests:
    """Tensors viewing wire frames: each hashes its own pattern, once."""

    SHAPE = (6, 5, 4)
    ROWS = np.array([[0, 1, 2], [1, 0, 3], [2, 4, 0], [5, 4, 3]], dtype=np.int64)

    def test_a_frame_differing_in_one_byte_gets_its_own_digest_and_structure(self):
        from repro.sptensor.csf import csf_for_mode_order, default_structure_memo

        frame = self.ROWS.tobytes()
        changed = bytearray(frame)
        changed[8 * 11] = 2  # last row (5, 4, 3) -> (5, 4, 2)
        first, second = _frame_tensor(frame, self.SHAPE), _frame_tensor(bytes(changed), self.SHAPE)
        before, builds = digest_stats(), default_structure_memo().stats()["misses"]
        for tensor in (first, second):
            view = csf_for_mode_order(tensor, (0, 1, 2))
            np.testing.assert_array_equal(view.to_coo().indices, tensor.indices)
        assert first.pattern_digest() != second.pattern_digest()
        assert _delta(before) == 2
        assert default_structure_memo().stats()["misses"] == builds + 2

    def test_same_bytes_under_another_shape_get_another_digest(self):
        frame = self.ROWS.tobytes()
        first = _frame_tensor(frame, self.SHAPE)
        larger = _frame_tensor(frame, (7, 5, 4))
        before = digest_stats()
        assert first.pattern_digest() != larger.pattern_digest()
        assert _delta(before) == 2
        assert larger.pattern_digest() == _fresh_digest(larger)

    def test_equal_length_ranges_of_one_frame_are_hashed_apart(self):
        frame = self.ROWS.tobytes()
        head = _frame_tensor(frame, self.SHAPE, rows=2)
        tail = _frame_tensor(frame, self.SHAPE, offset=48, rows=2)
        before = digest_stats()
        assert head.pattern_digest() != tail.pattern_digest()
        assert _delta(before) == 2
        assert tail.pattern_digest() == _fresh_digest(tail)

    def test_threads_racing_on_one_frame_lose_no_count(self):
        frame = self.ROWS.tobytes()
        barrier = threading.Barrier(4)
        tensors, errors = [], []

        def digest_many():
            try:
                barrier.wait(timeout=30)
                for _ in range(200):
                    tensor = _frame_tensor(frame, self.SHAPE)
                    tensor.pattern_digest()
                    tensors.append(tensor)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        before = digest_stats()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=digest_many) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert {t.pattern_digest() for t in tensors} == {_fresh_digest(tensors[0])}
        assert _delta(before) == 800


class TestPatternDigest:
    def test_equal_patterns_share_a_digest_whatever_the_values(self, small_coo):
        twin = COOTensor(small_coo.shape, small_coo.indices, np.ones(small_coo.nnz))
        assert twin.pattern_digest() == small_coo.pattern_digest()
        assert len(small_coo.pattern_digest()) == 16

    def test_digest_separates_coordinates_and_shapes(self, small_coo):
        moved = small_coo.indices.copy()
        moved[0, 2] += 1
        other = COOTensor(small_coo.shape, moved, small_coo.values)
        assert other.pattern_digest() != small_coo.pattern_digest()
        larger = COOTensor((9, 9, 9), small_coo.indices, small_coo.values)
        assert larger.pattern_digest() != small_coo.pattern_digest()

    def test_digest_is_sha256_of_shape_dtype_header_and_rows_truncated(self):
        rows = np.array([[0, 1, 2], [1, 0, 3], [5, 4, 3]], dtype=np.int64)
        tensor = COOTensor((6, 5, 4), rows, [1.0, 2.0, 3.0])
        want = hashlib.sha256(b"(6, 5, 4)<i8" + rows.tobytes()).digest()[:16]
        assert tensor.pattern_digest() == want
        assert want.hex() == "eeffc7b4b38546effe8d085a98a0711c"

    def test_with_values_inherits_a_computed_digest(self, small_coo):
        digest = small_coo.pattern_digest()
        assert small_coo.with_values(np.zeros(small_coo.nnz))._pattern is digest


class TestConversionsAndViews:
    def test_to_dense_shape(self, small_coo):
        assert small_coo.to_dense().shape == small_coo.shape

    def test_with_values_is_independent(self, small_coo):
        c = small_coo.with_values(small_coo.values)
        c.values[:] = 0.0
        c.indices[:] = 0
        assert small_coo.values.sum() != 0.0
        assert small_coo.indices.any()

    def test_with_values_preserves_pattern(self, small_coo):
        new = small_coo.with_values(np.arange(small_coo.nnz, dtype=float))
        assert new.same_pattern(small_coo)
        assert not np.array_equal(new.values, small_coo.values)

    def test_with_values_wrong_length(self, small_coo):
        with pytest.raises(ValueError):
            small_coo.with_values(np.zeros(small_coo.nnz + 1))


class TestReductions:
    def test_nnz_prefix_monotone(self, random_coo3):
        counts = [random_coo3.nnz_prefix(d) for d in range(random_coo3.order + 1)]
        assert counts[0] == 1
        assert counts[-1] == random_coo3.nnz
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_nnz_prefix_bounds(self, random_coo3):
        with pytest.raises(ValueError):
            random_coo3.nnz_prefix(-1)
        with pytest.raises(ValueError):
            random_coo3.nnz_prefix(random_coo3.order + 1)

    def test_nnz_prefix_matches_unique_count(self, small_coo):
        expected = len({tuple(r[:2]) for r in small_coo.indices})
        assert small_coo.nnz_prefix(2) == expected

    def test_mode_marginal_sums_to_nnz(self, random_coo3):
        for mode in range(random_coo3.order):
            assert random_coo3.mode_marginal(mode).sum() == random_coo3.nnz

    def test_frobenius_norm(self, small_coo):
        expected = np.linalg.norm(small_coo.to_dense())
        assert small_coo.frobenius_norm() == pytest.approx(expected)



class TestArithmetic:
    """Values-only arithmetic on one pattern goes through ``with_values``."""

    @pytest.mark.parametrize(
        "op",
        [np.add, np.subtract, np.multiply, lambda a, b: -2.0 * a],
        ids=["add", "sub", "hadamard", "scale"],
    )
    def test_elementwise_on_a_shared_pattern_matches_dense(self, small_coo, op):
        other = small_coo.with_values(np.arange(1.0, small_coo.nnz + 1.0))
        out = small_coo.with_values(op(small_coo.values, other.values))
        assert out.same_pattern(small_coo)
        np.testing.assert_array_equal(
            out.to_dense(), op(small_coo.to_dense(), other.to_dense())
        )

    def test_mismatched_pattern_detected(self, small_coo):
        other = COOTensor(small_coo.shape, [(0, 0, 1)], [1.0])
        assert not small_coo.same_pattern(other)
        wider = COOTensor((5, 3, 3), small_coo.indices, small_coo.values)
        assert not small_coo.same_pattern(wider)
        assert not small_coo.same_pattern(small_coo.to_dense())
        assert small_coo.same_pattern(small_coo.with_values(-small_coo.values))

    def test_permuted_modes_resort_to_the_transpose(self, small_coo):
        perm = (2, 0, 1)
        t = COOTensor(
            tuple(small_coo.shape[i] for i in perm),
            small_coo.indices[:, perm],
            small_coo.values,
            sort=True,
        )
        assert t.shape == (3, 4, 3)
        assert np.all(np.diff(t.indices[:, 0]) >= 0)
        np.testing.assert_array_equal(
            t.to_dense(), np.transpose(small_coo.to_dense(), perm)
        )
