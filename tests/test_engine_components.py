"""Unit tests for the engine building blocks: the interpreter's BLAS layer
(``tests/interpreter.py``) and the dense reference."""

import numpy as np
import pytest

from interpreter import specialize_contraction
from repro.engine.reference import assert_same_result, dense_reference, reference_output


class TestVectorizedContract:
    """The vectorized kernels :func:`specialize_contraction` binds to an
    offload site: each accumulates into the output and returns its flops."""

    def test_matrix_vector(self):
        a = np.arange(12.0).reshape(3, 4)
        x = np.arange(4.0)
        out = np.zeros(3)
        kernel = specialize_contraction(["i", "k"], ["k"], ["i"])
        flops = kernel(a, x, out, slice(None))
        np.testing.assert_allclose(out, a @ x)
        assert flops == 2 * 12

    def test_outer_product_accumulates(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0, 5.0])
        out = np.ones((2, 3))
        kernel = specialize_contraction(["i"], ["j"], ["i", "j"])
        flops = kernel(x, y, out, (slice(None), slice(None)))
        np.testing.assert_allclose(out, 1.0 + np.outer(x, y))
        assert flops == 2 * 6

    def test_scalar_target(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 1.0, 1.0])
        out = np.zeros(4)
        kernel = specialize_contraction(["k"], ["k"], [])
        flops = kernel(x, y, out, 2)
        assert out[2] == pytest.approx(6.0)
        assert flops == 2 * 3

    def test_contraction_with_scalar_operand(self):
        scalar = np.float64(2.0)
        vec = np.array([1.0, 2.0])
        out = np.zeros(2)
        kernel = specialize_contraction([], ["s"], ["s"])
        flops = kernel(scalar, vec, out, slice(None))
        np.testing.assert_allclose(out, 2.0 * vec)
        assert flops == 2 * 2

    def test_einsum_fallback_counts_the_union_of_free_dims(self):
        lhs = np.arange(24.0).reshape(2, 3, 4)
        rhs = np.arange(20.0).reshape(4, 5)
        out = np.zeros((2, 5))
        kernel = specialize_contraction(["a", "b", "c"], ["c", "d"], ["a", "d"])
        assert kernel.__name__ == "k_einsum"
        flops = kernel(lhs, rhs, out, (slice(None), slice(None)))
        np.testing.assert_allclose(out, np.einsum("abc,cd->ad", lhs, rhs))
        assert flops == 2 * 2 * 3 * 4 * 5


class TestReference:
    def test_dense_reference_matches_einsum(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        ref = dense_reference(kernel, tensors)
        manual = np.einsum(
            "ijk,jr,ks->irs",
            tensors["T"].to_dense(),
            tensors["U"],
            tensors["V"],
        )
        np.testing.assert_allclose(ref, manual)

    def test_reference_output_sparse_pattern(self, tttp_setup):
        kernel, tensors = tttp_setup
        out = reference_output(kernel, tensors)
        assert out.same_pattern(tensors["T"])

    def test_assert_same_result_detects_value_mismatch(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        ref = dense_reference(kernel, tensors)
        with pytest.raises(AssertionError):
            assert_same_result(ref + 1.0, ref)

    def test_assert_same_result_detects_shape_mismatch(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        ref = dense_reference(kernel, tensors)
        with pytest.raises(AssertionError):
            assert_same_result(ref[:-1], ref)

    def test_assert_same_result_detects_type_mismatch(self, tttp_setup):
        kernel, tensors = tttp_setup
        expected = reference_output(kernel, tensors)
        with pytest.raises(AssertionError, match="sparse-pattern"):
            assert_same_result(np.zeros((2, 2)), expected)

    def test_assert_same_result_sparse_values(self, tttp_setup):
        kernel, tensors = tttp_setup
        expected = reference_output(kernel, tensors)
        perturbed = expected.with_values(expected.values + 1.0)
        with pytest.raises(AssertionError, match="values"):
            assert_same_result(perturbed, expected)
