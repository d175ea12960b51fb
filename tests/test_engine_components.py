"""Unit tests for the engine building blocks: BLAS layer, buffers, reference."""

import numpy as np
import pytest

from repro.core.loop_nest import BufferSpec
from repro.engine.blas import classify_call, vectorized_contract
from repro.engine.buffers import BufferSet
from repro.engine.reference import assert_same_result, dense_reference, reference_output
from repro.util.counters import OpCounter


class TestClassifyCall:
    def test_classifications(self):
        assert classify_call(["k"], ["k"], []) == "dot"
        assert classify_call([], ["s"], ["s"]) == "axpy"
        assert classify_call(["s"], [], ["s"]) == "axpy"
        assert classify_call(["s"], ["r"], ["s", "r"]) == "ger"
        assert classify_call(["k"], ["k", "s"], ["s"]) == "gemv"
        assert classify_call(["i", "k"], ["k", "j"], ["i", "j"]) == "gemm"
        assert classify_call([], [], []) == "scalar"
        assert classify_call(["a", "b", "c"], ["c"], ["a", "b"]) == "tensor"


class TestVectorizedContract:
    def test_matrix_vector(self):
        a = np.arange(12.0).reshape(3, 4)
        x = np.arange(4.0)
        out = np.zeros(3)
        counter = OpCounter()
        vectorized_contract(a, x, out, slice(None), ["i", "k"], ["k"], ["i"], counter)
        np.testing.assert_allclose(out, a @ x)
        assert counter.flops == 2 * 12
        assert counter.kernel_calls.get("gemv") == 1

    def test_outer_product_accumulates(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0, 5.0])
        out = np.ones((2, 3))
        vectorized_contract(x, y, out, (slice(None), slice(None)), ["i"], ["j"], ["i", "j"])
        np.testing.assert_allclose(out, 1.0 + np.outer(x, y))

    def test_scalar_target(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 1.0, 1.0])
        out = np.zeros(4)
        vectorized_contract(x, y, out, 2, ["k"], ["k"], [])
        assert out[2] == pytest.approx(6.0)

    def test_contraction_with_scalar_operand(self):
        scalar = np.float64(2.0)
        vec = np.array([1.0, 2.0])
        out = np.zeros(2)
        vectorized_contract(scalar, vec, out, slice(None), [], ["s"], ["s"])
        np.testing.assert_allclose(out, 2.0 * vec)


class TestBufferSet:
    def _specs(self):
        return [
            BufferSpec(name="_X", producer=0, consumer=1, indices=("s",)),
            BufferSpec(name="_Y", producer=1, consumer=2, indices=("s", "t")),
            BufferSpec(name="_Z", producer=2, consumer=3, indices=()),
        ]

    def test_allocation_shapes(self):
        bs = BufferSet(self._specs(), {"s": 4, "t": 3})
        assert bs.array("_X").shape == (4,)
        assert bs.array("_Y").shape == (4, 3)
        assert bs.array("_Z").shape == ()
        assert bs.total_elements() == 4 + 12 + 1
        assert bs.max_dimension() == 2

    def test_duplicate_names_rejected(self):
        specs = self._specs() + [BufferSpec("_X", 3, 4, ("t",))]
        with pytest.raises(ValueError, match="duplicate"):
            BufferSet(specs, {"s": 4, "t": 3})

    def test_view_and_free_indices(self):
        bs = BufferSet(self._specs(), {"s": 4, "t": 3})
        view = bs.view("_Y", {"s": 2})
        assert view.shape == (3,)
        assert bs.free_indices("_Y", {"s": 2}) == ("t",)
        assert bs.free_indices("_Y", {"s": 2, "t": 0}) == ()

    def test_reset_partial(self):
        counter = OpCounter()
        bs = BufferSet(self._specs(), {"s": 4, "t": 3}, counter)
        bs.array("_Y")[:] = 7.0
        bs.reset("_Y", {"s": 1})
        assert np.all(bs.array("_Y")[1] == 0.0)
        assert np.all(bs.array("_Y")[0] == 7.0)
        assert counter.buffer_resets == 1

    def test_reset_scalar_buffer(self):
        bs = BufferSet(self._specs(), {"s": 4, "t": 3})
        bs.array("_Z")[()] = 5.0
        bs.reset("_Z", {})
        assert bs.array("_Z")[()] == 0.0

    def test_contains(self):
        bs = BufferSet(self._specs(), {"s": 4, "t": 3})
        assert "_X" in bs and "_missing" not in bs


class TestReference:
    def test_dense_reference_matches_einsum(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        ref = dense_reference(kernel, tensors)
        manual = np.einsum(
            "ijk,jr,ks->irs",
            tensors["T"].to_dense(),
            tensors["U"].data,
            tensors["V"].data,
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
