"""Unit tests for the SpTTN kernel IR (parsing and validation)."""

import numpy as np
import pytest

from repro.core.expr import KernelOperand, SpTTNKernel, parse_kernel
from repro.sptensor import CSFTensor, random_sparse_tensor


class TestParseKernel:
    def test_mttkrp_parsing(self, mttkrp_setup):
        kernel, _ = mttkrp_setup
        assert kernel.sparse_operand.name == "T"
        assert kernel.sparse_operand.indices == ("i", "j", "k")
        assert [op.name for op in kernel.dense_operands] == ["B", "C"]
        assert kernel.output.indices == ("i", "a")
        assert not kernel.output.is_sparse

    def test_index_dimensions_from_tensors(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        T = tensors["T"]
        assert kernel.index_dims["i"] == T.shape[0]
        assert kernel.index_dims["j"] == T.shape[1]
        assert kernel.index_dims["a"] == 5

    def test_sparse_and_dense_index_classification(self, ttmc_setup):
        kernel, _ = ttmc_setup
        assert kernel.sparse_indices == frozenset({"i", "j", "k"})
        assert kernel.dense_indices == frozenset({"r", "s"})
        assert kernel.contracted_indices == frozenset({"j", "k"})

    def test_default_names(self, random_coo3):
        kernel = parse_kernel(
            "ijk,ja,ka->ia",
            [random_coo3, np.ones((15, 3)), np.ones((12, 3))],
        )
        assert kernel.sparse_operand.name == "T"
        assert [op.name for op in kernel.dense_operands] == ["A0", "A1"]

    def test_sparse_output_detection(self, tttp_setup):
        kernel, _ = tttp_setup
        assert kernel.output.is_sparse

    def test_dense_output_when_indices_differ(self, mttkrp_setup):
        kernel, _ = mttkrp_setup
        assert not kernel.output.is_sparse

    def test_force_output_sparse_mismatch_rejected(self, random_coo3):
        with pytest.raises(ValueError, match="sparse output"):
            parse_kernel(
                "ijk,ja,ka->ia",
                [random_coo3, np.ones((15, 3)), np.ones((12, 3))],
                output_sparse=True,
            )

    def test_missing_arrow_rejected(self, random_coo3):
        with pytest.raises(ValueError, match="->"):
            parse_kernel("ijk,ja,ka", [random_coo3, np.ones((15, 3)), np.ones((12, 3))])

    def test_operand_count_mismatch(self, random_coo3):
        with pytest.raises(ValueError, match="inputs"):
            parse_kernel("ijk,ja->ia", [random_coo3])

    def test_rank_mismatch_rejected(self, random_coo3):
        with pytest.raises(ValueError, match="order"):
            parse_kernel("ij,ja,ka->ia", [random_coo3, np.ones((15, 3)), np.ones((12, 3))])

    def test_inconsistent_dimensions_rejected(self, random_coo3):
        with pytest.raises(ValueError, match="inconsistent"):
            parse_kernel(
                "ijk,ja,ka->ia", [random_coo3, np.ones((15, 3)), np.ones((12, 4))]
            )

    def test_two_sparse_operands_rejected(self, random_coo3):
        other = random_sparse_tensor((15, 3), nnz=5, seed=0)
        with pytest.raises(ValueError, match="exactly one sparse"):
            parse_kernel("ijk,ja,ka->ia", [random_coo3, other, np.ones((12, 3))])

    def test_no_sparse_operand_rejected(self):
        with pytest.raises(ValueError, match="exactly one sparse"):
            parse_kernel("ij,jk->ik", [np.ones((3, 4)), np.ones((4, 5))])

    def test_output_index_must_appear_in_inputs(self, random_coo3):
        with pytest.raises(ValueError, match="does not appear"):
            parse_kernel(
                "ijk,ja,ka->iz", [random_coo3, np.ones((15, 3)), np.ones((12, 3))]
            )

    def test_csf_input_sets_mode_order(self, random_coo3):
        csf = CSFTensor.from_coo(random_coo3, mode_order=(1, 0, 2))
        kernel = parse_kernel(
            "ijk,ja,ka->ia", [csf, np.ones((15, 3)), np.ones((12, 3))]
        )
        assert kernel.csf_mode_order == ("j", "i", "k")

    def test_repeated_index_within_operand_rejected(self):
        from repro.sptensor.csf import default_structure_memo

        cube = random_sparse_tensor((10, 10, 10), nnz=20, seed=0)
        conversions = default_structure_memo().stats()["misses"]
        with pytest.raises(ValueError, match="repeats"):
            parse_kernel("iik,ia,ka->ia", [cube, np.ones((10, 3)), np.ones((10, 3))])
        # rejected on structure alone, before the tensor is converted for statistics
        assert default_structure_memo().stats()["misses"] == conversions


class TestSparseStats:
    def test_prefix_nnz_recorded_from_coo(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        T = tensors["T"]
        assert kernel.nnz() == T.nnz
        for depth in range(1, 4):
            assert kernel.prefix_nnz(depth) == T.nnz_prefix(depth)

    def test_prefix_nnz_zero_depth(self, mttkrp_setup):
        kernel, _ = mttkrp_setup
        assert kernel.prefix_nnz(0) == 1.0

    def test_sparse_subset_nnz_prefix_exact(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        assert kernel.sparse_subset_nnz(["i", "j"]) == tensors["T"].nnz_prefix(2)

    def test_sparse_subset_nnz_non_prefix_bounded(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        est = kernel.sparse_subset_nnz(["j", "k"])
        assert 0 < est <= tensors["T"].nnz

    def test_sparse_subset_nnz_dense_only(self, mttkrp_setup):
        kernel, _ = mttkrp_setup
        assert kernel.sparse_subset_nnz(["a"]) == 1.0

    def test_uniform_fallback_without_stats(self):
        operands = [
            KernelOperand("T", ("i", "j"), True),
            KernelOperand("A", ("j", "r"), False),
        ]
        output = KernelOperand("OUT", ("i", "r"), False)
        kernel = SpTTNKernel(operands, output, {"i": 10, "j": 20, "r": 4})
        assert kernel.prefix_nnz(1) == 10  # uniform assumption: min(nnz, dim)


class TestKernelHelpers:
    def test_csf_level(self, ttmc_setup):
        kernel, _ = ttmc_setup
        assert kernel.csf_level("j") == 1
        assert kernel.csf_level("r") is None

    def test_operands_keep_the_spec_order(self, ttmc_setup):
        kernel, _ = ttmc_setup
        inputs = ",".join("".join(op.indices) for op in kernel.operands)
        assert f"{inputs}->{''.join(kernel.output.indices)}" == "ijk,jr,ks->irs"
        assert [op.name for op in kernel.operands] == ["T", "U", "V"]
        assert [op.is_sparse for op in kernel.operands] == [True, False, False]

    def test_csf_descends(self, ttmc_setup, random_coo3):
        kernel, _ = ttmc_setup
        assert kernel.csf_descends("i", ())
        assert kernel.csf_descends("j", {"i"})
        assert not kernel.csf_descends("j", ())
        assert not kernel.csf_descends("k", {"i", "r"})
        assert kernel.csf_descends("k", {"i", "j"})
        assert not kernel.csf_descends("r", {"i", "j", "k"})
        csf = CSFTensor.from_coo(random_coo3, mode_order=(1, 0, 2))
        swapped = parse_kernel("ijk,jr,ks->irs", [csf, np.ones((15, 4)), np.ones((12, 5))])
        assert swapped.csf_descends("j", ())
        assert not swapped.csf_descends("i", ())

    def test_sparse_order_key(self, ttmc_setup):
        kernel, _ = ttmc_setup
        keys = [kernel.sparse_order_key(i) for i in ("i", "j", "k", "r")]
        assert keys == [0, 1, 2, 3]
