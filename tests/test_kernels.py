"""Tests for the named kernel library (MTTKRP, TTMc, TTTP, TTTc, SDDMM)."""

import numpy as np
import pytest

from repro.kernels import (
    all_mode_ttmc,
    mttkrp,
    sddmm,
    tttc,
    tttp,
    ttmc,
)
from repro.kernels.mttkrp import mttkrp_spec
from repro.kernels.spttn import KernelBuilder, sparse_order_of
from repro.kernels.ttmc import all_mode_ttmc_spec, ttmc_spec
from repro.kernels.tttc import tt_core_shapes, tttc_spec
from repro.kernels.tttp import tttp_spec
from repro.core.scheduler import SpTTNScheduler
from repro.sptensor import random_dense_matrix, random_sparse_tensor


@pytest.fixture
def tensor3():
    return random_sparse_tensor((16, 14, 12), density=0.03, seed=21)


@pytest.fixture
def factors3(tensor3):
    return [random_dense_matrix(d, 5, seed=n) for n, d in enumerate(tensor3.shape)]


class TestSpecBuilders:
    def test_mttkrp_specs(self):
        assert mttkrp_spec(3, 0) == "ijk,jr,kr->ir"
        assert mttkrp_spec(3, 1) == "ijk,ir,kr->jr"
        assert mttkrp_spec(4, 3) == "ijkl,ir,jr,kr->lr"

    def test_ttmc_specs(self):
        assert ttmc_spec(3, 0) == "ijk,jr,ks->irs"
        assert ttmc_spec(3, 2) == "ijk,ir,js->krs"
        assert ttmc_spec(4, 0) == "ijkl,jr,ks,lt->irst"

    def test_all_mode_ttmc_spec(self):
        assert all_mode_ttmc_spec(3) == "ijk,ir,js,kt->rst"

    def test_tttp_spec(self):
        assert tttp_spec(3) == "ijk,ir,jr,kr->ijk"
        assert tttp_spec(4) == "ijkl,ir,jr,kr,lr->ijkl"

    def test_tttc_spec_last_core(self):
        assert tttc_spec(4) == "ijkl,ir,rjs,skt->tl"

    def test_tttc_spec_mid_core(self):
        assert tttc_spec(4, removed_core=1) == "ijkl,ir,skt,tl->rjs"
        assert tttc_spec(3, removed_core=0) == "ijk,rjs,sk->ir"

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            mttkrp_spec(3, 3)
        with pytest.raises(ValueError):
            ttmc_spec(3, -1)
        with pytest.raises(ValueError):
            tttc_spec(3, removed_core=5)

    def test_kernel_builder_limits(self):
        kb = KernelBuilder(3)
        assert kb.sparse_subscripts == "ijk"
        with pytest.raises(ValueError):
            KernelBuilder(0)
        with pytest.raises(ValueError):
            kb.dense_index(50)

    def test_sparse_order_of_requires_sparse(self):
        with pytest.raises(TypeError):
            sparse_order_of(np.zeros((3, 3)))


def _family_call(family, tensor3, factors3):
    """One family wrapper bound to its operands, as a zero-argument call."""
    if family == "mttkrp":
        return lambda: mttkrp(tensor3, factors3, mode=1)
    if family == "ttmc":
        return lambda: ttmc(tensor3, factors3, mode=2)
    if family == "all_mode_ttmc":
        return lambda: all_mode_ttmc(tensor3, factors3)
    if family == "tttp":
        return lambda: tttp(tensor3, factors3).values
    if family == "sddmm":
        matrix = random_sparse_tensor((20, 15), density=0.08, seed=3)
        left, right = random_dense_matrix(20, 6, seed=4), random_dense_matrix(15, 6, seed=5)
        return lambda: sddmm(matrix, left, right).values
    cores = [
        np.random.default_rng(n).random(s) for n, s in enumerate(tt_core_shapes(tensor3.shape, 3))
    ]
    return lambda: tttc(tensor3, cores)


class TestScheduleCache:
    @pytest.mark.parametrize(
        "family", ["mttkrp", "ttmc", "all_mode_ttmc", "tttp", "sddmm", "tttc"]
    )
    def test_second_call_runs_no_search(self, family, tensor3, factors3, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN_STORE", raising=False)
        searches = []
        search = SpTTNScheduler.schedule

        def counted(self, *args, **kwargs):
            searches.append(self.kernel)
            return search(self, *args, **kwargs)

        monkeypatch.setattr(SpTTNScheduler, "schedule", counted)
        call = _family_call(family, tensor3, factors3)
        first = call()
        assert len(searches) == 1
        second = call()
        assert len(searches) == 1, "the second call searched again"
        np.testing.assert_array_equal(first, second)


class TestMTTKRP:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_all_modes_match_reference(self, tensor3, factors3, mode):
        out = mttkrp(tensor3, factors3, mode=mode)
        dense = tensor3.to_dense()
        letters = "ijk"
        spec = (
            letters
            + ","
            + ",".join(f"{letters[n]}r" for n in range(3) if n != mode)
            + "->"
            + letters[mode]
            + "r"
        )
        other = [factors3[n] for n in range(3) if n != mode]
        np.testing.assert_allclose(out, np.einsum(spec, dense, *other), atol=1e-10)

    def test_accepts_reduced_factor_list(self, tensor3, factors3):
        full = mttkrp(tensor3, factors3, mode=0)
        reduced = mttkrp(tensor3, factors3[1:], mode=0)
        np.testing.assert_allclose(full, reduced)

    def test_wrong_factor_count_rejected(self, tensor3, factors3):
        with pytest.raises(ValueError):
            mttkrp(tensor3, factors3[:1], mode=0)


class TestTTMc:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_all_modes_match_reference(self, tensor3, factors3, mode):
        # use distinct ranks per factor so axis ordering bugs are caught
        factors = [
            random_dense_matrix(d, 3 + n, seed=n) for n, d in enumerate(tensor3.shape)
        ]
        out = ttmc(tensor3, factors, mode=mode)
        dense = tensor3.to_dense()
        letters = "ijk"
        ranks = "rst"
        ins = []
        outs = letters[mode]
        args = []
        pos = 0
        for n in range(3):
            if n == mode:
                continue
            ins.append(letters[n] + ranks[pos])
            outs += ranks[pos]
            args.append(factors[n])
            pos += 1
        spec = "ijk," + ",".join(ins) + "->" + outs
        np.testing.assert_allclose(out, np.einsum(spec, dense, *args), atol=1e-10)

    def test_all_mode_ttmc(self, tensor3, factors3):
        out = all_mode_ttmc(tensor3, factors3)
        ref = np.einsum(
            "ijk,ir,js,kt->rst",
            tensor3.to_dense(),
            factors3[0],
            factors3[1],
            factors3[2],
        )
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_all_mode_requires_all_factors(self, tensor3, factors3):
        with pytest.raises(ValueError):
            all_mode_ttmc(tensor3, factors3[:2])


class TestTTTPAndSDDMM:
    def test_tttp_values(self, tensor3, factors3):
        out = tttp(tensor3, factors3)
        assert out.same_pattern(tensor3)
        model = np.einsum(
            "ir,jr,kr->ijk", factors3[0], factors3[1], factors3[2]
        )
        dense = tensor3.to_dense()
        expected = np.array([dense[tuple(c)] * model[tuple(c)] for c in out.indices])
        np.testing.assert_allclose(out.values, expected, atol=1e-10)

    def test_tttp_factor_count(self, tensor3, factors3):
        with pytest.raises(ValueError):
            tttp(tensor3, factors3[:2])

    def test_tttp_order4(self, random_coo4):
        factors = [random_dense_matrix(d, 3, seed=n) for n, d in enumerate(random_coo4.shape)]
        out = tttp(random_coo4, factors)
        assert out.same_pattern(random_coo4)

    def test_sddmm(self):
        M = random_sparse_tensor((20, 15), density=0.08, seed=3)
        L = random_dense_matrix(20, 6, seed=4)
        R = random_dense_matrix(15, 6, seed=5)
        out = sddmm(M, L, R)
        dd = L @ R.T
        dense = M.to_dense()
        expected = np.array([dense[tuple(c)] * dd[tuple(c)] for c in out.indices])
        np.testing.assert_allclose(out.values, expected, atol=1e-10)

    def test_sddmm_requires_matrix(self, tensor3):
        with pytest.raises(ValueError):
            sddmm(tensor3, np.ones((16, 3)), np.ones((14, 3)))


class TestTTTc:
    def test_core_shapes(self):
        shapes = tt_core_shapes((6, 5, 4, 3), 2)
        assert shapes == [(6, 2), (2, 5, 2), (2, 4, 2), (2, 3)]
        with pytest.raises(ValueError):
            tt_core_shapes((6,), 2)

    def test_order3_last_core(self):
        T = random_sparse_tensor((10, 9, 8), density=0.05, seed=9)
        cores = [
            np.random.default_rng(n).random(s) for n, s in enumerate(tt_core_shapes(T.shape, 3))
        ]
        out = tttc(T, cores)
        ref = np.einsum(
            "ijk,ir,rjs->sk", T.to_dense(), cores[0], cores[1]
        )
        np.testing.assert_allclose(out, ref, atol=1e-10)

    @pytest.mark.parametrize("removed", [0, 1, 2, 3])
    def test_order4_any_removed_core(self, removed):
        T = random_sparse_tensor((8, 7, 6, 5), density=0.02, seed=10)
        cores = [
            np.random.default_rng(n).random(s) for n, s in enumerate(tt_core_shapes(T.shape, 2))
        ]
        out = tttc(T, cores, removed_core=removed)
        subs = ["ia", "ajb", "bkc", "cl"]
        outs = subs[removed]
        ins = ["ijkl"] + [s for n, s in enumerate(subs) if n != removed]
        ref = np.einsum(
            ",".join(ins) + "->" + outs,
            T.to_dense(),
            *[cores[n] for n in range(4) if n != removed],
        )
        np.testing.assert_allclose(out, ref.reshape(out.shape), atol=1e-10)

    def test_reduced_core_list(self):
        T = random_sparse_tensor((10, 9, 8), density=0.05, seed=9)
        cores = [
            np.random.default_rng(n).random(s) for n, s in enumerate(tt_core_shapes(T.shape, 3))
        ]
        full = tttc(T, cores, removed_core=2)
        reduced = tttc(T, cores[:2], removed_core=2)
        np.testing.assert_allclose(full, reduced)
