"""Tests for the decomposition / completion applications."""

import numpy as np
import pytest

from repro.apps import (
    cp_als,
    cp_completion,
    tensor_train_decomposition,
    tucker_hooi,
)
from repro.sptensor import COOTensor, random_sparse_tensor


@pytest.fixture
def lowrank_tensor():
    """A sparse tensor sampled from an exactly rank-3 dense tensor."""
    rng = np.random.default_rng(3)
    A = rng.random((14, 3))
    B = rng.random((12, 3))
    C = rng.random((10, 3))
    dense = np.einsum("ir,jr,kr->ijk", A, B, C)
    mask = rng.random(dense.shape) < 0.15
    return COOTensor.from_dense(dense * mask)


class TestCPALS:
    def test_fit_improves_monotonically(self, lowrank_tensor):
        result = cp_als(lowrank_tensor, rank=3, iterations=6, seed=0)
        assert len(result.fits) == result.iterations
        assert all(b >= a - 1e-9 for a, b in zip(result.fits, result.fits[1:]))

    def test_factor_shapes_and_normalization(self, lowrank_tensor):
        result = cp_als(lowrank_tensor, rank=4, iterations=3, seed=1)
        assert result.rank == 4
        for mode, factor in enumerate(result.factors):
            assert factor.shape == (lowrank_tensor.shape[mode], 4)
        # all but the weight-carrying scaling is normalized
        norms = np.linalg.norm(result.factors[0], axis=0)
        assert np.all(norms < 10.0)

    def test_reconstruction_reduces_error(self, lowrank_tensor):
        result = cp_als(lowrank_tensor, rank=3, iterations=8, seed=0)
        recon = result.reconstruct()
        dense = lowrank_tensor.to_dense()
        err = np.linalg.norm(recon - dense) / np.linalg.norm(dense)
        assert err < 1.0

    def test_model_values_at(self, lowrank_tensor):
        result = cp_als(lowrank_tensor, rank=3, iterations=3, seed=0)
        values = result.model_values_at(lowrank_tensor.indices[:5])
        recon = result.reconstruct()
        expected = [recon[tuple(c)] for c in lowrank_tensor.indices[:5]]
        np.testing.assert_allclose(values, expected, atol=1e-10)

    def test_initial_factors_respected(self, lowrank_tensor):
        init = [np.ones((d, 2)) for d in lowrank_tensor.shape]
        result = cp_als(lowrank_tensor, rank=2, iterations=1, initial_factors=init)
        assert result.rank == 2

    def test_bad_initial_factor_shape(self, lowrank_tensor):
        init = [np.ones((d, 2)) for d in lowrank_tensor.shape]
        init[0] = np.ones((3, 2))
        with pytest.raises(ValueError):
            cp_als(lowrank_tensor, rank=2, iterations=1, initial_factors=init)

    def test_order4_tensor(self, random_coo4):
        result = cp_als(random_coo4, rank=2, iterations=2, seed=0)
        assert len(result.factors) == 4

    def test_invalid_rank(self, lowrank_tensor):
        with pytest.raises(ValueError):
            cp_als(lowrank_tensor, rank=0)


class TestTuckerHOOI:
    def test_fit_improves(self, lowrank_tensor):
        result = tucker_hooi(lowrank_tensor, ranks=(3, 3, 3), iterations=4, seed=0)
        assert all(b >= a - 1e-9 for a, b in zip(result.fits, result.fits[1:]))

    def test_factors_orthonormal(self, lowrank_tensor):
        result = tucker_hooi(lowrank_tensor, ranks=(3, 4, 2), iterations=2, seed=0)
        for factor in result.factors:
            gram = factor.T @ factor
            np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-8)

    def test_core_shape(self, lowrank_tensor):
        result = tucker_hooi(lowrank_tensor, ranks=(2, 3, 4), iterations=1, seed=0)
        assert result.core.shape == (2, 3, 4)
        assert result.ranks == (2, 3, 4)

    def test_reconstruction_shape(self, lowrank_tensor):
        result = tucker_hooi(lowrank_tensor, ranks=(3, 3, 3), iterations=2, seed=0)
        assert result.reconstruct().shape == lowrank_tensor.shape

    def test_rank_validation(self, lowrank_tensor):
        with pytest.raises(ValueError):
            tucker_hooi(lowrank_tensor, ranks=(3, 3), iterations=1)
        with pytest.raises(ValueError):
            tucker_hooi(lowrank_tensor, ranks=(3, 3, 100), iterations=1)


class TestCompletion:
    def test_rmse_decreases(self, lowrank_tensor):
        result = cp_completion(
            lowrank_tensor, rank=3, iterations=12, learning_rate=0.5, seed=0
        )
        assert result.rmse_history[-1] < result.rmse_history[0]

    def test_prediction_interface(self, lowrank_tensor):
        result = cp_completion(lowrank_tensor, rank=3, iterations=5, seed=0)
        preds = result.predict(lowrank_tensor.indices[:7])
        assert preds.shape == (7,)
        assert np.all(np.isfinite(preds))

    def test_requires_observations(self):
        with pytest.raises(ValueError):
            cp_completion(COOTensor.empty((4, 4, 4)), rank=2)

    def test_held_out_prediction_better_than_zero_model(self, rng):
        """Completion generalizes: held-out entries are predicted better than
        by the all-zeros model."""
        A = rng.random((16, 2))
        B = rng.random((14, 2))
        C = rng.random((12, 2))
        dense = np.einsum("ir,jr,kr->ijk", A, B, C)
        mask = rng.random(dense.shape) < 0.25
        observed = COOTensor.from_dense(dense * mask)
        result = cp_completion(
            observed, rank=2, iterations=40, learning_rate=0.6, seed=1
        )
        holdout_mask = (~mask) & (rng.random(dense.shape) < 0.05)
        coords = np.argwhere(holdout_mask)
        truth = dense[holdout_mask]
        preds = result.predict(coords)
        rmse_model = np.sqrt(np.mean((preds - truth) ** 2))
        rmse_zero = np.sqrt(np.mean(truth**2))
        assert rmse_model < rmse_zero


class TestTensorTrain:
    def test_rmse_decreases(self, random_coo4):
        result = tensor_train_decomposition(
            random_coo4, rank=2, iterations=10, learning_rate=0.5, seed=0
        )
        assert result.rmse_history[-1] <= result.rmse_history[0]

    def test_core_shapes(self, random_coo4):
        result = tensor_train_decomposition(
            random_coo4, rank=3, iterations=2, seed=0
        )
        shapes = [c.shape for c in result.cores]
        d = random_coo4.shape
        assert shapes[0] == (d[0], 3)
        assert shapes[1] == (3, d[1], 3)
        assert shapes[-1] == (3, d[3])

    def test_values_at_matches_reconstruct(self, random_coo3):
        result = tensor_train_decomposition(
            random_coo3, rank=2, iterations=1, seed=0
        )
        recon = result.reconstruct(random_coo3.shape)
        sample = random_coo3.indices[:10]
        vals = result.values_at(sample)
        expected = [recon[tuple(c)] for c in sample]
        np.testing.assert_allclose(vals, expected, atol=1e-10)

    def test_order2_supported(self):
        m = random_sparse_tensor((12, 10), density=0.1, seed=4)
        result = tensor_train_decomposition(m, rank=2, iterations=3, seed=0)
        assert len(result.cores) == 2

    def test_validation(self, random_coo3):
        with pytest.raises(ValueError):
            tensor_train_decomposition(random_coo3, rank=0)
        with pytest.raises(ValueError):
            tensor_train_decomposition(COOTensor.empty((3, 3)), rank=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("app", ["cp_als", "tucker_hooi"])
def test_non_finite_values_are_rejected_up_front(app, bad, lowrank_tensor):
    """A NaN or inf value raises before any sweep: the normal-equation solve
    would otherwise turn a NaN tensor into a silent fit of 1.0."""
    values = lowrank_tensor.values.copy()
    values[3] = bad
    tensor = lowrank_tensor.with_values(values)
    with pytest.raises(ValueError, match="finite"):
        if app == "cp_als":
            cp_als(tensor, rank=2, iterations=2)
        else:
            tucker_hooi(tensor, ranks=(2, 2, 2), iterations=2)
