"""HOOI's leading left singular vectors, taken from the unfolding's column Gram.

``_leading_singular_vectors`` must span the thin SVD's leading subspace and
return orthonormal columns on every shape HOOI produces, including the
spectra where a Gram-matrix route is known to lose digits, within the
error its squared spectrum allows.  HOOI's core, formed from the last
mode's TTMc, must equal the all-mode TTMc of the final factors, and a
sweep must execute exactly one contraction per mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.tucker_hooi import _leading_singular_vectors, tucker_hooi
from repro.engine.executor import LoopNestExecutor
from repro.kernels.ttmc import all_mode_ttmc
from repro.sptensor import random_sparse_tensor


def _with_spectrum(rows, cols, sigma, seed=0):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, len(sigma))))
    v, _ = np.linalg.qr(rng.standard_normal((cols, len(sigma))))
    return (u * sigma) @ v.T


def _duplicated_columns():
    half = np.random.default_rng(1).standard_normal((50, 4))
    return np.hstack([half, half])  # rank 4


_CASES = {
    "tall": (np.random.default_rng(2).standard_normal((121, 64)), 8),
    "wide": (np.random.default_rng(3).standard_normal((20, 64)), 8),
    "square": (np.random.default_rng(4).standard_normal((64, 64)), 8),
    "rank_deficient": (_duplicated_columns(), 4),
    # sigma down to 1e-6 sigma_1 with every direction kept: normalising
    # Y V_R by the Gram's eigenvalues instead of the QR step is off by ~1e-4;
    # V_R is every eigenvector here, so truncation is left to _TRUNCATED
    "fast_decay": (_with_spectrum(200, 8, np.logspace(0, -6, 8)), 8),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_spans_the_thin_svd_subspace_with_orthonormal_columns(case):
    matrix, rank = _CASES[case]
    u = _leading_singular_vectors(matrix, rank)
    reference = np.linalg.svd(matrix, full_matrices=False)[0][:, :rank]
    assert u.shape == (matrix.shape[0], rank)
    np.testing.assert_allclose(u.T @ u, np.eye(rank), rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        u @ u.T, reference @ reference.T, rtol=0, atol=1e-10
    )


_TRUNCATED = {
    # tall, rank < cols: sigma_8 = 1.6e-3, sigma_9 = 6.3e-4; reaches ~1e-11
    # (the SVD itself ~5e-14)
    "decaying": np.logspace(0, -6, 16),
    # a 10 % gap at sigma_8 = 1e-5: the squared spectrum costs digits here,
    # reaching ~3e-6 where the SVD stays near 4e-12
    "small_gap": np.concatenate([np.logspace(0, -5, 8), 9e-6 * np.logspace(0, -1, 8)]),
}


@pytest.mark.parametrize("case", list(_TRUNCATED))
def test_truncated_spectrum_stays_within_the_squared_spectrum_error(case):
    sigma = _TRUNCATED[case]
    matrix = _with_spectrum(200, 16, sigma)
    u = _leading_singular_vectors(matrix, 8)
    reference = np.linalg.svd(matrix, full_matrices=False)[0][:, :8]
    np.testing.assert_allclose(u.T @ u, np.eye(8), rtol=0, atol=1e-10)
    # eps * sigma_1^2 / (sigma_R^2 - sigma_{R+1}^2): the Gram route's limit
    bound = np.finfo(float).eps * sigma[0] ** 2 / (sigma[7] ** 2 - sigma[8] ** 2)
    assert np.linalg.norm(u @ u.T - reference @ reference.T, 2) <= bound


def test_pads_with_zero_columns_when_the_unfolding_has_fewer_than_rank():
    # prod(R) < R: a 10 x 4 unfolding asked for 6 vectors
    matrix = np.random.default_rng(5).standard_normal((10, 4))
    u = _leading_singular_vectors(matrix, 6)
    reference = np.linalg.svd(matrix, full_matrices=False)[0]
    assert u.shape == (10, 6)
    np.testing.assert_array_equal(u[:, 4:], 0.0)
    np.testing.assert_allclose(u[:, :4].T @ u[:, :4], np.eye(4), rtol=0, atol=1e-10)
    np.testing.assert_allclose(u @ u.T, reference @ reference.T, rtol=0, atol=1e-10)


def test_hooi_on_a_tall_tensor_takes_no_svd(monkeypatch):
    tensor = random_sparse_tensor((40, 30, 20), nnz=600, seed=3)
    calls = {"svd": 0, "eigh": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    result = tucker_hooi(tensor, ranks=(3, 3, 3), iterations=2, seed=0, tolerance=0.0)
    assert result.iterations == 2
    assert calls == {"svd": 0, "eigh": 2 * 3}  # one Gram eigensolve per mode per sweep


@pytest.mark.parametrize(
    "shape, nnz, ranks",
    [
        ((40, 30, 20), 600, (3, 4, 2)),
        # mode 0's 1-column unfolding pads its factor with zero columns
        ((40, 30, 20), 600, (4, 1, 1)),
        ((12, 10, 9, 8), 400, (3, 2, 4, 2)),
    ],
)
def test_core_from_the_last_ttmc_equals_the_all_mode_ttmc(shape, nnz, ranks):
    tensor = random_sparse_tensor(shape, nnz=nnz, seed=7)
    result = tucker_hooi(tensor, ranks=ranks, iterations=2, seed=0, tolerance=0.0)
    expected = all_mode_ttmc(tensor, result.factors)
    assert result.core.shape == tuple(ranks)
    np.testing.assert_allclose(
        result.core, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
    )


@pytest.mark.parametrize("shape, iterations", [((40, 30, 20), 3), ((12, 10, 9, 8), 2)])
def test_a_sweep_executes_one_contraction_per_mode(monkeypatch, shape, iterations):
    tensor = random_sparse_tensor(shape, nnz=400, seed=3)
    calls = []
    original = LoopNestExecutor.execute

    def counting(self, *args, **kwargs):
        calls.append(self.kernel)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LoopNestExecutor, "execute", counting)
    result = tucker_hooi(
        tensor, ranks=(2,) * len(shape), iterations=iterations, seed=0, tolerance=0.0
    )
    assert result.iterations == iterations
    assert len(calls) == len(shape) * iterations
