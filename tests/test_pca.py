"""Baseline subspace fitting checked against first-principles linear algebra."""

import warnings

import numpy as np
import pytest

from gfred.errors import DimensionMismatch, RankDeficiencyWarning
from gfred.pca import pca_fit, pca_mse
from gfred.spectral import center


def residual_energy(X: np.ndarray, basis: np.ndarray) -> float:
    xb = X - X.mean(axis=1, keepdims=True)
    proj = basis @ (basis.T @ xb)
    return float(np.linalg.norm(xb - proj) ** 2 / X.shape[1])


class TestFit:

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(6, 30))
        model = pca_fit(center(X), k=4)
        assert model.basis.shape == (6, 4)
        assert np.allclose(model.basis.T @ model.basis, np.eye(4), atol=1e-10)

    def test_eigvals_descending_nonnegative(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(5, 40))
        model = pca_fit(center(X), k=5)
        assert np.all(np.diff(model.eigvals) <= 1e-12)
        assert np.all(model.eigvals >= -1e-12)

    def test_residual_equals_discarded_eigenvalue_sum(self):
        # the error of the best rank-k fit is the tail of the covariance spectrum
        rng = np.random.default_rng(43)
        X = rng.normal(size=(7, 50))
        ds = center(X)
        full = pca_fit(ds, k=7)
        for k in range(1, 7):
            model = pca_fit(ds, k=k)
            tail = full.eigvals[k:].sum()
            assert pca_mse(ds, model) == pytest.approx(tail, rel=1e-10)

    def test_mse_matches_direct_projection(self):
        rng = np.random.default_rng(44)
        X = rng.normal(size=(8, 25))
        ds = center(X)
        for k in (1, 3, 6):
            model = pca_fit(ds, k=k)
            assert pca_mse(ds, model) == pytest.approx(residual_energy(X, model.basis), rel=1e-12)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(45)
        X = rng.normal(size=(6, 35))
        ds = center(X)
        errs = [pca_mse(ds, pca_fit(ds, k=k)) for k in range(1, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_beats_any_random_subspace(self):
        rng = np.random.default_rng(46)
        X = rng.normal(size=(5, 60))
        ds = center(X)
        model = pca_fit(ds, k=2)
        best = pca_mse(ds, model)
        for _ in range(25):
            Q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
            assert best <= residual_energy(X, Q) + 1e-10

    def test_tall_data_svd_branch_agrees_with_covariance_route(self):
        # more coordinates than samples exercises the thin factorization path
        rng = np.random.default_rng(47)
        X = rng.normal(size=(50, 8))
        ds = center(X)
        model = pca_fit(ds, k=3)
        assert model.basis.shape == (50, 3)
        assert np.allclose(model.basis.T @ model.basis, np.eye(3), atol=1e-10)
        cov = ds.centered @ ds.centered.T / ds.n
        vals, vecs = np.linalg.eigh(cov)
        order = np.argsort(-vals)
        direct = residual_energy(X, vecs[:, order[:3]])
        assert pca_mse(ds, model) == pytest.approx(direct, rel=1e-9)
        assert np.allclose(model.eigvals[:3], vals[order[:3]], rtol=1e-9, atol=1e-12)

    def test_tall_widths_share_one_factorization(self):
        # every width reads the dataset's one SVD: a basis is the leading
        # columns of any wider one, bit for bit
        ds = center(np.random.default_rng(46).normal(size=(30, 9)))
        models = {k: pca_fit(ds, k) for k in (8, 2, 5)}
        for k, model in models.items():
            assert np.array_equal(model.basis, models[8].basis[:, :k])
            assert np.array_equal(model.eigvals, models[8].eigvals)

    def test_recovers_planted_spike(self):
        rng = np.random.default_rng(48)
        u = np.array([3.0, 0.0, 4.0]) / 5.0
        coeffs = rng.normal(size=200) * 10.0
        X = np.outer(u, coeffs) + rng.normal(size=(3, 200)) * 0.01
        model = pca_fit(center(X), k=1)
        assert abs(float(u @ model.basis[:, 0])) > 0.999

    def test_mean_stored(self):
        X = np.array([[1.0, 3.0], [2.0, 6.0]])
        model = pca_fit(center(X), k=1)
        assert np.allclose(model.mean, [2.0, 4.0])

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(49)
        X = rng.normal(size=(6, 20))
        a = pca_fit(center(X), k=4)
        b = pca_fit(center(X.copy()), k=4)
        assert np.array_equal(a.basis, b.basis)
        for j in range(4):
            col = a.basis[:, j]
            assert col[np.argmax(np.abs(col))] >= 0.0


class TestValidation:

    def test_k_out_of_range(self):
        ds = center(np.random.default_rng(0).normal(size=(4, 10)))
        with pytest.raises(DimensionMismatch):
            pca_fit(ds, k=0)
        with pytest.raises(DimensionMismatch):
            pca_fit(ds, k=5)

    def test_mse_rejects_a_model_of_another_dim(self):
        rng = np.random.default_rng(0)
        model = pca_fit(center(rng.normal(size=(4, 10))), k=2)
        with pytest.raises(DimensionMismatch) as caught:
            pca_mse(center(rng.normal(size=(3, 10))), model)
        assert str(caught.value) == "model dim 4 does not match data dim 3"

    def test_rank_deficiency_warning(self):
        # rank-1 data cannot support a second direction
        t = np.linspace(0.0, 1.0, 20)
        X = np.vstack([t, 2.0 * t, -t])
        with pytest.warns(RankDeficiencyWarning):
            pca_fit(center(X), k=2)

    def test_full_rank_no_warning(self):
        rng = np.random.default_rng(50)
        X = rng.normal(size=(4, 30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pca_fit(center(X), k=4)
