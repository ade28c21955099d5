"""Plain PCA baseline on centered columns.

The covariance here is normalized by n (not n - 1) to match the training
objective of the filter modules, so baseline and filter MSE values are
directly comparable.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficiencyWarning, solver_failure
from .graph import canonical_signs
from .spectral import CenteredDataset


@dataclass(frozen=True)
class PcaModel:
    k: int
    basis: np.ndarray    # (dim, k), orthonormal columns, canonical signs
    mean: np.ndarray     # (dim,)
    eigvals: np.ndarray  # (min(dim, n),) covariance eigenvalues, descending


def pca_fit(ds: CenteredDataset, k: int) -> PcaModel:
    """Top-k eigenvectors of the n-normalized covariance.

    For tall data (dim > n) the spectrum is taken from the thin SVD of the
    centered matrix, which has the same nonzero eigenvalues as the
    covariance without ever forming the dim x dim matrix. That SVD is the
    dataset's own (:meth:`~gfred.spectral.CenteredDataset.svd`), computed
    once and shared by every width: the basis of width k is the leading k
    columns of any wider one. Wide data (dim <= n) take the eigenpairs of
    the dim x dim covariance on each call. Warns with
    RankDeficiencyWarning when the k-th eigenvalue is at numerical zero.
    Raises ConvergenceFailure when the eigensolver or SVD fails.
    """
    if not 1 <= k <= min(ds.dim, ds.n):
        raise DimensionMismatch(f"k={k} out of range for dim={ds.dim}, n={ds.n}")
    if ds.dim <= ds.n:
        cov = (ds.centered @ ds.centered.T) / ds.n
        with solver_failure("covariance eigendecomposition"):
            vals, vecs = np.linalg.eigh(cov)
        order = np.argsort(-vals, kind="stable")
        eigvals = vals[order]
        basis = vecs[:, order[:k]]
    else:
        left, sing, _ = ds.svd()
        eigvals = sing * sing / ds.n
        basis = left[:, :k]
    basis = canonical_signs(basis)
    if eigvals[k - 1] <= 1e-12 * max(eigvals[0], 0.0):
        warnings.warn(
            f"component {k} sits at numerical zero variance", RankDeficiencyWarning, stacklevel=2
        )
    return PcaModel(k=k, basis=basis, mean=ds.mean.copy(), eigvals=eigvals)


def pca_mse(ds: CenteredDataset, basis: PcaModel | np.ndarray) -> float:
    """Mean squared residual of projecting the centred data onto a dim x k
    orthonormal basis, taken by
    :meth:`~gfred.spectral.CenteredDataset.mse` in the projection's own
    dim x n buffer. ``basis`` is a fitted :class:`PcaModel` (its
    ``basis``) or a stored basis, such as a model file's training basis;
    on data the basis was not fitted to, the error is out of sample."""
    if isinstance(basis, PcaModel):
        basis = basis.basis
    if basis.shape[0] != ds.dim:
        raise DimensionMismatch(f"model dim {basis.shape[0]} does not match data dim {ds.dim}")
    return ds.mse(basis @ (basis.T @ ds.centered))
