"""Centering, graph Fourier transforms, and the training-time cache.

Transforming a centered data matrix into the graph frequency domain makes
polynomial graph filters act frequency by frequency: a filter bank of
order ``L`` applies the matrix ``sum_l lam_i^l T_l`` to the i-th
transformed column. Training needs, over and over again, the Gram matrix
of the stacked per-frequency feature vectors
``(x_i, lam_i x_i, ..., lam_i^L x_i)``; by a Hadamard identity that Gram
matrix equals ``(Xt' Xt) * V`` with ``V(i,j) = sum_l (lam_i lam_j)^l``,
which keeps every evaluation at n x n cost. ``V`` is accumulated term by
term (the geometric series has no safe closed form at lam_i lam_j = 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataOverflow,
    DataUnderflow,
    DimensionMismatch,
    SpectralOverflow,
    solver_failure,
)
from .graph import GraphSpectrum

_POWER_LIMIT = 1e150
_KERNEL_BLOCK_ROWS = 32  # rows of P P' that build_cache holds at once


@dataclass(frozen=True)
class CenteredDataset:
    """Centered data columns and the mean they were centered on.

    ``centered`` is held as a read-only view, and :meth:`svd` computes its
    thin SVD on first use and caches the factors, read-only too: nothing
    can change what was factorized, so the cache cannot go stale. On tall
    data (dim > n) that one factorization is the only one: the PCA basis
    of every width and every fit's narrowing to n rows are read from it.
    :meth:`mse` is the one mean squared error against ``centered``, which
    PCA's and the codec's reconstruction errors are.
    """

    centered: np.ndarray  # (dim, n), rows sum to zero
    mean: np.ndarray      # (dim,)
    dim: int
    n: int
    _svd: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        view = np.asarray(self.centered, dtype=np.float64).view()
        view.flags.writeable = False
        object.__setattr__(self, "centered", view)

    def svd(self) -> tuple:
        """The thin SVD ``(left, sing, right_t)`` of ``centered``:
        ``left * sing @ right_t`` is the centered data, with
        min(dim, n) singular values in descending order. Raises
        ConvergenceFailure when the SVD does not converge."""
        if self._svd is None:
            with solver_failure("svd of the centered data"):
                factors = tuple(np.linalg.svd(self.centered, full_matrices=False))
            for factor in factors:
                factor.flags.writeable = False
            object.__setattr__(self, "_svd", factors)
        return self._svd

    def mse(self, approx: np.ndarray) -> float:
        """Mean squared error of the dim x n array ``approx`` against
        ``centered``: the squared residual summed and divided by n.
        ``approx`` must be a fresh buffer the caller gives up: the residual
        is subtracted and squared in it, in place, so the error takes no
        second data-sized array."""
        approx -= self.centered
        approx *= approx
        return float(approx.sum()) / self.n


def center(X) -> CenteredDataset:
    """Subtract the column mean from every column.

    Raises DataOverflow when the centered data's sum of squares is not
    finite: every cost, kernel and PCA energy is built from it, so finite
    cells that large would surface as NaN further down. Raises
    DataUnderflow when that sum of squares is 0 although the centered data
    are not all zero, as for cells below about 1e-162: every cost and
    energy would read 0 and every reduced vector come out zero.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d data matrix, got ndim={X.ndim}")
    if X.shape[1] < 1:
        raise DimensionMismatch("need at least one data column")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        mean = X.mean(axis=1)
        centered = X - mean[:, None]
        flat = centered.ravel(order="K")  # a view in either memory order
        energy = float(np.dot(flat, flat))
    if not math.isfinite(energy):
        raise DataOverflow(f"the centered data's sum of squares is {energy}, not a finite number")
    if energy == 0.0 and flat.any():
        raise DataUnderflow(
            "the centered data's sum of squares underflows to 0, "
            "although the columns are not all equal"
        )
    return CenteredDataset(centered=centered, mean=mean, dim=X.shape[0], n=X.shape[1])


def per_node(values, spectrum: GraphSpectrum) -> np.ndarray:
    """``values`` as a float matrix, after checking it has one column per
    node: DimensionMismatch otherwise."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != spectrum.n:
        raise DimensionMismatch(
            f"expected {spectrum.n} columns for this graph, got shape {values.shape}"
        )
    return values


def gft(values, spectrum: GraphSpectrum) -> np.ndarray:
    """Graph Fourier transform of per-node columns (right-multiply by U)."""
    return per_node(values, spectrum) @ spectrum.eigvecs


def igft(values, spectrum: GraphSpectrum) -> np.ndarray:
    """Inverse transform; exact inverse of :func:`gft` up to roundoff."""
    return per_node(values, spectrum) @ spectrum.eigvecs.T


def eig_power_table(eigvals, order: int) -> np.ndarray:
    """Table of eigenvalue powers 0..order, built by the recurrence
    ``pows[:, l+1] = pows[:, l] * eigvals`` with the 0^0 = 1 convention."""
    if order < 0:
        raise ValueError(f"filter order must be >= 0, got {order}")
    eigvals = np.asarray(eigvals, dtype=np.float64)
    pows = np.empty((eigvals.shape[0], order + 1))
    pows[:, 0] = 1.0
    for ell in range(order):
        pows[:, ell + 1] = pows[:, ell] * eigvals
    if np.any(np.abs(pows) > _POWER_LIMIT):
        raise SpectralOverflow(
            f"|eigenvalue|^l exceeded {_POWER_LIMIT:g} at order {order}; "
            "scale the spectrum to unit radius, as build_graph does"
        )
    return pows


@dataclass(frozen=True)
class SpectralCache:
    """Everything the trainer needs, precomputed once per (data, graph, order).

    ``kernel`` is the n x n Gram matrix of the stacked per-frequency
    features described in the module docstring.
    """

    gft_data: np.ndarray    # (dim, n)
    eig_pows: np.ndarray    # (n, order+1)
    kernel: np.ndarray      # (n, n), symmetric positive semidefinite
    order: int

    @property
    def dim(self) -> int:
        return self.gft_data.shape[0]

    @property
    def n(self) -> int:
        return self.gft_data.shape[1]


def build_cache(xbar, spectrum: GraphSpectrum, order: int) -> SpectralCache:
    """Precompute the transformed data, power table, and feature kernel.

    The kernel is built in place as ``(Xt' Xt) * (P P')``, P the power
    table. ``P P'`` is made one band of ``_KERNEL_BLOCK_ROWS`` rows at a
    time, in one reused buffer, so no n x n temporary is made: the kernel
    and the transformed data are the only arrays of their size. ``Xt' Xt``
    and each band's diagonal block are Gram products, which come out
    exactly symmetric. The rest of a band is a general product, which may
    round an entry differently from its mirror in another band, so each
    band's part left of the diagonal is copied from the finished rows
    above it. The kernel is exactly symmetric and needs no averaging with
    its transpose.
    """
    xt = gft(xbar, spectrum)
    pows = eig_power_table(spectrum.eigvals, order)
    kernel = xt.T @ xt
    n = kernel.shape[0]
    buffer = np.empty((min(_KERNEL_BLOCK_ROWS, n), n))
    for lo in range(0, n, _KERNEL_BLOCK_ROWS):  # term-by-term geometric sums
        rows = pows[lo : lo + _KERNEL_BLOCK_ROWS]
        hi = lo + rows.shape[0]
        band = np.matmul(rows, pows.T, out=buffer[: hi - lo])
        band[:, lo:hi] = rows @ rows.T
        kernel[lo:hi] *= band
        kernel[lo:hi, :lo] = kernel[:lo, lo:hi].T
    return SpectralCache(gft_data=xt, eig_pows=pows, kernel=kernel, order=order)


def power_stack(vectors, eig_pows) -> np.ndarray:
    """The per-frequency columns of ``vectors`` weighted by each column of
    the power table, stacked: block l of the result is
    ``vectors * lam^l``.

    A filter bank ``[T_0 ... T_L]`` of order L is one matrix with L+1
    blocks of columns, and ``bank @ power_stack(vectors, eig_pows)``
    applies it to per-frequency ``vectors`` in one matrix product
    (:func:`apply_response` does so for vertex-domain vectors).
    """
    rows = vectors.shape[0]
    out = np.empty((eig_pows.shape[1] * rows, vectors.shape[1]))
    for ell in range(eig_pows.shape[1]):
        np.multiply(vectors, eig_pows[:, ell], out=out[ell * rows : (ell + 1) * rows])
    return out


def power_sum(stacked, eig_pows) -> np.ndarray:
    """Adjoint of :func:`power_stack`: ``sum_l lam^l * block_l`` over the
    stacked blocks of equal height, one block per column of the table."""
    blocks = stacked.reshape(eig_pows.shape[1], -1, stacked.shape[1])
    out = blocks[0] * eig_pows[:, 0]
    for ell in range(1, eig_pows.shape[1]):
        out += blocks[ell] * eig_pows[:, ell]
    return out


def apply_response(bank, eig_pows, vectors, spectrum: GraphSpectrum) -> np.ndarray:
    """Apply a filter bank to vertex-domain vectors; the result is in the
    vertex domain too.

    ``bank`` is ``[T_0 ... T_L]``, one rows_out x (L+1)rows_in matrix,
    and the power table has one column per tap. Frequency i of the result
    is ``(sum_l lam_i^l T_l)`` applied to frequency i of ``vectors``,
    that is ``igft(bank @ power_stack(gft(vectors)))``. The bank mixes
    rows and the transforms mix columns, so the bank can go last:
    ``bank @ igft(power_stack(gft(vectors)))``, where the transformed
    stack is the vertex-domain ``[V; V A; ...; V A^L]`` for the graph's
    adjacency A. The transforms then act on (L+1)rows_in rows, never on
    the bank's rows_out: for a reconstruction bank that is (L+1)k rows
    rather than dim, and no per-frequency matrix is formed.
    """
    return bank @ igft(power_stack(gft(vectors, spectrum), eig_pows), spectrum)


def reducing_taps(coeffs, gft_data, eig_pows) -> np.ndarray:
    """The reducing filter's taps on transformed data, stacked: the
    (L+1)k x dim matrix ``[H_0; ...; H_L]``, one k x dim tap per column
    of the power table.

    Order-l tap: ``H_l = coeffs @ diag(lam^l) @ gft_data'``. The power
    weights go on the coefficients, the side with fewer rows (a model's k
    is at most its dim), and all taps come out of one matrix product.
    """
    return power_stack(coeffs, eig_pows) @ gft_data.T


def reduce_response(coeffs, gft_data, eig_pows) -> np.ndarray:
    """The reducing filter that ``coeffs`` imply on ``gft_data``, applied
    to that data: column i is ``(sum_l lam_i^l H_l) @ gft_data[:, i]`` for
    the :func:`reducing_taps` H, which is ``coeffs`` times the feature
    kernel of that data at the table's order. The power weights are
    summed in after the product, on k-row blocks (:func:`power_sum`).

    The reducing filter has two associations, one per kind of caller,
    and no parameter selects between them. This one works on transformed
    data: :func:`~gfred.optimizer.extend_order` applies it to the cache's
    transformed data, which the trainer holds anyway, so it makes no
    transform. :func:`gfred.codec.reduce` takes vertex-domain data, which
    it would have to transform with a dim-row product by the n x n
    eigenvectors; it applies the same filter with the transforms on
    (L+1)k-row arrays instead. The two agree up to rounding.
    """
    return power_sum(reducing_taps(coeffs, gft_data, eig_pows) @ gft_data, eig_pows)
