"""Similarity graphs over data columns and their spectra.

A data matrix with one observation per column is turned into a dense
symmetric similarity matrix (cosine or Gaussian kernel), sparsified by
keeping the strongest neighbors of every node, and eigendecomposed. The
eigenvector matrix of the symmetric adjacency is the Fourier basis used by
every other module, so this module pins down the conventions the rest of
the package relies on: eigenvalues sorted in descending order, and each
eigenvector scaled so that its largest-magnitude entry is nonnegative.
The adjacency is block-diagonal up to a node permutation, one block per
connected component, so :func:`eigendecompose` solves each component on
its own: a tie in eigenvalue between components goes to the component
with the smaller lowest node, and each eigenvector is exactly zero off
its component.
:func:`build_graph` also scales the graph to unit spectral radius. A
polynomial of order L in A/rho is a polynomial of order L in A, so the
filter family does not change; the eigenvalue powers stay within [-1, 1]
for any order, and the trainer's feature kernel is better conditioned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DataOverflow,
    DataUnderflow,
    DimensionMismatch,
    KnnTooLarge,
    ZeroColumn,
    solver_failure,
)


class Kernel(Enum):
    COSINE = "cosine"
    GAUSSIAN = "gaussian"


class Symmetrization(Enum):
    """How directed nearest-neighbor marks become undirected edges."""

    UNION = "union"
    MUTUAL = "mutual"


@dataclass(frozen=True)
class SimilarityConfig:
    """Settings for graph construction.

    ``alpha`` is the Gaussian width and participates only when
    ``kernel = GAUSSIAN``. ``knn`` counts neighbors marked per row, checked
    against n - 1 once the data size is known. The scale of the graph is
    not a setting: :func:`build_graph` always returns it at unit spectral
    radius.
    """

    kernel: Kernel = Kernel.COSINE
    alpha: float = 0.01
    knn: int = 12
    symmetrization: Symmetrization = Symmetrization.UNION

    def __post_init__(self):
        if not isinstance(self.knn, int) or self.knn < 1:
            raise KnnTooLarge(f"knn must be a positive integer, got {self.knn!r}")
        # an infinite width zeroes every similarity: the graph has no edges
        if self.kernel is Kernel.GAUSSIAN and not 0 < self.alpha < math.inf:
            raise ValueError(
                f"alpha must be a finite number > 0 for the gaussian kernel, got {self.alpha}"
            )


@dataclass(frozen=True)
class GraphSpectrum:
    """Full eigendecomposition of a symmetric adjacency. ``adjacency`` is
    ``None`` on a spectrum from :func:`eigendecompose` or a model file,
    which hold eigenpairs only; :func:`build_graph` attaches the one
    scaled adjacency it built.

    The arrays are held as read-only views, so no holder of a spectrum can
    edit the graph that another holder shares.
    """

    eigvals: np.ndarray    # (n,), descending
    eigvecs: np.ndarray    # (n, n), orthonormal columns, canonical signs
    adjacency: np.ndarray | None = None  # (n, n), exactly symmetric

    def __post_init__(self):
        for name in ("eigvals", "eigvecs", "adjacency"):
            value = getattr(self, name)
            if value is not None:
                view = np.asarray(value, dtype=np.float64).view()
                view.flags.writeable = False
                object.__setattr__(self, name, view)

    @property
    def n(self) -> int:
        return self.eigvals.shape[0]


def _as_data_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d data matrix, got ndim={X.ndim}")
    if X.shape[1] < 2:
        raise DimensionMismatch(f"need at least 2 data columns, got {X.shape[1]}")
    return X


def similarity_dense(X, cfg: SimilarityConfig) -> np.ndarray:
    """Dense pairwise similarity of the columns of ``X``.

    Cosine entries are inner products of unit-normalized columns, clipped
    into [-1, 1]; the Gaussian kernel is exp(-alpha/2 * squared distance).
    Both kernels start from each column's sum of squares, computed once.
    DataOverflow is raised when one of them is not finite, as it is for
    cells of order 1e155 or a constant offset that large: the kernel would
    come out all zeros or NaN. The Gaussian kernel also raises it when two
    finite sums of squares add past the largest double, so that a squared
    distance is not finite. DataUnderflow is raised when a column that is
    not zero has a sum of squares of 0, as a column of cells below about
    1e-162 has; the cosine kernel raises ZeroColumn for a column of exact
    zeros. The Gaussian kernel raises ValueError when ``alpha`` is so
    large that every off-diagonal similarity underflows to 0. The result
    has a zero diagonal and is exactly symmetric, as the product of a
    matrix with its own transpose is.
    """
    X = _as_data_matrix(X)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        sq = np.sum(X * X, axis=0)
    bad = np.flatnonzero(~np.isfinite(sq))
    if bad.size:
        raise DataOverflow(f"column {bad[0]}'s sum of squares is {sq[bad[0]]}, not a finite number")
    zero = np.flatnonzero(sq == 0.0)
    tiny = zero[np.any(X[:, zero] != 0.0, axis=0)]  # cells below about 1e-162 square to 0
    if tiny.size:
        raise DataUnderflow(
            f"column {tiny[0]}'s sum of squares underflows to 0, although the column is not zero"
        )
    if cfg.kernel is Kernel.COSINE:
        if zero.size:
            raise ZeroColumn(f"column {zero[0]} has zero norm, cosine undefined")
        unit = X / np.sqrt(sq)
        sim = unit.T @ unit
        np.clip(sim, -1.0, 1.0, out=sim)
    else:
        # a C-ordered matrix times its own transpose is one mirrored
        # triangle; a strided or reversed view may take a general product
        X = np.ascontiguousarray(X)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
            d2 = sq[:, None] + sq[None, :] - 2.0 * (X.T @ X)
        if not np.isfinite(d2).all():
            raise DataOverflow("squared distances between columns are not finite numbers")
        np.maximum(d2, 0.0, out=d2)
        with np.errstate(over="ignore"):  # a product past the largest double: exp gives 0
            sim = np.exp(-0.5 * cfg.alpha * d2)
    np.fill_diagonal(sim, 0.0)
    if cfg.kernel is Kernel.GAUSSIAN and not sim.any():
        raise ValueError(
            f"alpha={cfg.alpha} underflows every gaussian similarity to 0, "
            "so the graph has no edges; use a smaller alpha"
        )
    return sim


def knn_sparsify(sim, cfg: SimilarityConfig) -> np.ndarray:
    """Keep each node's strongest neighbors, drop everything else.

    Every row marks its ``cfg.knn`` largest off-diagonal entries, ties going
    to the lower column index. The marks come from selection, not a sort:
    an in-place partition finds the row's knn-th largest off-diagonal
    value, every entry above it is marked, and entries equal to it are
    marked in ascending column order until the row has ``cfg.knn``. Union
    symmetrization keeps an entry marked by either endpoint, mutual keeps
    it only when both endpoints marked it. Kept entries retain their
    original values; :func:`build_graph` scales them afterwards.
    """
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise DimensionMismatch(f"similarity matrix must be square, got {sim.shape}")
    if not np.array_equal(sim, sim.T):
        raise ValueError("similarity matrix must be symmetric")
    n, knn = sim.shape[0], cfg.knn
    if knn > n - 1:
        raise KnnTooLarge(f"knn={knn} but only {n - 1} neighbors exist")
    ranked = sim.copy()
    np.fill_diagonal(ranked, -np.inf)
    ranked.partition(n - knn, axis=1)
    cut = ranked[:, n - knn, None].copy()  # each row's knn-th largest off-diagonal value
    del ranked
    marked = sim > cut
    tied = sim == cut
    np.fill_diagonal(marked, False)
    np.fill_diagonal(tied, False)
    wanted = knn - np.count_nonzero(marked, axis=1)  # >= 1: the cut itself is needed
    crowded = np.flatnonzero(np.count_nonzero(tied, axis=1) > wanted)
    if crowded.size:
        # more ties than places: the lowest columns win
        tied[crowded] &= np.cumsum(tied[crowded], axis=1) <= wanted[crowded, None]
    marked |= tied
    if cfg.symmetrization is Symmetrization.UNION:
        keep = marked | marked.T
    else:
        keep = marked & marked.T
    return np.where(keep, sim, 0.0)


def _orient(vectors: np.ndarray) -> np.ndarray:
    """:func:`canonical_signs` in place on a float64 array; returns it."""
    lead = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0.0
    np.negative(vectors, out=vectors, where=flip)
    return vectors


def canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is >= 0.

    Ties in magnitude resolve to the lowest row index (argmax semantics),
    which makes the orientation deterministic. Returns a new array.
    """
    return _orient(np.array(vectors, dtype=np.float64, copy=True))


def connected_components(adjacency) -> list[np.ndarray]:
    """Node sets of the connected components of the pattern ``adjacency != 0``.

    Each set is in ascending order, and the sets are ordered by their
    smallest node. A frontier search labels one component at a time: the
    next frontier is every unlabeled node that a row of the current one
    reaches. Self-loops do not connect anything.
    """
    linked = np.asarray(adjacency) != 0
    n = linked.shape[0]
    labelled = np.zeros(n, dtype=bool)
    components = []
    for seed in range(n):
        if labelled[seed]:
            continue
        labelled[seed] = True
        members, frontier = [np.array([seed])], np.array([seed])
        while frontier.size:
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & ~labelled)
            labelled[frontier] = True
            members.append(frontier)
        components.append(np.sort(np.concatenate(members)))
    return components


def eigendecompose(adjacency) -> GraphSpectrum:
    """Full eigendecomposition of a symmetric adjacency matrix.

    The matrix is block-diagonal up to a node permutation, one block per
    connected component, and its spectrum is the union of the blocks'
    spectra; so each component's block is solved on its own, with its
    nodes in ascending order, and oriented there. Eigenvalues come out in
    descending order, stable on ties: within a component by the solver's
    order, between components by component order (that of their smallest
    nodes). Eigenvectors are in the canonical sign orientation, and every
    entry off an eigenvector's component is an exact zero. A connected
    graph gives the arrays of one dense solve of the whole matrix, and
    repeated runs on the same matrix give identical spectra. The
    eigenvector matrix is column-major (F-contiguous), the order in which
    the model file stores it, so :func:`~gfred.codec.save_model` writes it
    without a copy. The spectrum holds the eigenpairs only
    (``adjacency`` is None): the caller keeps the matrix it passed in.
    A failed solve raises ConvergenceFailure.
    """
    S = np.asarray(adjacency, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"adjacency must be square, got {S.shape}")
    if not np.array_equal(S, S.T):
        raise ValueError("adjacency must be exactly symmetric")
    components = connected_components(S)
    vals, blocks, start = np.empty(S.shape[0]), [], 0
    with solver_failure("symmetric eigensolver"):
        for nodes in components:
            vals[start:start + nodes.size], vecs = np.linalg.eigh(S[np.ix_(nodes, nodes)])
            # rows keep their order, so the argmax tie rule picks the same entry
            blocks.append(_orient(vecs))
            start += nodes.size
    order = np.argsort(-vals, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)  # where each solved column lands
    eigvecs = np.zeros(S.shape, order="F")  # the model file's order
    start = 0
    for nodes, vecs in zip(components, blocks):
        eigvecs[np.ix_(nodes, position[start:start + nodes.size])] = vecs
        start += nodes.size
    return GraphSpectrum(eigvals=vals[order], eigvecs=eigvecs)


def build_graph(X, cfg: SimilarityConfig) -> GraphSpectrum:
    """similarity_dense -> knn_sparsify -> eigendecompose, in one call.

    The kNN matrix is the one adjacency: it is divided in place, and the
    eigenvalues with it, by the spectral radius taken from the one
    eigendecomposition, so the largest eigenvalue magnitude is exactly 1;
    the eigenvectors do not change. A graph with no edges has radius 0
    and is divided by 1, which leaves it as it is. The returned spectrum
    holds the scaled adjacency. The data is dropped once the similarity
    matrix is built, so a caller that holds no other reference to it
    (``gfred graph``) does not keep it through the n x n stages.
    """
    sim = similarity_dense(X, cfg)
    del X
    adjacency = knn_sparsify(sim, cfg)
    del sim
    spectrum = eigendecompose(adjacency)
    radius = max(abs(float(spectrum.eigvals[0])), abs(float(spectrum.eigvals[-1]))) or 1.0
    adjacency /= radius
    return GraphSpectrum(spectrum.eigvals / radius, spectrum.eigvecs, adjacency)
