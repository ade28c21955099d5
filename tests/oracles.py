"""Independent reference implementations used to verify the fast paths.

Everything here favors directness over speed: entrywise finite
differences, dense line scans, explicitly stacked feature matrices, and
per-frequency and per-row loops. Tests compare library outputs against these;
nothing here calls the trainer's own cost, gradients or steps.
"""
from typing import NamedTuple

import numpy as np

from gfred.errors import DimensionMismatch
from gfred.graph import GraphSpectrum, Kernel, SimilarityConfig, build_graph
from gfred.spectral import (
    CenteredDataset,
    SpectralCache,
    build_cache,
    center,
    eig_power_table,
    power_stack,
    reduce_response,
)


def stacked_kernel(gft_data, eigvals, order):
    """Gram matrix of explicitly stacked per-frequency feature vectors."""
    blocks = [gft_data * (eigvals**ell)[None, :] for ell in range(order + 1)]
    stacked = np.vstack(blocks)
    return stacked.T @ stacked


# --- the training problem, one graph frequency at a time ---------------------
#
# The trainer's cost, both gradients and both exact steps, written from the
# model's definition in the graph's frequency domain: reduced vector i is
# column i of ``coeffs @ kernel`` for the stacked feature kernel, and its
# reconstruction is the tap bank's frequency response at lam_i applied to it.


class Reference(NamedTuple):
    xt: np.ndarray      # (dim, n) centered data in the graph's eigenbasis
    lam: np.ndarray     # (n,) graph eigenvalues
    order: int
    kernel: np.ndarray  # (n, n) stacked_kernel of xt at this order


def reference(ds, spectrum, order) -> Reference:
    """The problem a fit of ``ds`` over ``spectrum`` at ``order`` trains."""
    xt = ds.centered @ spectrum.eigvecs
    lam = np.asarray(spectrum.eigvals, dtype=np.float64)
    return Reference(xt, lam, order, stacked_kernel(xt, lam, order))


def _responses(ref, bank):
    """The bank's frequency response ``sum_l lam_i^l T_l`` at every lam_i."""
    stack = tap_stack(bank, ref.order + 1)
    return [spectral_response(stack, lam) for lam in ref.lam]


def _outputs(ref, bank, reduced):
    """Column i: the bank's response at lam_i applied to ``reduced[:, i]``."""
    return np.column_stack(
        [resp @ reduced[:, i] for i, resp in enumerate(_responses(ref, bank))]
    )


def _residual(ref, taps, coeffs):
    reduced = coeffs @ ref.kernel
    return ref.xt - _outputs(ref, taps, reduced), reduced


def objective(ref, taps, coeffs) -> float:
    """Mean over the n columns of the squared reconstruction residual."""
    resid, _ = _residual(ref, taps, coeffs)
    return float(np.sum(resid**2)) / resid.shape[1]


def grad_taps(ref, taps, coeffs) -> np.ndarray:
    """Order-l block: ``-2/n * sum_i lam_i^l resid_i reduced_i'``."""
    resid, reduced = _residual(ref, taps, coeffs)
    n = resid.shape[1]
    blocks = [
        sum(lam**ell * np.outer(resid[:, i], reduced[:, i]) for i, lam in enumerate(ref.lam))
        for ell in range(ref.order + 1)
    ]
    return (-2.0 / n) * np.concatenate(blocks, axis=1)


def grad_coeffs(ref, taps, coeffs) -> np.ndarray:
    """Reduced vector i pulls with ``-2/n * R_i' resid_i`` for the response
    R_i at lam_i; each coefficient reaches every column through the kernel."""
    resid, _ = _residual(ref, taps, coeffs)
    n = resid.shape[1]
    pull = np.column_stack(
        [resp.T @ resid[:, i] for i, resp in enumerate(_responses(ref, taps))]
    )
    return (-2.0 / n) * (pull @ ref.kernel)


def _line_step(resid, moved) -> float:
    """Minimizer of ``sum_i |resid_i + c moved_i|^2`` over c, or 0.0 when the
    mean energy of ``moved`` is below 1e-300 and the cost does not move."""
    n = resid.shape[1]
    if not float(np.sum(moved**2)) / n > 1e-300:
        return 0.0
    return -float(np.sum(resid * moved)) / float(np.sum(moved**2))


def step_taps(ref, taps, coeffs, direction) -> float:
    """Exact minimizer of the cost along ``taps - c * direction``."""
    resid, reduced = _residual(ref, taps, coeffs)
    return _line_step(resid, _outputs(ref, direction, reduced))


def step_coeffs(ref, taps, coeffs, direction) -> float:
    """Exact minimizer of the cost along ``coeffs - c * direction``."""
    resid, _ = _residual(ref, taps, coeffs)
    return _line_step(resid, _outputs(ref, taps, direction @ ref.kernel))


def fd_grad_taps(ref, taps, coeffs, h=1e-6):
    """Central finite differences of the objective in every tap entry."""
    out = np.zeros_like(taps)
    for idx in np.ndindex(taps.shape):
        plus = taps.copy()
        plus[idx] += h
        minus = taps.copy()
        minus[idx] -= h
        out[idx] = (objective(ref, plus, coeffs) - objective(ref, minus, coeffs)) / (2 * h)
    return out


def fd_grad_coeffs(ref, taps, coeffs, h=1e-6):
    out = np.zeros_like(coeffs)
    for idx in np.ndindex(coeffs.shape):
        plus = coeffs.copy()
        plus[idx] += h
        minus = coeffs.copy()
        minus[idx] -= h
        out[idx] = (objective(ref, taps, plus) - objective(ref, taps, minus)) / (2 * h)
    return out


def scan_best_step(ref, taps, coeffs, direction, step, which, points=1001):
    """Argmin of the objective over an even grid on [0, 4*step]."""
    grid = np.linspace(0.0, 4.0 * step, points)
    if which == "taps":
        values = [objective(ref, taps - c * direction, coeffs) for c in grid]
    else:
        values = [objective(ref, taps, coeffs - c * direction) for c in grid]
    best = int(np.argmin(values))
    return grid[best], grid[1] - grid[0]


def descend(ref, taps, coeffs, iters):
    """The training iteration from the reference's gradients and steps: a
    tap step, then a coefficient step at the fresh taps, each clamped at 0.

    Returns the objective trace (start, then after every half-update) and
    the final (taps, coeffs) pair.
    """
    trace = [objective(ref, taps, coeffs)]
    for _ in range(iters):
        direction = grad_taps(ref, taps, coeffs)
        taps = taps - max(step_taps(ref, taps, coeffs, direction), 0.0) * direction
        trace.append(objective(ref, taps, coeffs))
        direction = grad_coeffs(ref, taps, coeffs)
        coeffs = coeffs - max(step_coeffs(ref, taps, coeffs, direction), 0.0) * direction
        trace.append(objective(ref, taps, coeffs))
    return np.asarray(trace), taps, coeffs


def brute_knn_marks(sim, knn):
    """Row-by-row neighbor marking: value descending, ties by lower index."""
    n = sim.shape[0]
    marks = np.zeros((n, n), dtype=bool)
    for i in range(n):
        candidates = [j for j in range(n) if j != i]
        candidates.sort(key=lambda j: (-sim[i, j], j))
        for j in candidates[:knn]:
            marks[i, j] = True
    return marks


def loop_canonical_signs(vectors):
    """Column by column: negate a column whose first largest-magnitude
    entry is negative."""
    out = np.array(vectors, dtype=np.float64, copy=True)
    for j in range(out.shape[1]):
        lead = max(range(out.shape[0]), key=lambda i: (abs(out[i, j]), -i))
        if out[lead, j] < 0.0:
            out[:, j] = -out[:, j]
    return out


def dense_eigendecompose(adjacency):
    """The whole matrix in one dense solve: ``eigh``, a stable descending
    sort of the eigenvalues, and the canonical signs column by column.
    Returns ``(eigvals, eigvecs)``."""
    vals, vecs = np.linalg.eigh(np.asarray(adjacency, dtype=np.float64))
    order = np.argsort(-vals, kind="stable")
    return vals[order], loop_canonical_signs(vecs[:, order])


class Instance(NamedTuple):
    ds: CenteredDataset
    spectrum: GraphSpectrum
    cache: SpectralCache

    @property
    def ref(self) -> Reference:
        """The reference of the problem at the cache's order."""
        return reference(self.ds, self.spectrum, self.cache.order)


def random_instance(rng, n, dim, order, knn=None, scale=1.0) -> Instance:
    """Random data plus the graph and cache the trainer would build on it."""
    X = rng.normal(size=(dim, n)) * scale
    cfg = SimilarityConfig(
        kernel=Kernel.GAUSSIAN,
        alpha=1.0 / dim,
        knn=knn if knn is not None else max(1, min(3, n - 1)),
    )
    spectrum = build_graph(X, cfg)
    ds = center(X)
    cache = build_cache(ds.centered, spectrum, order)
    return Instance(ds, spectrum, cache)


def random_filters(rng, cache, k, scale=0.4):
    """A random dim x (order+1)k tap bank and k x n coefficients."""
    taps = np.concatenate(rng.normal(size=(cache.order + 1, cache.dim, k)) * scale, axis=1)
    coeffs = rng.normal(size=(k, cache.n)) * scale
    return taps, coeffs


def tap_stack(bank, orders) -> np.ndarray:
    """The (orders, rows, cols) stack of a bank's equal column blocks
    ``[T_0 ... T_L]``, the layout the Kronecker oracles read."""
    return np.stack(np.split(np.asarray(bank), orders, axis=1))


def spectral_response(taps, lam: float) -> np.ndarray:
    """Frequency response ``sum_l lam^l taps[l]`` of a tap stack at one
    eigenvalue, with 0^0 = 1 so the order-0 term always passes through."""
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim != 3:
        raise DimensionMismatch(f"expected a (order+1, rows, cols) tap stack, got {taps.shape}")
    out = taps[0].copy()
    power = 1.0
    for ell in range(1, taps.shape[0]):
        power *= lam
        out += power * taps[ell]
    return out


def kron_reduce(adjacency, taps, xbar) -> np.ndarray:
    """Vertex-domain reducing filter bank, evaluated literally.

    Builds ``sum_l (S^l kron I_k)(I_n kron taps[l])`` as dense matrices and
    applies it to the column-stacked data. Test oracle only; cost grows as
    (nk)(n dim) per order.
    """
    S = np.asarray(adjacency, dtype=np.float64)
    xbar = np.asarray(xbar, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    n = S.shape[0]
    k = taps.shape[1]
    if taps.shape[2] != xbar.shape[0] or xbar.shape[1] != n:
        raise DimensionMismatch(
            f"taps {taps.shape} / data {xbar.shape} / graph n={n} do not line up"
        )
    stacked = xbar.flatten(order="F")
    out = np.zeros(n * k)
    eye_k = np.eye(k)
    eye_n = np.eye(n)
    for ell in range(taps.shape[0]):
        mixer = np.kron(np.linalg.matrix_power(S, ell), eye_k)
        per_node = np.kron(eye_n, taps[ell])
        out += mixer @ (per_node @ stacked)
    return out.reshape((k, n), order="F")


def kron_reconstruct(adjacency, taps, reduced_values) -> np.ndarray:
    """Vertex-domain reconstruction filter bank, evaluated literally.

    Mirror image of :func:`kron_reduce` with dim x k taps; returns centered
    reconstructions (no mean added). Test oracle only.
    """
    S = np.asarray(adjacency, dtype=np.float64)
    values = np.asarray(reduced_values, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    n = S.shape[0]
    dim = taps.shape[1]
    if taps.shape[2] != values.shape[0] or values.shape[1] != n:
        raise DimensionMismatch(
            f"taps {taps.shape} / reduced {values.shape} / graph n={n} do not line up"
        )
    stacked = values.flatten(order="F")
    out = np.zeros(n * dim)
    eye_d = np.eye(dim)
    eye_n = np.eye(n)
    for ell in range(taps.shape[0]):
        mixer = np.kron(np.linalg.matrix_power(S, ell), eye_d)
        per_node = np.kron(eye_n, taps[ell])
        out += mixer @ (per_node @ stacked)
    return out.reshape((dim, n), order="F")


# --- the codec's filters with the transforms on the data side ----------------
#
# The codec transforms only k-row and (L+1)k-row arrays. These apply the same
# two filters in the other association, per frequency on the transformed
# dim x n data or reconstruction, with explicit products by the eigenvectors.


def spectral_reduce(coeffs, xbar, spectrum, order) -> np.ndarray:
    """``reduce_response`` on the transformed data ``xbar U``, transformed
    back to the vertex domain: ``igft(reduce_response(coeffs, gft(xbar)))``."""
    eigvecs = spectrum.eigvecs
    pows = eig_power_table(spectrum.eigvals, order)
    return reduce_response(coeffs, xbar @ eigvecs, pows) @ eigvecs.T


def spectral_reconstruct(bank, reduced_values, spectrum, order) -> np.ndarray:
    """The bank applied per frequency to the transformed reduced data, and
    its dim x n output transformed back: ``igft(bank @ power_stack(gft(V)))``,
    centred (no mean added)."""
    eigvecs = spectrum.eigvecs
    pows = eig_power_table(spectrum.eigvals, order)
    return (bank @ power_stack(reduced_values @ eigvecs, pows)) @ eigvecs.T


def csv_bytes(matrix) -> bytes:
    """A CSV matrix file's bytes, built whole: each row's shortest
    round-trip floats joined by commas, rows joined by newlines, and one
    final newline."""
    matrix = np.asarray(matrix, dtype=np.float64)
    body = "\n".join(",".join(map(repr, row.tolist())) for row in matrix)
    return (body + "\n").encode("utf-8")


def csv_floats(text: str) -> np.ndarray:
    """``float()`` of every cell of a CSV text's non-blank lines, row by row."""
    lines = [line for line in text.split("\n") if line.strip() != ""]
    return np.array([list(map(float, line.split(","))) for line in lines], dtype=np.float64)


def planted(spectrum, dim, k, order, sigma, seed):
    """Data that an order-``order`` filter pair of width ``k`` on
    ``spectrum`` reproduces exactly, and a noisy copy of them.

    From ``np.random.default_rng(seed)`` draws the taps T_0 ... T_L
    (dim x k each) and the spectral scores Z (k x n) as N(0, 1), then the
    noise. The clean data are ``(sum_l T_l Z diag(lam^l)) U'``, centred;
    the noisy data add Gaussian noise of std ``sigma * clean.std()``.
    Returns ``(clean, noisy)``, both dim x n.
    """
    rng = np.random.default_rng(seed)
    taps = [rng.standard_normal((dim, k)) for _ in range(order + 1)]
    scores = rng.standard_normal((k, spectrum.n))
    lam = np.asarray(spectrum.eigvals, dtype=np.float64)
    clean = sum((tap @ scores) * lam**ell for ell, tap in enumerate(taps)) @ spectrum.eigvecs.T
    clean -= clean.mean(axis=1, keepdims=True)
    noisy = clean + sigma * clean.std() * rng.standard_normal(clean.shape)
    return clean, noisy
