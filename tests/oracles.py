"""Independent reference implementations used to verify the fast paths.

Everything here favors directness over speed: entrywise finite
differences, dense line scans, explicitly stacked feature matrices, and
per-row loops. Tests compare library outputs against these.
"""
from typing import NamedTuple

import numpy as np

from gfred.errors import DegenerateDirection, DimensionMismatch
from gfred.graph import GraphSpectrum, Kernel, SimilarityConfig, build_graph
from gfred.optimizer import (
    grad_coeffs,
    grad_taps,
    objective,
    step_size_coeffs,
    step_size_taps,
)
from gfred.spectral import CenteredDataset, SpectralCache, build_cache, center


def fd_grad_taps(cache, taps, coeffs, h=1e-6):
    """Central finite differences of the objective in every tap entry."""
    out = np.zeros_like(taps)
    for idx in np.ndindex(taps.shape):
        plus = taps.copy()
        plus[idx] += h
        minus = taps.copy()
        minus[idx] -= h
        out[idx] = (objective(cache, plus, coeffs) - objective(cache, minus, coeffs)) / (2 * h)
    return out


def fd_grad_coeffs(cache, taps, coeffs, h=1e-6):
    out = np.zeros_like(coeffs)
    for idx in np.ndindex(coeffs.shape):
        plus = coeffs.copy()
        plus[idx] += h
        minus = coeffs.copy()
        minus[idx] -= h
        out[idx] = (objective(cache, taps, plus) - objective(cache, taps, minus)) / (2 * h)
    return out


def scan_best_step(cache, taps, coeffs, direction, step, which, points=1001):
    """Argmin of the objective over an even grid on [0, 4*step]."""
    grid = np.linspace(0.0, 4.0 * step, points)
    if which == "taps":
        values = [objective(cache, taps - c * direction, coeffs) for c in grid]
    else:
        values = [objective(cache, taps, coeffs - c * direction) for c in grid]
    best = int(np.argmin(values))
    return grid[best], grid[1] - grid[0]


def descend_by_public_steps(cache, taps, coeffs, iters):
    """The training iteration spelled out with the public gradient and step
    functions on the full dim-row cache, recomputing the model output at
    every half-update. A nonpositive or degenerate step counts as 0.

    Returns the objective trace (start, then after every half-update) and
    the final (taps, coeffs) pair.
    """
    trace = [objective(cache, taps, coeffs)]
    for _ in range(iters):
        direction = grad_taps(cache, taps, coeffs)
        step = _clamped(step_size_taps, cache, taps, coeffs, direction)
        taps = taps - step * direction
        trace.append(objective(cache, taps, coeffs))
        direction = grad_coeffs(cache, taps, coeffs)
        step = _clamped(step_size_coeffs, cache, taps, coeffs, direction)
        coeffs = coeffs - step * direction
        trace.append(objective(cache, taps, coeffs))
    return np.asarray(trace), taps, coeffs


def _clamped(step_size, cache, taps, coeffs, direction):
    try:
        step = step_size(cache, taps, coeffs, direction)
    except DegenerateDirection:
        return 0.0
    return max(step, 0.0)


def stacked_kernel(gft_data, eigvals, order):
    """Gram matrix of explicitly stacked per-frequency feature vectors."""
    blocks = [gft_data * (eigvals**ell)[None, :] for ell in range(order + 1)]
    stacked = np.vstack(blocks)
    return stacked.T @ stacked


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


class Instance(NamedTuple):
    ds: CenteredDataset
    spectrum: GraphSpectrum
    cache: SpectralCache


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
