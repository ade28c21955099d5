"""Filter training by alternating exact-line-search gradient descent.

The model is a pair: a stack of reconstruction taps (one dim x k matrix
per polynomial order) and a k x n coefficient matrix that parameterizes
the reducing filter through the cached feature kernel. Node i's reduced
vector is ``coeffs @ kernel[:, i]`` and its reconstruction is the tap
stack's frequency response at eigenvalue i applied to that vector. The
training cost is the mean squared spectral-domain residual.

Each iteration takes the exact gradient with respect to the tap stack,
moves to the minimizer of the cost along that ray (the restriction is an
exact quadratic in the step, so the minimizer is
``-<resid, moved> / <moved, moved>``, with ``moved`` the ray's filtered
output), then takes the coefficient gradient at the fresh taps and does
the same along the coefficient ray. Both half-updates therefore never
increase the cost. Iteration stops when the summed Frobenius norm of the
two updates drops below ``epsilon`` or after ``max_iters`` sweeps.

:func:`fit` carries the reduced vectors and the residual from step to
step: a step of size c along a ray adds ``c * moved`` to the residual,
and each trace entry is the carried residual's mean squared norm. An
iteration thus costs three :func:`~gfred.spectral.apply_response` calls
(the two rays' filtered outputs and the coefficient gradient's back
projection) and two n x n kernel products. The public gradient, step and
objective functions compute the same formulas from a bare (taps, coeffs)
pair, after checking its shapes.

:func:`fit`'s loop runs on min(dim, n) rows. On tall data (dim > n) it
takes the thin QR factorization ``Xt = Q R`` of the transformed data;
the n orthonormal columns of ``Q`` span a space that holds every data
column. Every tap gradient is a sum of residual x reduced-vector
products, and the residual is the data minus the taps' output, so taps
that start in that space never leave it (the representer-theorem argument
behind the coefficient parameterization). When the start lies there, as
the PCA seed (k up to the data's rank) and every model :func:`fit`
trained on the same data do, the loop trains the coordinates ``Q' taps``
against ``R`` in place of ``Xt`` and maps the result back with ``Q``.
This is the same iteration, not an approximation: ``R' R = Xt' Xt``
leaves the kernel unchanged and ``Q`` keeps every inner product and norm,
so each cost, step, update size and stopping decision is the one the
dim-row loop computes, up to rounding. A start with taps outside that
space trains on all dim rows.

:func:`fit` builds the cache for the order it trains. It starts from the
PCA seed of :func:`init_filters` or, given a model trained on the same
graph with the same k and an order no higher, from :func:`extend_order`
of that model: an order-L bank contains the banks below it with their
higher taps at zero.

Nonpositive optimal steps are clamped to zero (the stopping test then
sees a zero update), and a direction whose filtered energy is below
1e-300 raises DegenerateDirection, which the driver treats the same way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDirection, DimensionMismatch, FingerprintMismatch, NonFiniteValue
from .graph import GraphSpectrum
from .pca import pca_fit
from .spectral import CenteredDataset, SpectralCache, apply_response, build_cache, reducing_taps

MAX_ITERS = 500  # default iteration cap of a fit, a sweep and `gfred fit`

_ENERGY_FLOOR = 1e-300
_INIT_RIDGE = 1e-10
_SPAN_TOL = 1e-12  # start taps this close to the data's span, relatively, lie in it


@dataclass(frozen=True)
class FilterModel:
    """Trained reducing/reconstruction filter pair."""

    order: int
    k: int
    recon_taps: np.ndarray  # (order+1, dim, k)
    coeffs: np.ndarray      # (k, n)
    mean: np.ndarray        # (dim,)
    spectrum_fingerprint: str

    @property
    def dim(self) -> int:
        return self.recon_taps.shape[1]

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]


@dataclass(frozen=True)
class FitResult:
    model: FilterModel
    objective_trace: np.ndarray  # value at start, then after every half-update
    iterations: int
    converged: bool


def _checked(cache: SpectralCache, taps, coeffs):
    """The pair as float arrays, after checking it fits the cache."""
    taps = np.asarray(taps, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if taps.ndim != 3 or taps.shape[0] != cache.order + 1 or taps.shape[1] != cache.dim:
        raise DimensionMismatch(
            f"tap stack {taps.shape} does not fit order {cache.order}, dim {cache.dim}"
        )
    if coeffs.ndim != 2 or coeffs.shape[1] != cache.n or coeffs.shape[0] != taps.shape[2]:
        raise DimensionMismatch(
            f"coefficients {coeffs.shape} do not fit k={taps.shape[2]}, n={cache.n}"
        )
    return taps, coeffs


def _residual(cache: SpectralCache, taps, reduced) -> np.ndarray:
    return cache.gft_data - apply_response(taps, cache.eig_pows, reduced)


def _cost(cache: SpectralCache, resid) -> float:
    return float(np.vdot(resid, resid)) / cache.n


def _tap_gradient(cache: SpectralCache, reduced, resid) -> np.ndarray:
    out = np.empty((cache.order + 1, cache.dim, reduced.shape[0]))
    for ell in range(cache.order + 1):
        out[ell] = (resid * cache.eig_pows[:, ell]) @ reduced.T
    out *= -2.0 / cache.n
    return out


def _coeff_gradient(cache: SpectralCache, taps, resid) -> np.ndarray:
    back = apply_response(taps.transpose(0, 2, 1), cache.eig_pows, resid)
    return (-2.0 / cache.n) * (back @ cache.kernel)


def _line_step(cache: SpectralCache, resid, moved) -> float:
    """Exact minimizer of the cost along a ray whose filtered output moves
    the prediction by ``-c * moved``."""
    quad = float(np.vdot(moved, moved)) / cache.n
    if not quad > _ENERGY_FLOOR:
        raise DegenerateDirection(f"filtered direction energy {quad:.3e} is numerically zero")
    return -(float(np.vdot(resid, moved)) / cache.n) / quad


def objective(cache: SpectralCache, taps, coeffs) -> float:
    """Mean squared spectral-domain reconstruction error."""
    taps, coeffs = _checked(cache, taps, coeffs)
    return _cost(cache, _residual(cache, taps, coeffs @ cache.kernel))


def grad_taps(cache: SpectralCache, taps, coeffs) -> np.ndarray:
    """Exact gradient of :func:`objective` with respect to the tap stack.

    Order-l slice: ``-2/n * sum_i lam_i^l resid_i reduced_i'``, accumulated
    as one matrix product per order.
    """
    taps, coeffs = _checked(cache, taps, coeffs)
    reduced = coeffs @ cache.kernel
    return _tap_gradient(cache, reduced, _residual(cache, taps, reduced))


def grad_coeffs(cache: SpectralCache, taps, coeffs) -> np.ndarray:
    """Exact gradient of :func:`objective` with respect to the coefficients.

    ``-2/n * (sum_l taps[l]' (resid * lam^l)) @ kernel``; the driver calls
    this at the already-updated tap stack.
    """
    taps, coeffs = _checked(cache, taps, coeffs)
    return _coeff_gradient(cache, taps, _residual(cache, taps, coeffs @ cache.kernel))


def step_size_taps(cache: SpectralCache, taps, coeffs, direction) -> float:
    """Exact minimizer of the cost along ``taps - c * direction``.

    The restriction is quadratic in ``c``; with p_i the direction's
    response applied to node i's reduced vector, the minimizer is
    ``(<predicted, p> - <data, p>) / <p, p>`` (each contraction averaged
    over nodes). Raises DegenerateDirection when the quadratic term is
    numerically zero.
    """
    taps, coeffs = _checked(cache, taps, coeffs)
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != taps.shape:
        raise DimensionMismatch(f"direction {direction.shape} does not match taps {taps.shape}")
    reduced = coeffs @ cache.kernel
    moved = apply_response(direction, cache.eig_pows, reduced)
    return _line_step(cache, _residual(cache, taps, reduced), moved)


def step_size_coeffs(cache: SpectralCache, taps, coeffs, direction) -> float:
    """Exact minimizer of the cost along ``coeffs - c * direction``."""
    taps, coeffs = _checked(cache, taps, coeffs)
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != coeffs.shape:
        raise DimensionMismatch(
            f"direction {direction.shape} does not match coefficients {coeffs.shape}"
        )
    moved = apply_response(taps, cache.eig_pows, direction @ cache.kernel)
    return _line_step(cache, _residual(cache, taps, coeffs @ cache.kernel), moved)


def init_filters(ds: CenteredDataset, cache: SpectralCache, k: int):
    """PCA-seeded starting point.

    Tap 0 is the top-k PCA basis, higher taps are zero. Coefficients solve
    a ridge-regularized least squares against the training kernel, so the
    start reproduces PCA scores whatever the kernel's order or eigenvalue
    scale (at order 0 the kernel is the spectral data Gram and the start
    ties PCA exactly). The ridge weight is 1e-10 times the kernel's mean
    diagonal, so rank-deficient data still yields a finite start.
    """
    model = pca_fit(ds, k)
    taps = np.zeros((cache.order + 1, ds.dim, k))
    taps[0] = model.basis
    xt = cache.gft_data
    # the reducing filter acts through cache.kernel, not the raw data
    # Gram; solving against anything else gives wildly off-scale starts
    # once eigenvalue powers enter at order >= 1
    trace = float(np.trace(cache.kernel))
    if trace == 0.0:
        return taps, np.zeros((k, cache.n))
    ridge = _INIT_RIDGE * trace / cache.n
    coeffs = np.linalg.solve(
        cache.kernel + ridge * np.eye(cache.n), xt.T @ model.basis
    ).T
    return taps, coeffs


def _clamped_step(cache, resid, moved) -> float:
    # a zero direction has zero filtered energy and lands in the except
    try:
        step = _line_step(cache, resid, moved)
    except DegenerateDirection:
        return 0.0
    # nonpositive optimal step means no descent along this ray; stand still
    return step if step > 0.0 else 0.0


def fit(
    ds: CenteredDataset,
    spectrum: GraphSpectrum,
    k: int,
    order: int,
    *,
    epsilon: float | None = None,
    max_iters: int = MAX_ITERS,
    start: FilterModel | None = None,
) -> FitResult:
    """Train a filter pair by alternating exact-line-search descent.

    ``epsilon`` defaults to 1e-6 times the summed Frobenius norms of the
    starting point. ``start`` may be a model trained on the same graph,
    with the same ``k`` and an order no higher than ``order``; the run
    resumes from
    :func:`extend_order` of it, which keeps its reduced vectors. Otherwise
    :func:`init_filters` seeds the run. ``max_iters=0`` returns the
    starting point untouched. ``epsilon`` must be a finite number > 0.

    The descent runs on min(dim, n) rows: on tall data (dim > n) with a
    start in the span of the data's columns it trains the taps'
    coordinates in an orthonormal basis of that span, which computes the
    same iterates (see the module docstring). The start and the returned
    model live in the data's own dim rows either way.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    cache = build_cache(ds.centered, spectrum, order)
    fingerprint = spectrum.fingerprint()
    if start is None:
        taps, coeffs = init_filters(ds, cache, k)
    else:
        if start.k != k:
            raise DimensionMismatch(f"start model has k={start.k}, expected k={k}")
        taps, coeffs = extend_order(start, cache)
        if start.spectrum_fingerprint != fingerprint:
            raise FingerprintMismatch("start model was trained on a different graph spectrum")
    if epsilon is None:
        epsilon = 1e-6 * (float(np.linalg.norm(taps)) + float(np.linalg.norm(coeffs)))
    elif not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be a finite number > 0, got {epsilon}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")

    # taps that start in the span of Q, for Xt = QR, stay there (module
    # docstring): on tall data train their coordinates against R
    given_taps, basis = taps, None
    if cache.dim > cache.n:
        q, r = np.linalg.qr(cache.gft_data)
        inside = q.T @ taps
        if np.linalg.norm(q @ inside - taps) <= _SPAN_TOL * np.linalg.norm(taps):
            basis, taps, cache = q, inside, replace(cache, gft_data=r)
    start_taps = taps

    reduced = coeffs @ cache.kernel
    resid = _residual(cache, taps, reduced)
    trace = [_cost(cache, resid)]
    iterations = 0
    converged = False
    for _ in range(max_iters):
        direction_t = _tap_gradient(cache, reduced, resid)
        moved_t = apply_response(direction_t, cache.eig_pows, reduced)
        step_t = _clamped_step(cache, resid, moved_t)
        taps_next = taps
        if step_t:
            taps_next = taps - step_t * direction_t
            resid += step_t * moved_t
        trace.append(_cost(cache, resid))

        direction_c = _coeff_gradient(cache, taps_next, resid)
        shift = direction_c @ cache.kernel
        moved_c = apply_response(taps_next, cache.eig_pows, shift)
        step_c = _clamped_step(cache, resid, moved_c)
        coeffs_next = coeffs
        if step_c:
            coeffs_next = coeffs - step_c * direction_c
            reduced -= step_c * shift
            resid += step_c * moved_c
        trace.append(_cost(cache, resid))

        delta = float(np.linalg.norm(taps_next - taps)) + float(
            np.linalg.norm(coeffs_next - coeffs)
        )
        taps, coeffs = taps_next, coeffs_next
        iterations += 1
        if not (np.isfinite(taps).all() and np.isfinite(coeffs).all()):
            raise NonFiniteValue(f"non-finite iterate at iteration {iterations}")
        if delta < epsilon:
            converged = True
            break

    if basis is not None:
        # taps that never took a step come back as given, not round-tripped
        taps = given_taps if taps is start_taps else basis @ taps
    model = FilterModel(
        order=order,
        k=k,
        recon_taps=taps,
        coeffs=coeffs,
        mean=ds.mean.copy(),
        spectrum_fingerprint=fingerprint,
    )
    return FitResult(
        model=model,
        objective_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
    )


def stationarity_residual(model: FilterModel, cache: SpectralCache) -> float:
    """Summed Frobenius norms of both gradients at the model's iterate."""
    taps, coeffs = _checked(cache, model.recon_taps, model.coeffs)
    reduced = coeffs @ cache.kernel
    resid = _residual(cache, taps, reduced)
    g_taps = _tap_gradient(cache, reduced, resid)
    g_coeffs = _coeff_gradient(cache, taps, resid)
    return float(np.linalg.norm(g_taps)) + float(np.linalg.norm(g_coeffs))


def extend_order(model: FilterModel, cache: SpectralCache):
    """Re-seed a fit at the cache's order from a trained model of that
    order or lower.

    Taps are zero-padded. The model's reducing filter, applied to the
    cache's data, gives every node's reduced vector; because the
    coefficients act through the order-dependent kernel, they are re-solved
    so the node keeps that vector: ``coeffs_new @ cache.kernel = reduced``
    (least squares, exact when the kernel has full rank). When the cache
    is built on the model's own graph, the reseeded (taps, coeffs) pair
    reproduces the model's objective value; :func:`fit` checks the graph.
    """
    if cache.order < model.order:
        raise DimensionMismatch(
            f"cannot extend order {model.order} model into order {cache.order} cache"
        )
    if model.dim != cache.dim or model.n != cache.n:
        raise DimensionMismatch(
            f"model of dim {model.dim}, n={model.n} does not fit "
            f"data of dim {cache.dim}, n={cache.n}"
        )
    taps = np.zeros((cache.order + 1, model.dim, model.k))
    taps[: model.order + 1] = model.recon_taps
    low = cache.eig_pows[:, : model.order + 1]
    xt = cache.gft_data
    reduced = apply_response(reducing_taps(model.coeffs, xt, low), low, xt)
    solved, *_ = np.linalg.lstsq(cache.kernel, reduced.T, rcond=None)
    return taps, solved.T
