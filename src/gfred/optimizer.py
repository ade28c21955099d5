"""Filter training by alternating exact-line-search gradient descent.

The model is a pair: a bank of reconstruction taps, the dim x (L+1)k
matrix ``T = [T_0 ... T_L]`` with one dim x k tap per polynomial order,
and a k x n coefficient matrix that parameterizes the reducing filter
through the cached feature kernel. Node i's reduced vector is
``coeffs @ kernel[:, i]`` and its reconstruction is the bank's frequency
response ``sum_l lam_i^l T_l`` applied to that vector. The training cost
is the mean squared spectral-domain residual.

Each iteration takes the exact gradient with respect to the tap bank,
moves to the minimizer of the cost along that ray (the restriction is an
exact quadratic in the step, so the minimizer is
``<resid, out> / <out, out>``, with ``out`` the ray's filtered output),
then takes the coefficient gradient at the fresh taps and does the same
along the coefficient ray. Both half-updates therefore never increase the
cost. Iteration stops when the summed Frobenius norm of the two updates
is at most ``epsilon`` or after ``max_iters`` sweeps.

:func:`fit` carries the reduced vectors V as their power stack
``Phi = [V diag(lam^0); ...; V diag(lam^L)]``
(:func:`~gfred.spectral.power_stack`): the bank's output is the one
product ``T @ Phi``. The loop never forms that output or the dim x n
residual ``resid = Xt - T @ Phi``. It carries the moments
``M = Xt @ Phi'`` and ``G = Phi @ Phi'``, recomputed after a coefficient
step, and the taps' ``T' @ Xt`` and ``T' @ T``, recomputed after a tap
step. From them:

- tap half: ``F = M - T @ G`` is ``resid @ Phi'``, the tap gradient times
  ``-n/2``; the exact step along F is ``|F|^2 / <F @ G, F>``;
- coefficient half: ``W = T' @ Xt - (T' @ T) @ Phi`` is ``T' @ resid``;
  the descent direction is ``g = power_sum(W) @ kernel``
  (:func:`~gfred.spectral.power_sum` adds the power weights in on k-row
  blocks), its ray moves Phi by ``S = power_stack(g @ kernel)``, and the
  exact step is ``<W, S> / <(T' @ T) @ S, S>``.

The first trace entry is the starting residual's mean squared norm, and
every later one the entry before it less the exact step's decrease,
``step * slope / n``, the slope being the step's numerator, and never
below 0. An iteration makes two dim-sized products (``T' @ Xt`` and
``Xt @ Phi'``, each dim x n x (L+1)k) and two kernel products; the rest
act on (L+1)k-row arrays. The gradients, steps and cost are internal to
:func:`fit` (and :func:`stationarity_residual`, which uses the same
moments); the test suite's ``tests/oracles.py`` computes them again, one
frequency at a time, as the reference the trainer is checked against.

:func:`fit`'s loop runs on min(dim, n) rows. On tall data (dim > n) it
reads the factorization ``Xt = Q R`` of the transformed data from the
dataset's cached thin SVD ``Xbar = W diag(s) V'``
(:meth:`~gfred.spectral.CenteredDataset.svd`, the one PCA's basis comes
from): ``Q = W`` and ``R = gft(diag(s) V')``, the n x n matrix
``diag(s) V' U``. The n orthonormal columns of ``Q`` span a space that
holds every data column. Every tap gradient is a sum of residual x
reduced-vector products, and the residual is the data minus the taps'
output, so taps that start in that space never leave it (the
representer-theorem argument behind the coefficient parameterization).
When the start lies there, as the PCA seed and every model :func:`fit`
trained on the same data do, the loop trains the coordinates ``Q' taps``
against ``R`` in place of ``Xt`` and maps the result back with ``Q``.
This is the same iteration, not an approximation: ``R' R = Xt' Xt``
leaves the kernel unchanged and ``Q`` keeps every inner product and norm,
so each cost, step, update size and stopping decision is the one the
dim-row loop computes, up to rounding. A start with taps outside that
space trains on all dim rows. The dataset is factorized once, however
many widths and orders are fitted on it.

:func:`fit` builds the cache for the order it trains. It starts from the
PCA seed of :func:`init_filters` (from a given PCA model of the data, or
one it computes) or, given a model trained on the same graph with the
same k and an order no higher, from :func:`extend_order` of that model:
an order-L bank contains the banks below it with their higher taps at
zero.

Nonpositive optimal steps are clamped to zero (the stopping test then
sees a zero update), and so is the step along a direction whose filtered
energy is below 1e-300. A step that leaves an iterate not finite shows
as an update whose size is not finite, and raises NonFiniteValue. An
iteration whose slope or curvature is not finite still stops the loop
when its update is small, but the fit does not report convergence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    FingerprintMismatch,
    NonFiniteStart,
    NonFiniteValue,
    solver_failure,
)
from .graph import GraphSpectrum
from .pca import PcaModel, pca_fit
from .spectral import (
    CenteredDataset,
    SpectralCache,
    build_cache,
    gft,
    power_stack,
    power_sum,
    reduce_response,
)

MAX_ITERS = 500  # default iteration cap of a fit, a sweep and `gfred fit`

_ENERGY_FLOOR = 1e-300
_INIT_RIDGE = 1e-10
_SPAN_TOL = 1e-12  # start taps this close to the data's span, relatively, lie in it


@dataclass(frozen=True)
class FilterModel:
    """Trained reducing/reconstruction filter pair.

    ``spectrum`` is the graph the pair was trained on: the spectrum
    :func:`fit` was given, not a copy, or the one a model file holds. The
    filters are polynomials in that graph's adjacency and mean nothing on
    another, so :func:`check_spectrum` checks every spectrum a model is
    served with against it. A model keeps its graph alive, the adjacency
    too when the caller's spectrum holds one.
    ``pca_basis`` is the D x k training PCA basis the fit started from,
    the baseline ``gfred eval`` scores against; it is ``None`` for a model
    read from a version-1 file and for one trained from such a model.
    """

    order: int
    k: int
    recon_taps: np.ndarray  # (dim, (order+1)*k), the bank [T_0 ... T_L]
    coeffs: np.ndarray      # (k, n)
    mean: np.ndarray        # (dim,)
    spectrum: GraphSpectrum
    pca_basis: np.ndarray | None = None  # (dim, k)

    @property
    def dim(self) -> int:
        return self.recon_taps.shape[0]

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]


def check_spectrum(model: FilterModel, spectrum: GraphSpectrum):
    """Raise FingerprintMismatch unless ``model`` was trained on ``spectrum``:
    the model's own spectrum, or one whose eigenvalues and eigenvectors
    equal its own value for value, as a graph rebuilt from the same data
    does. The model's own spectrum is passed without reading an array."""
    own = model.spectrum
    if spectrum is not own and not (
        np.array_equal(spectrum.eigvals, own.eigvals)
        and np.array_equal(spectrum.eigvecs, own.eigvecs)
    ):
        raise FingerprintMismatch("model was trained on a different graph spectrum")


def check_stopping(epsilon: float | None, max_iters: int):
    """Raise ConfigError unless the stopping settings of a fit are valid:
    ``max_iters`` >= 0, and ``epsilon`` either None (the fit's default) or
    a finite number > 0. :func:`fit` and every sweep configuration check
    their settings here."""
    if max_iters < 0:
        raise ConfigError(f"max_iters must be >= 0, got {max_iters}")
    if epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"epsilon must be a finite number > 0, got {epsilon}")


@dataclass(frozen=True)
class FitResult:
    model: FilterModel
    objective_trace: np.ndarray  # value at start, then after every half-update
    iterations: int
    converged: bool


def _checked(cache: SpectralCache, taps, coeffs):
    """The pair as float arrays, after checking it fits the cache: a
    dim x (order+1)k tap bank and k x n coefficients."""
    taps = np.asarray(taps, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 2 or coeffs.shape[1] != cache.n:
        raise DimensionMismatch(f"coefficients {coeffs.shape} do not fit n={cache.n}")
    if taps.shape != (cache.dim, (cache.order + 1) * coeffs.shape[0]):
        raise DimensionMismatch(
            f"tap bank {taps.shape} does not fit dim {cache.dim}, "
            f"order {cache.order} and k={coeffs.shape[0]}"
        )
    return taps, coeffs


# The formulas below take the reduced vectors as their power stack
# ``phi = power_stack(reduced, pows)``, so that the bank's output is the
# one product ``taps @ phi``. They never form that output or the residual
# ``resid = Xt - taps @ phi``: every product of the residual they need
# comes from the moments ``Xt @ phi'`` and ``phi @ phi'`` and from the
# taps' own ``taps' @ Xt`` and ``taps' @ taps``.


def _reduced_powers(cache: SpectralCache, coeffs) -> np.ndarray:
    """Power stack of the reduced vectors ``coeffs @ kernel``."""
    return power_stack(coeffs @ cache.kernel, cache.eig_pows)


def _tap_descent(taps, data_moment, gram) -> np.ndarray:
    """``resid @ phi'`` from the moments ``Xt @ phi'`` and ``phi @ phi'``:
    the tap gradient times ``-n/2``."""
    return data_moment - taps @ gram


def _coeff_descent(cache: SpectralCache, back) -> np.ndarray:
    """The coefficient gradient times ``-n/2``, from the back projection
    ``back = taps' @ resid``."""
    return power_sum(back, cache.eig_pows) @ cache.kernel


def _exact_step(slope: float, curvature: float, n: int) -> float:
    """The clamped minimizer ``slope / curvature`` of the cost along a ray.

    Along a ray whose filtered output ``out`` moves the prediction by
    ``c * out``, the cost is the exact quadratic
    ``(|resid|^2 - 2c <resid, out> + c^2 |out|^2) / n`` with
    ``slope = <resid, out>`` and ``curvature = |out|^2``. A nonpositive
    step means no descent along the ray, and a ray whose gradient's
    filtered energy (``(2/n)^2 * curvature / n``, the ray's output scaled
    to the gradient's length) is below 1e-300 has none to give: either way
    the step is 0.0.
    """
    if not 4.0 * curvature / n**3 > _ENERGY_FLOOR:
        return 0.0
    step = slope / curvature
    return step if step > 0.0 else 0.0


def init_filters(pca: PcaModel, cache: SpectralCache):
    """PCA-seeded starting point from a PCA model of the cache's data.

    Tap 0 is the model's k-column basis, higher taps are zero. Coefficients
    solve a ridge-regularized least squares against the training kernel,
    so the start reproduces PCA scores whatever the kernel's order or
    eigenvalue scale (at order 0 the kernel is the spectral data Gram and
    the start ties PCA exactly). The ridge weight is 1e-10 times the
    kernel's mean diagonal, so rank-deficient data still yields a finite
    start. The ridge is added to the kernel's own diagonal for the solve
    and the saved diagonal written back afterwards, also when the solve
    fails, so no second n x n system is made and ``cache.kernel`` comes
    back bit-identical. A basis whose dimension is not the cache's raises
    DimensionMismatch, and a failed solve raises ConvergenceFailure.
    """
    if pca.basis.shape[0] != cache.dim:
        raise DimensionMismatch(
            f"PCA basis of dim {pca.basis.shape[0]} does not fit data of dim {cache.dim}"
        )
    k = pca.k
    taps = np.zeros((cache.dim, (cache.order + 1) * k))
    taps[:, :k] = pca.basis
    xt = cache.gft_data
    # the reducing filter acts through cache.kernel, not the raw data
    # Gram; solving against anything else gives wildly off-scale starts
    # once eigenvalue powers enter at order >= 1
    trace = float(np.trace(cache.kernel))
    if trace == 0.0:
        return taps, np.zeros((k, cache.n))
    ridge = _INIT_RIDGE * trace / cache.n
    diagonal = cache.kernel.diagonal().copy()
    try:
        with solver_failure("the seed's ridge solve"):
            cache.kernel.flat[:: cache.n + 1] += ridge
            coeffs = np.linalg.solve(cache.kernel, xt.T @ pca.basis).T
    finally:
        cache.kernel.flat[:: cache.n + 1] = diagonal
    return taps, coeffs


def fit(
    ds: CenteredDataset,
    spectrum: GraphSpectrum,
    k: int,
    order: int,
    *,
    epsilon: float | None = None,
    max_iters: int = MAX_ITERS,
    start: FilterModel | PcaModel | None = None,
) -> FitResult:
    """Train a filter pair by alternating exact-line-search descent.

    ``epsilon`` defaults to 1e-6 times the summed Frobenius norms of the
    starting point, which is > 0 whenever the start has a nonzero tap, as
    the PCA seed does; a start of all-zero taps and coefficients has no
    gradient and a default of 0, and stops converged after one iteration
    with no step. ``start`` may be a model trained on the same graph,
    with the same ``k`` and an order no higher than ``order``; the run
    resumes from
    :func:`extend_order` of it, which keeps its reduced vectors. It may
    also be a :class:`~gfred.pca.PcaModel` of ``ds`` with the same ``k``,
    the cold seed :func:`init_filters` starts from, so a caller that also
    wants the PCA baseline computes the PCA once. With ``start=None``
    the fit computes ``pca_fit(ds, k)`` itself. The returned model keeps
    the PCA basis it started from as ``pca_basis``: the PCA start's, or
    the start model's own (``None`` if it has none). A start of another ``k``
    or dimension raises DimensionMismatch. ``max_iters=0`` returns the
    starting point untouched. Invalid stopping settings raise ConfigError
    (:func:`check_stopping`) before any work is done.
    A starting point that is not finite, as the PCA seed of data scaled
    near 1e-155 is, raises NonFiniteStart.

    The descent runs on min(dim, n) rows: on tall data (dim > n) with a
    start in the span of the data's columns it trains the taps'
    coordinates in the left singular vectors of ``ds``, from the SVD that
    ``ds`` computes once and caches, which gives the same iterates (see
    the module docstring). The start and the returned model live in the
    data's own dim rows either way. A failed SVD raises
    ConvergenceFailure.
    """
    check_stopping(epsilon, max_iters)
    cache = build_cache(ds.centered, spectrum, order)
    if start is None:
        start = pca_fit(ds, k)
    if start.k != k:
        raise DimensionMismatch(f"start model has k={start.k}, expected k={k}")
    if isinstance(start, PcaModel):
        taps, coeffs = init_filters(start, cache)
        pca_basis = start.basis
    else:
        # a start of another size raises DimensionMismatch here, before the graph check
        taps, coeffs = extend_order(start, cache)
        check_spectrum(start, spectrum)
        pca_basis = start.pca_basis
    if not (np.isfinite(taps).all() and np.isfinite(coeffs).all()):
        # data near 1e-155 has a kernel of subnormal numbers, and the
        # seed's ridge solve against it gives NaN
        raise NonFiniteStart(
            "the fit's starting point is not finite (training kernel trace "
            f"{float(np.trace(cache.kernel))!r}): rescale the data"
        )
    if epsilon is None:
        epsilon = 1e-6 * (float(np.linalg.norm(taps)) + float(np.linalg.norm(coeffs)))

    # taps that start in the span of the data's left singular vectors W
    # stay there (module docstring): on tall data train their coordinates
    # against R = gft(diag(s) V'), for which W R = Xt
    given_taps, basis = taps, None
    if cache.dim > cache.n:
        left, sing, right_t = ds.svd()
        inside = left.T @ taps
        if np.linalg.norm(left @ inside - taps) <= _SPAN_TOL * np.linalg.norm(taps):
            r = gft(sing[:, None] * right_t, spectrum)
            basis, taps, cache = left, inside, replace(cache, gft_data=r)
    start_taps = taps

    xt = cache.gft_data
    phi = _reduced_powers(cache, coeffs)
    resid = taps @ phi  # the one dim x n array, for the starting cost
    resid -= xt
    trace = [float(np.vdot(resid, resid)) / cache.n]
    del resid
    data_moment, gram = xt @ phi.T, phi @ phi.T
    back_data, tap_gram = taps.T @ xt, taps.T @ taps
    iterations = 0
    converged = False
    for _ in range(max_iters):
        # taps and coeffs are rebound only on a step, so that `taps is
        # start_taps` tells a fit that never stepped. An exact step lowers
        # the cost by step * slope / n (at most to 0: at a cost of rounding
        # size the decrease can exceed it), and moves its iterate by
        # step * |descent|, which is not finite when the iterate is not
        descent_t = _tap_descent(taps, data_moment, gram)
        slope_t = float(np.vdot(descent_t, descent_t))
        curvature_t = float(np.vdot(descent_t @ gram, descent_t))
        step_t = _exact_step(slope_t, curvature_t, cache.n)
        cost, delta = trace[-1], 0.0
        if step_t:
            taps = taps + step_t * descent_t
            back_data, tap_gram = taps.T @ xt, taps.T @ taps
            cost = max(cost - step_t * slope_t / cache.n, 0.0)
            delta += step_t * math.sqrt(slope_t)
        trace.append(cost)

        back = back_data - tap_gram @ phi
        descent_c = _coeff_descent(cache, back)
        shift = _reduced_powers(cache, descent_c)
        slope_c = float(np.vdot(back, shift))
        curvature_c = float(np.vdot(tap_gram @ shift, shift))
        step_c = _exact_step(slope_c, curvature_c, cache.n)
        if step_c:
            coeffs = coeffs + step_c * descent_c
            shift *= step_c
            phi += shift
            data_moment, gram = xt @ phi.T, phi @ phi.T
            cost = max(cost - step_c * slope_c / cache.n, 0.0)
            delta += step_c * math.sqrt(float(np.vdot(descent_c, descent_c)))
        trace.append(cost)

        iterations += 1
        if not math.isfinite(delta):
            raise NonFiniteValue(f"non-finite iterate at iteration {iterations}")
        if delta <= epsilon:
            # a step clamped because its slope or curvature overflowed is
            # small for want of a step, not of a gradient: stop, unconverged
            converged = all(map(math.isfinite, (slope_t, curvature_t, slope_c, curvature_c)))
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
        spectrum=spectrum,
        pca_basis=pca_basis,
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
    xt = cache.gft_data
    phi = _reduced_powers(cache, coeffs)
    descent_t = _tap_descent(taps, xt @ phi.T, phi @ phi.T)
    descent_c = _coeff_descent(cache, taps.T @ xt - (taps.T @ taps) @ phi)
    return 2.0 / cache.n * (float(np.linalg.norm(descent_t)) + float(np.linalg.norm(descent_c)))


def extend_order(model: FilterModel, cache: SpectralCache):
    """Re-seed a fit at the cache's order from a trained model of that
    order or lower.

    The tap bank is zero-padded, and the padded bank and the model's
    coefficients are checked against the cache as every pair is
    (DimensionMismatch unless the bank is dim x (order+1)k and the
    coefficients k x n); an order above the cache's raises it too. The
    model's reducing filter, applied to the cache's data, gives every
    node's reduced vector; because the coefficients act through the
    order-dependent kernel, they are re-solved so the node keeps that
    vector: ``coeffs_new @ cache.kernel = reduced`` (least squares, exact
    when the kernel has full rank). When the cache is built on the model's
    own graph, the reseeded (taps, coeffs) pair reproduces the model's
    objective value; :func:`fit` checks the graph. A failed least-squares
    solve raises ConvergenceFailure.
    """
    if cache.order < model.order:
        raise DimensionMismatch(
            f"cannot extend order {model.order} model into order {cache.order} cache"
        )
    taps = np.zeros((model.dim, (cache.order + 1) * model.k))
    taps[:, : model.recon_taps.shape[1]] = model.recon_taps
    taps, coeffs = _checked(cache, taps, model.coeffs)
    reduced = reduce_response(coeffs, cache.gft_data, cache.eig_pows[:, : model.order + 1])
    with solver_failure("the reseeded coefficients' least squares"):
        solved, *_ = np.linalg.lstsq(cache.kernel, reduced.T, rcond=None)
    return taps, solved.T
