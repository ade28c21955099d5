"""Trainer checks: the reference's gradients vs finite differences and its
steps vs dense scans, fit against the reference descent, monotone descent,
starting-point quality, and the warm-start reseeding."""

import dataclasses
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfred import optimizer
from gfred.codec import reduce
from gfred.errors import (
    ConvergenceFailure,
    DataError,
    DimensionMismatch,
    FingerprintMismatch,
    NonFiniteStart,
    NonFiniteValue,
    RankDeficiencyWarning,
)
from gfred.graph import GraphSpectrum, Kernel, SimilarityConfig, build_graph
from gfred.harness import ExperimentConfig, sample_subset, synth_digits
from gfred.optimizer import extend_order, fit, init_filters, stationarity_residual
from gfred.pca import pca_fit, pca_mse
from gfred.spectral import build_cache, center, power_stack, power_sum, reduce_response

from oracles import (
    descend,
    fd_grad_coeffs,
    fd_grad_taps,
    grad_coeffs,
    grad_taps,
    objective,
    random_filters,
    random_instance,
    reference,
    scan_best_step,
    stacked_kernel,
    step_coeffs,
    step_taps,
)


class TestObjective:

    def test_zero_filters_give_mean_energy(self):
        rng = np.random.default_rng(60)
        inst = random_instance(rng, n=7, dim=4, order=2)
        taps = np.zeros((4, 6))
        coeffs = np.zeros((2, 7))
        # the transform is orthonormal: the vertex-domain energy is the same
        mean_energy = np.sum(inst.ds.centered**2) / inst.ds.n
        assert objective(inst.ref, taps, coeffs) == pytest.approx(mean_energy, rel=1e-14)

    def test_zero_at_exactly_representable_data(self):
        # k = dim and an identity tap can reproduce any order-0 model output,
        # so solving for the coefficients drives the cost to rounding level
        rng = np.random.default_rng(61)
        inst = random_instance(rng, n=12, dim=3, order=0)
        ref = inst.ref
        taps = np.eye(3)
        coeffs, *_ = np.linalg.lstsq(ref.kernel, ref.xt.T, rcond=None)
        val = objective(ref, taps, coeffs.T)
        assert val <= 1e-18 * (1.0 + np.sum(inst.ds.centered**2) / inst.ds.n)


class TestGradients:

    def test_taps_match_finite_differences(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            dim = int(rng.integers(2, 6))
            order = int(rng.integers(0, 4))
            k = int(rng.integers(1, dim + 1))
            inst = random_instance(rng, n=n, dim=dim, order=order)
            taps, coeffs = random_filters(rng, inst.cache, k)
            g = grad_taps(inst.ref, taps, coeffs)
            fd = fd_grad_taps(inst.ref, taps, coeffs)
            assert np.all(np.abs(g - fd) <= 1e-6 * np.abs(fd) + 1e-8)

    def test_coeffs_match_finite_differences(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            dim = int(rng.integers(2, 6))
            order = int(rng.integers(0, 4))
            k = int(rng.integers(1, dim + 1))
            inst = random_instance(rng, n=n, dim=dim, order=order)
            taps, coeffs = random_filters(rng, inst.cache, k)
            g = grad_coeffs(inst.ref, taps, coeffs)
            fd = fd_grad_coeffs(inst.ref, taps, coeffs)
            assert np.all(np.abs(g - fd) <= 1e-6 * np.abs(fd) + 1e-8)

    def test_tap_gradient_vanishes_at_zero_coefficients(self):
        # the model output is linear in the reduced vectors, so a zero
        # reduction pins every tap derivative at zero
        rng = np.random.default_rng(65)
        inst = random_instance(rng, n=6, dim=4, order=2)
        taps, _ = random_filters(rng, inst.cache, 2)
        g = grad_taps(inst.ref, taps, np.zeros((2, 6)))
        assert np.array_equal(g, np.zeros_like(taps))

    def test_coeff_gradient_vanishes_at_zero_taps(self):
        rng = np.random.default_rng(66)
        inst = random_instance(rng, n=6, dim=4, order=2)
        _, coeffs = random_filters(rng, inst.cache, 2)
        g = grad_coeffs(inst.ref, np.zeros((4, 6)), coeffs)
        assert np.array_equal(g, np.zeros_like(coeffs))


class TestStepSizes:

    def test_doubling_direction_exactly_halves_step(self):
        # the numerator is linear and the denominator quadratic in the
        # direction, and scaling by two is exact in floating point
        rng = np.random.default_rng(67)
        for _ in range(5):
            inst = random_instance(rng, n=6, dim=4, order=2)
            taps, coeffs = random_filters(rng, inst.cache, 2)
            ref = inst.ref
            d_t = grad_taps(ref, taps, coeffs)
            d_c = grad_coeffs(ref, taps, coeffs)
            s_t = step_taps(ref, taps, coeffs, d_t)
            s_c = step_coeffs(ref, taps, coeffs, d_c)
            assert step_taps(ref, taps, coeffs, 2.0 * d_t) == s_t / 2.0
            assert step_coeffs(ref, taps, coeffs, 2.0 * d_c) == s_c / 2.0

    def test_taps_step_beats_dense_scan(self):
        rng = np.random.default_rng(68)
        for _ in range(8):
            n = int(rng.integers(3, 8))
            dim = int(rng.integers(2, 5))
            order = int(rng.integers(0, 4))
            inst = random_instance(rng, n=n, dim=dim, order=order)
            taps, coeffs = random_filters(rng, inst.cache, min(2, dim))
            ref = inst.ref
            d = grad_taps(ref, taps, coeffs)
            step = step_taps(ref, taps, coeffs, d)
            assert step > 0.0
            best, spacing = scan_best_step(ref, taps, coeffs, d, step, "taps")
            assert abs(best - step) <= spacing
            at_step = objective(ref, taps - step * d, coeffs)
            at_best = objective(ref, taps - best * d, coeffs)
            assert at_step <= at_best + 1e-12 * (1.0 + at_best)

    def test_coeffs_step_beats_dense_scan(self):
        rng = np.random.default_rng(69)
        for _ in range(8):
            n = int(rng.integers(3, 8))
            dim = int(rng.integers(2, 5))
            order = int(rng.integers(0, 4))
            inst = random_instance(rng, n=n, dim=dim, order=order)
            taps, coeffs = random_filters(rng, inst.cache, min(2, dim))
            ref = inst.ref
            d = grad_coeffs(ref, taps, coeffs)
            step = step_coeffs(ref, taps, coeffs, d)
            assert step > 0.0
            best, spacing = scan_best_step(ref, taps, coeffs, d, step, "coeffs")
            assert abs(best - step) <= spacing
            at_step = objective(ref, taps, coeffs - step * d)
            at_best = objective(ref, taps, coeffs - best * d)
            assert at_step <= at_best + 1e-12 * (1.0 + at_best)


class TestInit:

    def test_order_zero_start_matches_baseline(self):
        rng = np.random.default_rng(71)
        for _ in range(6):
            n = int(rng.integers(4, 12))
            dim = int(rng.integers(2, 7))
            k = int(rng.integers(1, min(dim, n) + 1))
            inst = random_instance(rng, n=n, dim=dim, order=0)
            taps, coeffs = init_filters(pca_fit(inst.ds, k), inst.cache)
            start = objective(inst.ref, taps, coeffs)
            baseline = pca_mse(inst.ds, pca_fit(inst.ds, k))
            assert start == pytest.approx(baseline, rel=1e-8, abs=1e-12)

    def test_higher_order_taps_zero_beyond_first(self):
        rng = np.random.default_rng(72)
        inst = random_instance(rng, n=8, dim=5, order=3)
        taps, coeffs = init_filters(pca_fit(inst.ds, 2), inst.cache)
        assert taps.shape == (5, 8)
        assert np.array_equal(taps[:, 2:], np.zeros((5, 6)))
        assert np.array_equal(taps[:, :2], pca_fit(inst.ds, 2).basis)
        assert coeffs.shape == (2, 8)

    def test_zero_data_falls_back_to_zero_coefficients(self):
        X = np.zeros((3, 6))
        cfg = SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=1.0, knn=2)
        spectrum = build_graph(X, cfg)
        ds = center(X)
        cache = build_cache(ds.centered, spectrum, order=1)
        with pytest.warns(RankDeficiencyWarning):
            taps, coeffs = init_filters(pca_fit(ds, 1), cache)
        assert np.array_equal(coeffs, np.zeros((1, 6)))
        assert objective(reference(ds, spectrum, 1), taps, coeffs) == 0.0


def rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestFit:

    def test_trace_never_increases(self):
        rng = np.random.default_rng(73)
        inst = random_instance(rng, n=10, dim=5, order=2)
        result = fit(inst.ds, inst.spectrum, k=2, order=2, max_iters=60)
        trace = result.objective_trace
        slack = 1e-12 * (1.0 + trace[0])
        assert np.all(np.diff(trace) <= slack)
        assert trace.shape == (2 * result.iterations + 1,)

    def test_beats_baseline_with_order(self):
        rng = np.random.default_rng(74)
        inst = random_instance(rng, n=14, dim=6, order=2)
        baseline = pca_mse(inst.ds, pca_fit(inst.ds, 2))
        result = fit(inst.ds, inst.spectrum, k=2, order=2, max_iters=300)
        assert result.objective_trace[-1] < baseline

    def test_converges_to_stationary_point(self):
        # full-width k: narrow fits can zigzag along the gauge valley for
        # more than the sweep budget, so this instance is chosen to stop
        rng = np.random.default_rng(75)
        inst = random_instance(rng, n=6, dim=5, order=1)
        result = fit(inst.ds, inst.spectrum, k=5, order=1, epsilon=1e-8, max_iters=2000)
        assert result.converged
        final = result.objective_trace[-1]
        resid = stationarity_residual(result.model, inst.cache)
        assert resid <= 1e-6 * (1.0 + final)

    def test_stationarity_residual_sums_the_reference_gradient_norms(self):
        rng = np.random.default_rng(91)
        for dim in (4, 20):
            inst = random_instance(rng, n=7, dim=dim, order=2)
            model = fit(inst.ds, inst.spectrum, k=2, order=2, max_iters=5).model
            taps, coeffs = model.recon_taps, model.coeffs
            want = np.linalg.norm(grad_taps(inst.ref, taps, coeffs)) + np.linalg.norm(
                grad_coeffs(inst.ref, taps, coeffs)
            )
            assert stationarity_residual(model, inst.cache) == pytest.approx(want, rel=1e-10)

    def test_max_iters_zero_returns_start(self):
        rng = np.random.default_rng(76)
        for dim in (4, 20):  # the tall instance trains on n-row coordinates
            inst = random_instance(rng, n=7, dim=dim, order=1)
            taps, coeffs = init_filters(pca_fit(inst.ds, 2), inst.cache)
            result = fit(inst.ds, inst.spectrum, k=2, order=1, max_iters=0)
            assert result.iterations == 0
            assert not result.converged
            assert result.objective_trace.shape == (1,)
            assert np.array_equal(result.model.recon_taps, taps)
            assert np.array_equal(result.model.coeffs, coeffs)

    def test_explicit_start_resumes(self):
        rng = np.random.default_rng(77)
        inst = random_instance(rng, n=8, dim=4, order=1)
        first = fit(inst.ds, inst.spectrum, k=2, order=1, max_iters=3, epsilon=1e-300)
        resumed = fit(
            inst.ds,
            inst.spectrum,
            k=2,
            order=1,
            max_iters=3,
            epsilon=1e-300,
            start=first.model,
        )
        whole = fit(inst.ds, inst.spectrum, k=2, order=1, max_iters=6, epsilon=1e-300)
        stitched = np.concatenate([first.objective_trace, resumed.objective_trace[1:]])
        assert np.allclose(stitched, whole.objective_trace, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize(
        "mismatch, error",
        [
            ("k", DimensionMismatch),
            ("dim", DimensionMismatch),
            ("n", DimensionMismatch),
            ("graph", FingerprintMismatch),
        ],
        ids=["k", "dim", "n", "graph"],
    )
    def test_start_validation(self, mismatch, error):
        rng = np.random.default_rng(80)
        inst = random_instance(rng, n=6, dim=3, order=1)
        dims = {"k": (6, 3), "dim": (6, 4), "n": (7, 3), "graph": (6, 3)}[mismatch]
        other = random_instance(np.random.default_rng(81), n=dims[0], dim=dims[1], order=1)
        start = fit(other.ds, other.spectrum, k=2, order=1, max_iters=2).model
        k = 3 if mismatch == "k" else 2
        with pytest.raises(error):
            fit(inst.ds, inst.spectrum, k=k, order=1, start=start)

    def test_pca_start_is_the_cold_seed(self):
        rng = np.random.default_rng(84)
        inst = random_instance(rng, n=9, dim=5, order=2)
        cold = fit(inst.ds, inst.spectrum, k=2, order=2, max_iters=5)
        seeded = fit(inst.ds, inst.spectrum, k=2, order=2, max_iters=5,
                     start=pca_fit(inst.ds, 2))
        assert np.array_equal(seeded.objective_trace, cold.objective_trace)
        assert np.array_equal(seeded.model.recon_taps, cold.model.recon_taps)
        assert np.array_equal(seeded.model.coeffs, cold.model.coeffs)

    @pytest.mark.parametrize("mismatch", ["k", "dim"])
    def test_pca_start_validation(self, mismatch):
        rng = np.random.default_rng(85)
        inst = random_instance(rng, n=6, dim=3, order=1)
        other = random_instance(rng, n=6, dim=4, order=1)
        start = pca_fit(inst.ds if mismatch == "k" else other.ds, 2)
        k = 3 if mismatch == "k" else 2
        with pytest.raises(DimensionMismatch):
            fit(inst.ds, inst.spectrum, k=k, order=1, start=start)

    def test_parameter_validation(self):
        rng = np.random.default_rng(81)
        inst = random_instance(rng, n=5, dim=3, order=0)
        with pytest.raises(ValueError):
            fit(inst.ds, inst.spectrum, k=1, order=0, max_iters=-1)
        with pytest.raises(ValueError):
            fit(inst.ds, inst.spectrum, k=1, order=0, epsilon=0.0)
        with pytest.raises(ValueError):
            fit(inst.ds, inst.spectrum, k=1, order=0, epsilon=np.inf)

    def test_non_finite_start_raises(self):
        rng = np.random.default_rng(82)
        inst = random_instance(rng, n=5, dim=3, order=1)
        model = fit(inst.ds, inst.spectrum, k=1, order=1, max_iters=0).model
        taps = model.recon_taps.copy()
        taps[0, 0] = np.inf
        start = dataclasses.replace(model, recon_taps=taps)
        # the inf is meant to propagate; keep numpy quiet about it
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteValue):
                fit(inst.ds, inst.spectrum, k=1, order=1, start=start, max_iters=5)

    def test_start_of_underflowing_data_raises(self):
        # the kernel of digits scaled by 1e-155 holds subnormal numbers, and
        # the PCA seed's ridge solve against it gives NaN
        images, _ = synth_digits(4, 10, seed=0, size=12)
        X = images * 1e-155
        spectrum = build_graph(X, SimilarityConfig(knn=3))
        with pytest.raises(NonFiniteStart, match="starting point is not finite"):
            fit(center(X), spectrum, k=2, order=1, max_iters=50)

    @pytest.mark.parametrize("scale", [1e40, 1e55])
    def test_overflowing_line_search_does_not_report_convergence(self, scale):
        # the coefficient curvature grows as scale^10 and the tap curvature
        # as scale^6: from about 1e31 the coefficient step clamps to 0 on an
        # inf curvature, from about 1e51 the tap step too, so the update is
        # small for want of a step and the stop rule ends an unconverged fit
        images, _ = synth_digits(4, 10, seed=0, size=12)
        X = images * scale
        spectrum = build_graph(X, SimilarityConfig(knn=3))
        result = fit(center(X), spectrum, k=2, order=1, max_iters=200)
        assert not result.converged
        assert result.iterations < 200
        if scale == 1e55:
            assert result.iterations == 1
            assert np.all(result.objective_trace == result.objective_trace[0])

    def test_model_metadata(self):
        rng = np.random.default_rng(83)
        inst = random_instance(rng, n=7, dim=4, order=2)
        result = fit(inst.ds, inst.spectrum, k=3, order=2, max_iters=10)
        model = result.model
        assert model.order == 2 and model.k == 3
        assert model.dim == 4 and model.n == 7
        assert model.recon_taps.shape == (4, 9)
        assert model.coeffs.shape == (3, 7)
        assert np.array_equal(model.mean, inst.ds.mean)
        assert model.spectrum_fingerprint == inst.spectrum.fingerprint()

    @pytest.mark.parametrize("dim", [4, 30], ids=["wide", "tall"])
    def test_two_power_weightings_per_iteration(self, monkeypatch, dim):
        # one power stack for the start, then per iteration the coefficient
        # gradient's back projection and the coefficient ray: the loop
        # carries the reduced vectors' power stack and its moments instead
        # of recomputing the model output
        rng = np.random.default_rng(84)
        inst = random_instance(rng, n=8, dim=dim, order=2)
        calls = []

        def counting(primitive):
            def wrapper(*args):
                calls.append(primitive.__name__)
                return primitive(*args)

            return wrapper

        monkeypatch.setattr(optimizer, "power_stack", counting(power_stack))
        monkeypatch.setattr(optimizer, "power_sum", counting(power_sum))
        monkeypatch.setattr(optimizer, "reduce_response", counting(reduce_response))
        result = fit(inst.ds, inst.spectrum, k=2, order=2, max_iters=5)
        assert result.iterations > 0
        assert len(calls) == 1 + 2 * result.iterations
        assert "reduce_response" not in calls

    def test_loop_holds_no_dim_by_n_array(self, monkeypatch):
        # the loop works on the moments Xt Phi' and Phi Phi' and on the
        # taps' Gram products, never on the dim x n residual or a ray's
        # output. The first power stack is the start's, before the loop;
        # traced memory from the first one inside the loop to the end
        # stays within one dim x n array of the memory held at the first
        rng = np.random.default_rng(92)
        inst = random_instance(rng, n=400, dim=200, order=2)
        pca = pca_fit(inst.ds, 5)
        dim_by_n = inst.ds.centered.nbytes
        held = []

        def sampling(vectors, eig_pows):
            if len(held) == 1:
                tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return power_stack(vectors, eig_pows)

        def peak(max_iters):
            held.clear()
            tracemalloc.start()
            try:
                result = fit(inst.ds, inst.spectrum, k=5, order=2, max_iters=max_iters,
                             epsilon=1e-300, start=pca)
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, setup_peak = peak(0)
        monkeypatch.setattr(optimizer, "power_stack", sampling)
        result, loop_peak = peak(50)
        assert result.iterations == 50
        assert loop_peak - held[0] < dim_by_n
        monkeypatch.undo()
        _, whole_peak = peak(50)
        assert whole_peak - setup_peak < dim_by_n

    @staticmethod
    def follows_the_public_steps(inst, k, order, model):
        """fit against the reference descent over 15 iterations from
        ``model``'s reseeding, or the PCA seed when it is None; returns the
        result."""
        if model is None:
            taps, coeffs = init_filters(pca_fit(inst.ds, k), inst.cache)
        else:
            taps, coeffs = extend_order(model, inst.cache)
        trace, taps, coeffs = descend(inst.ref, taps, coeffs, 15)

        result = fit(
            inst.ds, inst.spectrum, k=k, order=order, max_iters=15, epsilon=1e-300, start=model
        )
        assert result.iterations == 15
        assert rel(result.objective_trace, trace) <= 1e-10
        assert rel(result.model.recon_taps, taps) <= 1e-10
        assert rel(result.model.coeffs, coeffs) <= 1e-10
        return result

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("start", ["cold", "warm", "foreign"])
    def test_tall_fit_follows_the_public_steps(self, order, start):
        # dim > n: fit descends on the data's n-row coordinates, the
        # reference on all dim rows. A foreign start (trained on other data
        # over the same graph) has taps outside the data's span, which the
        # n rows cannot hold, so fit must train it on all dim rows too.
        rng = np.random.default_rng(89)
        inst = random_instance(rng, n=12, dim=60, order=order)
        k = 3
        model = None
        if start == "warm":
            model = fit(inst.ds, inst.spectrum, k=k, order=order - 1, max_iters=10).model
        elif start == "foreign":
            other = center(rng.normal(size=(60, 12)))
            model = fit(other, inst.spectrum, k=k, order=order, max_iters=10).model
        result = self.follows_the_public_steps(inst, k, order, model)
        if start != "foreign":
            # every tap is a combination of the centered data's columns
            for tap in np.split(result.model.recon_taps, order + 1, axis=1):
                weights, *_ = np.linalg.lstsq(inst.ds.centered, tap, rcond=None)
                assert rel(inst.ds.centered @ weights, tap) <= 1e-10

    def test_tall_dataset_reused_across_widths_and_orders(self):
        # the sweep's grid on one dataset, whose SVD every PCA and every
        # fit's narrowing share, against a fresh dataset per call: equal
        # bit for bit, so the cached factorization changes no result
        X = np.random.default_rng(93).normal(size=(60, 12))
        spectrum = build_graph(X, SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=1 / 60, knn=3))
        ds = center(X)
        for k in (2, 3, 5):
            shared, fresh = pca_fit(ds, k), pca_fit(center(X), k)
            assert np.array_equal(shared.basis, fresh.basis)
            for order in (0, 1, 2):
                a = fit(ds, spectrum, k, order, max_iters=20, start=shared)
                b = fit(center(X), spectrum, k, order, max_iters=20, start=fresh)
                assert a.iterations == b.iterations and a.converged == b.converged
                assert np.array_equal(a.objective_trace, b.objective_trace)
                assert np.array_equal(a.model.recon_taps, b.model.recon_taps)
                assert np.array_equal(a.model.coeffs, b.model.coeffs)
                shared, fresh = a.model, b.model

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_wide_fit_follows_the_public_steps(self, order, start):
        # dim < n: fit descends on all dim rows with its flat tap bank
        rng = np.random.default_rng(90)
        inst = random_instance(rng, n=30, dim=8, order=order)
        k = 3
        model = None
        if start == "warm":
            model = fit(inst.ds, inst.spectrum, k=k, order=order - 1, max_iters=10).model
        self.follows_the_public_steps(inst, k, order, model)

    @pytest.mark.parametrize("order", [1, 2])
    def test_carried_trace_matches_fresh_objective(self, order):
        rng = np.random.default_rng(85)
        inst = random_instance(rng, n=40, dim=12, order=order)
        result = fit(inst.ds, inst.spectrum, k=3, order=order, max_iters=500, epsilon=1e-300)
        assert result.iterations == 500
        model = result.model
        fresh = objective(inst.ref, model.recon_taps, model.coeffs)
        assert result.objective_trace[-1] == pytest.approx(fresh, rel=1e-12, abs=0.0)


class TestInvariances:

    def test_basis_sign_flips_do_not_change_the_trace(self):
        # flipping eigenvector signs relabels spectral coordinates; every
        # quantity in the iteration conjugates exactly
        rng = np.random.default_rng(84)
        inst = random_instance(rng, n=8, dim=4, order=2)
        flips = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0])
        flipped = GraphSpectrum(
            eigvals=inst.spectrum.eigvals,
            eigvecs=inst.spectrum.eigvecs * flips[None, :],
            adjacency=inst.spectrum.adjacency,
        )
        a = fit(inst.ds, inst.spectrum, k=2, order=2, max_iters=40, epsilon=1e-300)
        b = fit(inst.ds, flipped, k=2, order=2, max_iters=40, epsilon=1e-300)
        assert a.objective_trace.shape == b.objective_trace.shape
        assert np.allclose(a.objective_trace, b.objective_trace, rtol=1e-6, atol=1e-14)

    def test_scaling_data_scales_cost_quadratically(self):
        # power-of-two scaling keeps every float operation exact, so the
        # two runs stay in lockstep on the same basis
        rng = np.random.default_rng(85)
        X = rng.normal(size=(4, 8))
        cfg = SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=0.25, knn=3)
        spectrum = build_graph(X, cfg)
        a = fit(center(X), spectrum, k=2, order=1, max_iters=25, epsilon=1e-300)
        b = fit(center(4.0 * X), spectrum, k=2, order=1, max_iters=25, epsilon=1e-300)
        assert a.objective_trace.shape == b.objective_trace.shape
        assert np.allclose(b.objective_trace, 16.0 * a.objective_trace, rtol=1e-8)


DIGITS, _ = synth_digits(4, 10, size=12)


@lru_cache(maxsize=None)
def digits_fit(order, perm=None):
    """fit (100 iterations, k=3) and encoding of the 12x12 digits, their
    columns taken in the order ``perm``, over their cosine knn=5 graph."""
    X = DIGITS if perm is None else DIGITS[:, list(perm)]
    spectrum = build_graph(X, SimilarityConfig(kernel=Kernel.COSINE, knn=5))
    ds = center(X)
    result = fit(ds, spectrum, k=3, order=order, max_iters=100, epsilon=1e-300)
    return result, reduce(result.model, ds, spectrum).values


class TestNodePermutation:

    @settings(max_examples=4, deadline=None)
    @given(perm=st.permutations(range(DIGITS.shape[1])))
    def test_fit_commutes_with_relabelling_the_nodes(self, perm):
        # a permutation P of the columns permutes the graph's nodes: the
        # trace and the taps do not move, and the encoding is permuted
        for order in (0, 1, 2):
            plain, values = digits_fit(order)
            moved, moved_values = digits_fit(order, tuple(perm))
            assert rel(moved.objective_trace, plain.objective_trace) <= 1e-10
            assert rel(moved.model.recon_taps, plain.model.recon_taps) <= 1e-10
            assert np.abs(moved_values - values[:, perm]).max() <= 1e-10 * np.abs(values).max()


class TestWarmStart:

    def test_reseeding_preserves_the_objective(self):
        rng = np.random.default_rng(86)
        inst = random_instance(rng, n=10, dim=5, order=0)
        low = fit(inst.ds, inst.spectrum, k=2, order=0, max_iters=30)
        cache_high = build_cache(inst.ds.centered, inst.spectrum, order=2)
        taps, coeffs = extend_order(low.model, cache_high)
        carried = objective(reference(inst.ds, inst.spectrum, 2), taps, coeffs)
        final = low.objective_trace[-1]
        assert carried == pytest.approx(final, rel=1e-10, abs=1e-14)
        # reduced vectors survive the kernel change
        assert np.allclose(
            coeffs @ cache_high.kernel,
            low.model.coeffs @ inst.cache.kernel,
            rtol=1e-8,
            atol=1e-10,
        )

    def test_resumed_fit_descends_from_the_carried_value(self):
        rng = np.random.default_rng(87)
        inst = random_instance(rng, n=12, dim=5, order=0)
        low = fit(inst.ds, inst.spectrum, k=2, order=0, max_iters=50)
        resumed = fit(inst.ds, inst.spectrum, k=2, order=1, start=low.model, max_iters=100)
        carried = low.objective_trace[-1]
        assert resumed.objective_trace[0] == pytest.approx(carried, rel=1e-10)
        assert resumed.objective_trace[-1] <= carried * (1.0 + 1e-12)

    def test_cannot_shrink_order(self):
        rng = np.random.default_rng(88)
        inst = random_instance(rng, n=6, dim=3, order=2)
        result = fit(inst.ds, inst.spectrum, k=1, order=2, max_iters=5)
        cache_low = build_cache(inst.ds.centered, inst.spectrum, order=1)
        with pytest.raises(DimensionMismatch):
            extend_order(result.model, cache_low)

    def test_failed_least_squares_is_a_data_error(self, monkeypatch):
        # the CLI never warm-starts, so only a sweep reaches this solver
        rng = np.random.default_rng(89)
        inst = random_instance(rng, n=8, dim=4, order=0)
        low = fit(inst.ds, inst.spectrum, k=2, order=0, max_iters=5)
        cache_high = build_cache(inst.ds.centered, inst.spectrum, order=1)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", failing)
        with pytest.raises(ConvergenceFailure) as caught:
            extend_order(low.model, cache_high)
        assert isinstance(caught.value, DataError)
        assert str(caught.value) == (
            "the reseeded coefficients' least squares failed: "
            "SVD did not converge in Linear Least Squares"
        )
        assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)


class TestTrainingKernel:

    def test_rank_on_the_acceptance_draws(self):
        # the 5 draws of the acceptance protocol (n=40, D=784, cosine knn=12).
        # The stacked feature kernel K lacks only the centring direction at
        # L=0, and has full rank n at L=1 and 2, so there some coefficients C
        # give C K = V for any reduced vectors V: on the training nodes the
        # reducing filter constrains nothing
        images, labels = synth_digits(10, 30, seed=0)
        cfg = ExperimentConfig(dataset_path="", classes_to_pick=4, images_per_class=10, seed=0)
        similarity = SimilarityConfig(kernel=Kernel.COSINE, knn=12)
        for trial in range(5):
            X = sample_subset(images, labels, cfg, trial)
            spectrum = build_graph(X, similarity)
            xt = center(X).centered @ spectrum.eigvecs
            kernels = [stacked_kernel(xt, spectrum.eigvals, order) for order in (0, 1, 2)]
            assert [np.linalg.matrix_rank(K) for K in kernels] == [39, 40, 40], trial
            # by a wide margin, not by rounding: at L=0 the 39th singular value
            # is about 1e-3 of the largest, at L >= 1 the condition numbers are
            # 9.5e2-1.03e4
            values = np.linalg.svd(kernels[0], compute_uv=False)
            assert values[-2] > 1e-6 * values[0], trial
            assert all(np.linalg.cond(K) < 1e5 for K in kernels[1:]), trial
