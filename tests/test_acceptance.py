"""End-to-end acceptance gate.

Each test is one released property of the package, checked at its stated
tolerance and instance budget, and prints a single [PASS]/[FAIL] line so
the whole gate can be read at a glance from the pytest output.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gfred.codec import (
    ReducedData,
    StorageBudget,
    compression_bound,
    load_model,
    reconstruct,
    reconstruction_mse,
    reduce,
    save_model,
)
from gfred.graph import Kernel, SimilarityConfig, build_graph
from gfred.harness import (
    DataFormat,
    ExperimentConfig,
    emit_csv,
    load_idx,
    run_sweep,
    synth_digits,
)
from gfred.optimizer import FilterModel, fit, init_filters, stationarity_residual
from gfred.pca import pca_fit, pca_mse
from gfred.spectral import center, igft, reducing_taps

from oracles import (
    descend,
    fd_grad_coeffs,
    fd_grad_taps,
    grad_coeffs,
    grad_taps,
    kron_reconstruct,
    kron_reduce,
    planted,
    random_filters,
    random_instance,
    scan_best_step,
    step_coeffs,
    step_taps,
    tap_stack,
)


@contextmanager
def criterion(capsys, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {name} ({time.perf_counter() - started:.2f}s)")
        raise
    with capsys.disabled():
        print(f"[PASS] {name} ({time.perf_counter() - started:.2f}s)")


def test_order_zero_start_matches_pca(capsys):
    # untrained order-0 models (max_iters=0) must reconstruct exactly as
    # well as the PCA baseline: 20+ instances, 1e-8 relative, under 1 s
    with criterion(capsys, "order-0 start reconstructs at the PCA baseline"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n = int(rng.integers(6, 17))
            dim = int(rng.integers(2, 13))
            # keep k below the data rank so the baseline MSE is a real
            # eigenvalue tail; at k == rank both sides are exact zeros and
            # a relative comparison of rounding noise is meaningless
            k = int(rng.integers(1, min(4, dim - 1, n - 2) + 1))
            inst = random_instance(rng, n=n, dim=dim, order=0)
            result = fit(inst.ds, inst.spectrum, k, 0, max_iters=0)
            mse = reconstruction_mse(result.model, inst.ds, inst.spectrum)
            baseline = pca_mse(inst.ds, pca_fit(inst.ds, k))
            assert abs(mse - baseline) <= 1e-8 * baseline, (n, dim, k, mse, baseline)
        assert time.perf_counter() - started < 1.0


def test_gradients_match_finite_differences(capsys):
    # the reference's analytic gradients against central differences of
    # its objective (tests/oracles.py), 50+ instances; per entry: 1e-5
    # relative, or 1e-8 absolute for entries whose finite-difference value
    # is below 1e-8; under 10 s. fit's own steps are held to the reference
    # by the line-search criterion below
    with criterion(capsys, "analytic gradients match central differences"):
        started = time.perf_counter()
        rng = np.random.default_rng(2025)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            dim = int(rng.integers(1, 6))
            order = int(rng.integers(0, 4))
            k = int(rng.integers(1, min(3, dim) + 1))
            inst = random_instance(rng, n=n, dim=dim, order=order)
            taps, coeffs = random_filters(rng, inst.cache, k)
            ref = inst.ref
            for got, want in (
                (grad_taps(ref, taps, coeffs), fd_grad_taps(ref, taps, coeffs)),
                (grad_coeffs(ref, taps, coeffs), fd_grad_coeffs(ref, taps, coeffs)),
            ):
                small = np.abs(want) < 1e-8
                gap = np.abs(got - want)
                assert np.all(gap[small] <= 1e-8), (n, dim, order, k)
                assert np.all(gap[~small] <= 1e-5 * np.abs(want)[~small]), (n, dim, order, k)
        assert time.perf_counter() - started < 10.0


@pytest.mark.filterwarnings("ignore::gfred.errors.RankDeficiencyWarning")
def test_line_search_is_exact(capsys):
    # both of the reference's closed-form steps must land on the minimum
    # of a 1001-point dense scan over [0, 4*step] (within one cell), and
    # every half-update of a full training run must be non-increasing with
    # 1e-12 slack. That run, from the PCA seed, must follow the reference
    # descent: taps and coefficients to 1e-10 relative, and each trace
    # entry to 1e-10 times the data's mean energy
    with criterion(capsys, "closed-form steps minimize the objective along the ray"):
        started = time.perf_counter()
        rng = np.random.default_rng(2026)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            dim = int(rng.integers(2, 6))
            order = int(rng.integers(0, 4))
            k = int(rng.integers(1, min(3, dim) + 1))
            inst = random_instance(rng, n=n, dim=dim, order=order)
            taps, coeffs = random_filters(rng, inst.cache, k)
            ref = inst.ref

            direction = grad_taps(ref, taps, coeffs)
            step = step_taps(ref, taps, coeffs, direction)
            best, spacing = scan_best_step(ref, taps, coeffs, direction, step, "taps")
            assert abs(best - step) <= spacing

            direction = grad_coeffs(ref, taps, coeffs)
            step = step_coeffs(ref, taps, coeffs, direction)
            best, spacing = scan_best_step(ref, taps, coeffs, direction, step, "coeffs")
            assert abs(best - step) <= spacing

            result = fit(inst.ds, inst.spectrum, k, order, max_iters=40)
            assert np.all(np.diff(result.objective_trace) <= 1e-12)

            seed_taps, seed_coeffs = init_filters(pca_fit(inst.ds, k), inst.cache)
            trace, taps, coeffs = descend(ref, seed_taps, seed_coeffs, result.iterations)
            model = result.model
            energy = float(np.sum(inst.ds.centered**2)) / n
            gap = np.abs(result.objective_trace - trace).max()
            assert gap <= 1e-10 * energy, (n, dim, order, k, gap)
            for got, want in ((model.recon_taps, taps), (model.coeffs, coeffs)):
                gap = np.linalg.norm(got - want)
                assert gap <= 1e-10 * np.linalg.norm(want), (n, dim, order, k, gap)
        assert time.perf_counter() - started < 10.0


def test_spectral_paths_match_vertex_filter_banks(capsys):
    # the per-frequency fast paths must agree with the literal Kronecker
    # filter banks to 1e-10 relative on 30+ instances (n<=8, dim<=8, L<=4)
    with criterion(capsys, "fast reduce/reconstruct match the literal filter banks"):
        started = time.perf_counter()
        rng = np.random.default_rng(2027)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 9))
            order = int(rng.integers(0, 5))
            k = int(rng.integers(1, dim + 1))
            inst = random_instance(rng, n=n, dim=dim, order=order)
            taps, coeffs = random_filters(rng, inst.cache, k)
            model = FilterModel(
                order=order, k=k, recon_taps=taps, coeffs=coeffs,
                mean=inst.ds.mean.copy(),
                spectrum=inst.spectrum,
            )

            fast = reduce(model, inst.ds, inst.spectrum).values
            literal = kron_reduce(
                inst.spectrum.adjacency,
                reducing_taps(coeffs, inst.cache.gft_data, inst.cache.eig_pows).reshape(
                    order + 1, k, dim
                ),
                inst.ds.centered,
            )
            assert np.abs(fast - literal).max() <= 1e-10 * max(1.0, np.abs(literal).max())
            # the taps above come from the same function reduce uses; the
            # training kernel checks reduce without them
            literal = igft(coeffs @ inst.cache.kernel, inst.spectrum)
            assert np.abs(fast - literal).max() <= 1e-10 * max(1.0, np.abs(literal).max())

            reduced = ReducedData(values=rng.normal(size=(k, n)))
            fast = reconstruct(model, reduced, inst.spectrum) - model.mean[:, None]
            literal = kron_reconstruct(
                inst.spectrum.adjacency, tap_stack(taps, order + 1), reduced.values
            )
            assert np.abs(fast - literal).max() <= 1e-10 * max(1.0, np.abs(literal).max())
        assert time.perf_counter() - started < 10.0


def test_converged_runs_are_stationary(capsys):
    # tight-threshold training (epsilon=1e-8, max 2000 sweeps, n=6, dim=5)
    # may stop only at points where both gradients have collapsed:
    # |grad_taps| + |grad_coeffs| <= 1e-6 * (1 + objective). Order-0 runs
    # and full-width runs (k = dim, where the seed already interpolates)
    # stop in one sweep; near-full width (k = 4) takes hundreds of sweeps
    # first, so the stopping rule is exercised from both ends. (Some runs
    # zigzag along the taps @ coeffs gauge valley for more than 2000
    # sweeps; those honestly report converged=False and make no
    # stationarity claim, so the contract is vacuous for them.)
    with criterion(capsys, "converged training runs end at stationary points"):
        rng = np.random.default_rng(2028)
        jobs = [(k, 0) for k in (1, 2, 3)]
        jobs += [(5, order) for order in (1, 2) for _ in range(3)]
        jobs += [(4, order) for order in (1, 2) for _ in range(4)]
        nontrivial = 0
        for k, order in jobs:
            inst = random_instance(rng, n=6, dim=5, order=order)
            result = fit(
                inst.ds, inst.spectrum, k, order,
                epsilon=1e-8, max_iters=2000,
            )
            if order == 0 or k == 5:
                assert result.converged, (k, order, result.iterations)
            if not result.converged:
                continue
            if order >= 1 and result.iterations >= 10:
                nontrivial += 1
            final = float(result.objective_trace[-1])
            resid = stationarity_residual(result.model, inst.cache)
            assert resid <= 1e-6 * (1.0 + final), (k, order, resid, final)
        # the claim must not pass by vacuity: demand real multi-sweep runs
        assert nontrivial >= 2, nontrivial


def test_compression_bound_arithmetic(capsys):
    # the image-sized reference case, plus an exhaustive check that the
    # strict inequality stored < raw holds exactly for k up to the bound
    with criterion(capsys, "compression bound is the exact strict crossover"):
        assert compression_bound(140, 784, 1) == 54
        for n in range(1, 31):
            raw = None
            for dim in range(1, 41):
                raw = n * dim
                for order in range(4):
                    bound = compression_bound(n, dim, order)
                    for k in range(1, bound + 4):
                        stored = StorageBudget.from_dims(n, dim, k, order).stored_scalars
                        assert (stored < raw) == (k <= bound), (n, dim, order, k)


def _trend_dataset(tmp_path):
    """Official IDX pool when GFRED_MNIST_DIR is set, synthetic otherwise."""
    root = os.environ.get("GFRED_MNIST_DIR")
    if root:
        path = os.path.join(root, "train-images-idx3-ubyte")
        load_idx(path)  # fail early if the directory is wrong
        return path, DataFormat.IDX
    images, labels = synth_digits(n_classes=10, per_class=30, seed=0, size=28)
    path = tmp_path / "digits.csv"
    lines = [",".join(str(int(v)) for v in labels)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in images)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path), DataFormat.CSV


def test_higher_orders_improve_on_the_baseline(capsys, tmp_path):
    # protocol: 5 trials of 4 classes x 10 images (n=40, dim=784), cosine
    # graph with knn=12, k in {5, 10, 20}, orders 0..2. Mean final MSE at
    # L=1 and L=2 must sit at or below the PCA baseline mean for every k
    # and at least 1% below it for at least one k, in under 5 minutes.
    with criterion(capsys, "higher filter orders beat the PCA baseline on image data"):
        started = time.perf_counter()
        path, fmt = _trend_dataset(tmp_path)
        cfg = ExperimentConfig(
            dataset_path=path,
            dataset_format=fmt,
            classes_to_pick=4,
            images_per_class=10,
            trials=5,
            seed=0,
            similarity=SimilarityConfig(kernel=Kernel.COSINE, knn=12),
            k_list=(5, 10, 20),
            L_list=(0, 1, 2),
        )
        report = run_sweep(cfg)
        assert not report.failures, report.failures[:3]
        def mean(values):
            return sum(values) / len(values)

        means = {
            (k, L): mean([r.final_mse for r in report.rows if (r.k, r.L) == (k, L)])
            for k in (5, 10, 20) for L in (1, 2)
        }
        baselines = {k: mean([r.pca_mse for r in report.rows if (r.k, r.L) == (k, 0)])
                     for k in (5, 10, 20)}
        improvements = []
        for k in (5, 10, 20):
            for L in (1, 2):
                assert means[(k, L)] <= baselines[k] * (1.0 + 1e-12), (k, L)
            improvements.append(1.0 - means[(k, 2)] / baselines[k])
        assert max(improvements) >= 0.01, improvements
        assert time.perf_counter() - started < 300.0


def test_deterministic_outputs(capsys, tmp_path):
    # two serial sweeps of one config must emit byte-identical CSV (the
    # wall-time column uses the injected clock), and a model file must
    # survive a save/load cycle bit for bit
    with criterion(capsys, "serial sweeps and model files are bit-reproducible"):
        rng = np.random.default_rng(2029)
        images, labels = synth_digits(n_classes=3, per_class=8, seed=4, size=8)
        data = tmp_path / "pool.csv"
        lines = [",".join(str(int(v)) for v in labels)]
        lines.extend(",".join(repr(float(v)) for v in row) for row in images)
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = ExperimentConfig(
            dataset_path=str(data),
            dataset_format=DataFormat.CSV,
            classes_to_pick=2,
            images_per_class=6,
            trials=2,
            seed=5,
            similarity=SimilarityConfig(kernel=Kernel.COSINE, knn=4),
            k_list=(2, 4),
            L_list=(0, 1),
            max_iters=80,
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg, timer=lambda: 0.0), out_a)
        emit_csv(run_sweep(cfg, timer=lambda: 0.0), out_b)
        assert out_a.read_bytes() == out_b.read_bytes()
        assert len(out_a.read_text().splitlines()) == 1 + 2 * 2 * 2

        inst = random_instance(rng, n=8, dim=5, order=1)
        result = fit(inst.ds, inst.spectrum, k=2, order=1, max_iters=10)
        reduced = reduce(result.model, inst.ds, inst.spectrum)
        first, second = tmp_path / "m1.gfm", tmp_path / "m2.gfm"
        save_model(result.model, inst.spectrum, reduced, first)
        loaded = load_model(first)
        assert np.array_equal(loaded.model.recon_taps, result.model.recon_taps)
        assert np.array_equal(loaded.model.coeffs, result.model.coeffs)
        assert np.array_equal(loaded.model.mean, result.model.mean)
        assert np.array_equal(loaded.spectrum.eigvals, inst.spectrum.eigvals)
        assert np.array_equal(loaded.spectrum.eigvecs, inst.spectrum.eigvecs)
        assert np.array_equal(loaded.reduced.values, reduced.values)
        save_model(loaded.model, loaded.spectrum, loaded.reduced, second)
        assert first.read_bytes() == second.read_bytes()


@pytest.fixture(scope="module")
def digit_graph():
    """The cosine knn=12 graph of 40 digits: classes 0, 3, 5 and 8 of
    ``synth_digits(10, 30, seed=0)``, the first 10 images of each."""
    images, labels = synth_digits(10, 30, seed=0)
    chosen = np.concatenate([np.flatnonzero(labels == c)[:10] for c in (0, 3, 5, 8)])
    return build_graph(images[:, chosen], SimilarityConfig(kernel=Kernel.COSINE, knn=12))


def planted_ratios(spectrum, sigma, max_iters):
    """Per seed 0, 1, 2: the squared error against the clean planted data
    (k=3, L=1) of a k=3, L=1 fit of the noisy data on the given graph,
    over that of PCA(3)'s projection of the noisy data. Both are taken
    after removing the noisy data's mean."""
    ratios = []
    for seed in (0, 1, 2):
        clean, noisy = planted(spectrum, 784, 3, 1, sigma, seed)
        ds = center(noisy)
        pca = pca_fit(ds, 3)
        model = fit(ds, spectrum, k=3, order=1, max_iters=max_iters, start=pca).model
        recon = reconstruct(model, reduce(model, ds, spectrum), spectrum) - ds.mean[:, None]
        projection = pca.basis @ (pca.basis.T @ ds.centered)
        ratios.append(float(np.sum((recon - clean) ** 2) / np.sum((projection - clean) ** 2)))
    return ratios


def test_planted_noise_free_model_is_recovered(capsys, digit_graph):
    # data an order-1, k=3 filter pair makes exactly on a given graph:
    # 500 iterations end far below PCA(3) (0.088, 0.007, 0.065 measured)
    with criterion(capsys, "noise-free planted data: fit error below 0.15 of PCA's"):
        ratios = planted_ratios(digit_graph, 0.0, 500)
        assert max(ratios) < 0.15, ratios


def test_planted_noisy_model_beats_pca(capsys, digit_graph):
    # the same data with noise of 0.5 x their std: after 50 iterations the
    # fit is closer to the clean data than PCA(3) (0.805, 0.418, 0.828)
    with criterion(capsys, "planted data at sigma=0.5: fit error below PCA's"):
        ratios = planted_ratios(digit_graph, 0.5, 50)
        assert max(ratios) < 1.0, ratios
