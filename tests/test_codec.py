"""Encode/decode paths against the literal vertex-domain filter bank,
storage accounting, and the model file format."""

import dataclasses
import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfred import graph, spectral
from gfred.codec import (
    ModelFile,
    ReducedData,
    StorageBudget,
    compression_bound,
    load_model,
    reconstruct,
    reconstruction_mse,
    reduce,
    save_model,
)
from gfred.errors import (
    CorruptFile,
    DimensionMismatch,
    FingerprintMismatch,
    VersionMismatch,
)
from gfred.graph import Kernel, SimilarityConfig, eigendecompose, knn_sparsify, similarity_dense
from gfred.harness import synth_digits
from gfred.optimizer import FilterModel, fit, init_filters
from gfred.pca import pca_fit
from gfred.spectral import build_cache, center, reducing_taps

from oracles import (
    Instance,
    kron_reconstruct,
    kron_reduce,
    objective,
    random_filters,
    random_instance,
    spectral_reconstruct,
    spectral_reduce,
    tap_stack,
)


def raw_instance(rng, n, dim, order) -> Instance:
    """A kNN graph left at its raw scale (top eigenvalue above 1), as in
    model files written before build_graph scaled every graph to unit
    spectral radius; the codec must still serve them. The spectrum carries
    that unscaled kNN matrix as its adjacency for the Kronecker oracles."""
    X = rng.uniform(0.1, 1.0, size=(dim, n))
    cfg = SimilarityConfig(kernel=Kernel.COSINE, knn=3)
    adjacency = knn_sparsify(similarity_dense(X, cfg), cfg)
    spectrum = dataclasses.replace(eigendecompose(adjacency), adjacency=adjacency)
    assert spectrum.eigvals[0] > 1.0
    ds = center(X)
    return Instance(ds, spectrum, build_cache(ds.centered, spectrum, order))


def make_model(inst, taps, coeffs) -> FilterModel:
    return FilterModel(
        order=taps.shape[1] // coeffs.shape[0] - 1,
        k=coeffs.shape[0],
        recon_taps=taps,
        coeffs=coeffs,
        mean=inst.ds.mean.copy(),
        spectrum=inst.spectrum,
    )


def kron_cases(seed):
    """Eight random unit-radius instances, then one raw-scale instance,
    each with its filter count k."""
    rng = np.random.default_rng(seed)
    for _ in range(8):
        n = int(rng.integers(3, 8))
        dim = int(rng.integers(2, 6))
        order = int(rng.integers(0, 4))
        k = int(rng.integers(1, dim + 1))
        yield rng, random_instance(rng, n=n, dim=dim, order=order), k
    yield rng, raw_instance(rng, n=7, dim=5, order=3), 2


class TestAgainstKroneckerBank:

    def test_reduce_matches_literal_bank(self):
        for rng, inst, k in kron_cases(90):
            taps, coeffs = random_filters(rng, inst.cache, k)
            model = make_model(inst, taps, coeffs)
            fast = reduce(model, inst.ds, inst.spectrum)
            literal = kron_reduce(
                inst.spectrum.adjacency,
                reducing_taps(coeffs, inst.cache.gft_data, inst.cache.eig_pows).reshape(
                    model.order + 1, k, model.dim
                ),
                inst.ds.centered,
            )
            scale = max(1.0, np.abs(literal).max())
            assert np.abs(fast.values - literal).max() <= 1e-10 * scale

    def test_reconstruct_matches_literal_bank(self):
        for rng, inst, k in kron_cases(91):
            taps, coeffs = random_filters(rng, inst.cache, k)
            model = make_model(inst, taps, coeffs)
            reduced = ReducedData(values=rng.normal(size=(k, inst.spectrum.n)))
            fast = reconstruct(model, reduced, inst.spectrum) - model.mean[:, None]
            literal = kron_reconstruct(
                inst.spectrum.adjacency, tap_stack(taps, model.order + 1), reduced.values
            )
            scale = max(1.0, np.abs(literal).max())
            assert np.abs(fast - literal).max() <= 1e-10 * scale

    def test_reduce_gives_baseline_scores_at_order_zero(self):
        # at order 0 the seeded reducing filter reproduces the projection
        # onto the top principal directions, node by node
        rng = np.random.default_rng(92)
        inst = random_instance(rng, n=10, dim=4, order=0)
        taps, coeffs = init_filters(pca_fit(inst.ds, 2), inst.cache)
        model = make_model(inst, taps, coeffs)
        reduced = reduce(model, inst.ds, inst.spectrum)
        scores = taps[:, :2].T @ inst.ds.centered
        assert np.allclose(reduced.values, scores, rtol=1e-6, atol=1e-9)


# (n, dim): more nodes than rows, and more rows than nodes; dim exceeds
# (L+1)k at every order tested
SHAPES = {"wide": (30, 12), "tall": (12, 40)}


def record_transform_rows(monkeypatch) -> list:
    """Swap a recorder in for gft and igft wherever a gfred module binds
    them; the list it returns gets the row count of every call."""
    rows = []
    for original in (spectral.gft, spectral.igft):
        def recording(values, spectrum, _original=original):
            rows.append(np.shape(values)[0])
            return _original(values, spectrum)

        for name, module in list(sys.modules.items()):
            if name == "gfred" or name.startswith("gfred."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, recording)
    return rows


def association_case(seed, shape, order, k=2):
    """A random instance of ``SHAPES[shape]`` at ``order``, a random model
    of width ``k`` on it, and random reduced data for that model."""
    rng = np.random.default_rng([seed, order])
    inst = random_instance(rng, *SHAPES[shape], order)
    model = make_model(inst, *random_filters(rng, inst.cache, k))
    return inst, model, ReducedData(values=rng.normal(size=(k, inst.spectrum.n)))


class TestAssociations:
    """The codec transforms k-row and (L+1)k-row arrays only, and agrees
    with the same filters applied per frequency to the transformed data."""

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("shape", SHAPES, ids=list(SHAPES))
    def test_reduce_matches_the_spectral_association(self, shape, order):
        inst, model, _ = association_case(101, shape, order)
        want = spectral_reduce(model.coeffs, inst.ds.centered, inst.spectrum, order)
        got = reduce(model, inst.ds, inst.spectrum).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("shape", SHAPES, ids=list(SHAPES))
    def test_reconstruct_matches_the_spectral_association(self, shape, order):
        inst, model, reduced = association_case(102, shape, order)
        want = spectral_reconstruct(model.recon_taps, reduced.values, inst.spectrum, order)
        got = reconstruct(model, reduced, inst.spectrum) - model.mean[:, None]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("shape", SHAPES, ids=list(SHAPES))
    def test_transforms_act_on_stack_rows_only(self, monkeypatch, shape, order):
        inst, model, reduced = association_case(103, shape, order)
        rows = record_transform_rows(monkeypatch)
        for call, args in (
            (reduce, (model, inst.ds, inst.spectrum)),
            (reconstruct, (model, reduced, inst.spectrum)),
            (reconstruction_mse, (model, inst.ds, inst.spectrum)),
        ):
            rows.clear()
            call(*args)
            assert rows, call.__name__
            assert max(rows) <= (order + 1) * model.k, (call.__name__, rows)


class TestRoundTrips:

    def test_full_rank_model_reconstructs_exactly(self):
        rng = np.random.default_rng(93)
        inst = random_instance(rng, n=12, dim=3, order=0)
        taps = np.eye(3)
        solved, *_ = np.linalg.lstsq(inst.cache.kernel, inst.cache.gft_data.T, rcond=None)
        model = make_model(inst, taps, solved.T)
        recon = reconstruct(model, reduce(model, inst.ds, inst.spectrum), inst.spectrum)
        X = inst.ds.centered + inst.ds.mean[:, None]
        assert np.abs(recon - X).max() <= 1e-9 * max(1.0, np.abs(X).max())

    def test_zero_reduced_decodes_to_the_mean(self):
        rng = np.random.default_rng(94)
        inst = random_instance(rng, n=6, dim=4, order=2)
        taps, coeffs = random_filters(rng, inst.cache, 2)
        model = make_model(inst, taps, coeffs)
        reduced = ReducedData(values=np.zeros((2, 6)))
        recon = reconstruct(model, reduced, inst.spectrum)
        assert np.allclose(recon, model.mean[:, None], atol=1e-12)

    def test_mse_agrees_with_training_objective(self):
        # the transform is an isometry, so vertex-domain error equals the
        # spectral-domain cost the trainer minimizes
        rng = np.random.default_rng(95)
        inst = random_instance(rng, n=9, dim=5, order=1)
        result = fit(inst.ds, inst.spectrum, k=2, order=1, max_iters=15)
        mse = reconstruction_mse(result.model, inst.ds, inst.spectrum)
        direct = objective(inst.ref, result.model.recon_taps, result.model.coeffs)
        assert mse == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("offset", [0.0, 1e9, 1e12])
    def test_mse_agrees_with_the_fit_on_offset_data(self, offset):
        # the error is taken on the centred reconstruction: adding the mean
        # back and subtracting it again would cost the digits the offset
        # holds (a relative drift of 8e-7 at 1e12)
        images, _ = synth_digits(4, 10, seed=0, size=12)
        X = images + offset
        ds = center(X)
        spectrum = graph.build_graph(X, SimilarityConfig(kernel=Kernel.COSINE, knn=3))
        result = fit(ds, spectrum, k=2, order=1, max_iters=50)
        mse = reconstruction_mse(result.model, ds, spectrum)
        assert mse == pytest.approx(float(result.objective_trace[-1]), rel=1e-12, abs=0.0)


class TestGuards:

    def test_wrong_spectrum_is_rejected(self):
        rng = np.random.default_rng(98)
        inst = random_instance(rng, n=6, dim=3, order=1)
        other = random_instance(np.random.default_rng(4242), n=6, dim=3, order=1)
        taps, coeffs = random_filters(rng, inst.cache, 2)
        model = make_model(inst, taps, coeffs)
        with pytest.raises(FingerprintMismatch):
            reduce(model, other.ds, other.spectrum)
        reduced = ReducedData(values=np.zeros((2, 6)))
        with pytest.raises(FingerprintMismatch):
            reconstruct(model, reduced, other.spectrum)

    def test_a_rebuilt_graph_serves_the_model(self, tmp_path):
        # a second graph of the same data has the model's eigenpairs, value
        # for value, and serves it; the graph of other data does not
        X = np.random.default_rng(19).uniform(0.1, 1.0, size=(4, 10))
        cfg = SimilarityConfig(kernel=Kernel.COSINE, knn=3)
        ds = center(X)
        model = fit(ds, graph.build_graph(X, cfg), k=2, order=1, max_iters=5).model
        rebuilt, shifted = graph.build_graph(X, cfg), graph.build_graph(X + 0.1, cfg)
        assert rebuilt is not model.spectrum
        reduced = reduce(model, ds, rebuilt)
        assert np.array_equal(reduced.values, reduce(model, ds, model.spectrum).values)
        assert np.array_equal(
            reconstruct(model, reduced, rebuilt), reconstruct(model, reduced, model.spectrum)
        )
        save_model(model, rebuilt, reduced, tmp_path / "m.gfm")
        with pytest.raises(FingerprintMismatch):
            reduce(model, ds, shifted)
        with pytest.raises(FingerprintMismatch):
            reconstruct(model, reduced, shifted)
        with pytest.raises(FingerprintMismatch):
            save_model(model, shifted, reduced, tmp_path / "x.gfm")

    def test_wrong_data_dimension_is_rejected(self):
        rng = np.random.default_rng(99)
        inst = random_instance(rng, n=6, dim=3, order=1)
        taps, coeffs = random_filters(rng, inst.cache, 2)
        model = make_model(inst, taps, coeffs)
        wide = center(rng.normal(size=(4, 6)))  # same n, one extra row
        with pytest.raises(DimensionMismatch):
            reduce(model, wide, inst.spectrum)
        with pytest.raises(DimensionMismatch):
            reconstruction_mse(model, wide, inst.spectrum)

    def test_reduced_shape_is_checked(self):
        rng = np.random.default_rng(100)
        inst = random_instance(rng, n=6, dim=3, order=0)
        taps, coeffs = random_filters(rng, inst.cache, 2)
        model = make_model(inst, taps, coeffs)
        bad = ReducedData(values=np.zeros((3, 6)))
        with pytest.raises(DimensionMismatch):
            reconstruct(model, bad, inst.spectrum)


class TestStorageAccounting:

    def test_reference_configuration(self):
        assert compression_bound(140, 784, 1) == 54

    def test_wide_image_configuration(self):
        bound = compression_bound(100, 10**6, 1)
        assert bound == 49
        assert abs(bound - 50) <= 1

    def test_tiny_configurations(self):
        assert compression_bound(1, 2, 0) == 0
        # stored(k=1) equals raw exactly here, strict inequality drops it
        assert compression_bound(2, 7, 0) == 0
        budget = StorageBudget.from_dims(2, 7, 1, 0)
        assert budget.stored_scalars == budget.raw_scalars == 14

    def test_exhaustive_against_linear_search(self):
        for n in range(1, 13):
            for dim in range(1, 16):
                for order in range(3):
                    best, k = 0, 1
                    while True:
                        stored = StorageBudget.from_dims(n, dim, k, order).stored_scalars
                        if stored < n * dim:
                            best, k = k, k + 1
                        else:
                            break
                    assert compression_bound(n, dim, order) == best, (n, dim, order)

    @given(
        n=st.integers(min_value=1, max_value=400),
        dim=st.integers(min_value=1, max_value=400),
        order=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_bound_is_the_strict_crossover(self, n, dim, order):
        bound = compression_bound(n, dim, order)
        raw = n * dim
        if bound >= 1:
            assert StorageBudget.from_dims(n, dim, bound, order).stored_scalars < raw
        assert StorageBudget.from_dims(n, dim, bound + 1, order).stored_scalars >= raw

    @given(
        n=st.integers(min_value=1, max_value=300),
        dim=st.integers(min_value=1, max_value=300),
        k=st.integers(min_value=1, max_value=50),
        order=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_budget_formulas(self, n, dim, k, order):
        b = StorageBudget.from_dims(n, dim, k, order)
        assert b.stored_scalars == k * (order + 1) * dim + 2 * k * n + n * (n + 1) // 2
        assert b.raw_scalars == n * dim
        assert b.pca_scalars == k * (dim + n)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            StorageBudget.from_dims(0, 3, 1, 0)
        with pytest.raises(ValueError):
            StorageBudget.from_dims(3, 3, 1, -1)
        with pytest.raises(ValueError):
            compression_bound(0, 3, 0)


# written by save_model at the commit before the payload layout moved to one
# shape list, from saved_fixture's inputs (seed 101, n=7, D=4, k=2, L=1)
V1_FILE = Path(__file__).parent / "data" / "model_v1.gfm"


def read_gfm(blob: bytes):
    """Header and arrays of a .gfm file of either version, parsed as README
    documents the layout: one dim x k tap after another, orders 0..L, read
    as the dim x (L+1)k bank [T_0 ... T_L], and in version 2 the dim x k
    training PCA basis after the reduced data."""
    assert blob[:4] == b"GFM1"
    (hlen,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + hlen])
    n, dim, k, order = header["n"], header["D"], header["k"], header["L"]
    offset = 8 + hlen

    def take(*shape):
        nonlocal offset
        count = int(np.prod(shape))
        flat = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        return flat.reshape(shape, order="F")

    arrays = {
        "mean": take(dim),
        "eigvals": take(n),
        "eigvecs": take(n, n),
        "taps": np.hstack([take(dim, k) for _ in range(order + 1)]),
        "coeffs": take(k, n),
        "reduced": take(k, n),
    }
    if header["version"] == 2:
        arrays["pca_basis"] = take(dim, k)
    assert offset == len(blob)
    return header, arrays


def loaded_arrays(loaded: ModelFile):
    arrays = {
        "mean": loaded.model.mean,
        "eigvals": loaded.spectrum.eigvals,
        "eigvecs": loaded.spectrum.eigvecs,
        "taps": loaded.model.recon_taps,
        "coeffs": loaded.model.coeffs,
        "reduced": loaded.reduced.values,
    }
    if loaded.model.pca_basis is not None:
        arrays["pca_basis"] = loaded.model.pca_basis
    return arrays


def owner(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def saved_fixture(tmp_path, seed=101, make_instance=random_instance):
    rng = np.random.default_rng(seed)
    inst = make_instance(rng, n=7, dim=4, order=1)
    result = fit(inst.ds, inst.spectrum, k=2, order=1, max_iters=8)
    reduced = reduce(result.model, inst.ds, inst.spectrum)
    path = tmp_path / f"{make_instance.__name__}.gfm"
    save_model(result.model, inst.spectrum, reduced, path)
    return inst, result.model, reduced, path


class TestModelFile:

    def test_round_trip_is_bit_exact(self, tmp_path):
        # a raw-scale spectrum too: model files from before graphs were
        # scaled to unit radius still load, re-save and decode unchanged
        for make_instance in (random_instance, raw_instance):
            inst, model, reduced, path = saved_fixture(tmp_path, make_instance=make_instance)
            loaded = load_model(path)
            assert isinstance(loaded, ModelFile)
            assert np.array_equal(loaded.model.recon_taps, model.recon_taps)
            assert np.array_equal(loaded.model.coeffs, model.coeffs)
            assert np.array_equal(loaded.model.mean, model.mean)
            assert np.array_equal(loaded.spectrum.eigvals, inst.spectrum.eigvals)
            assert np.array_equal(loaded.spectrum.eigvecs, inst.spectrum.eigvecs)
            assert np.array_equal(loaded.reduced.values, reduced.values)
            # the training basis the fit stored, which makes the file version 2
            assert np.array_equal(loaded.model.pca_basis, model.pca_basis)
            assert loaded.model.order == model.order and loaded.model.k == model.k
            # the reloaded model holds the reloaded spectrum as its graph
            assert loaded.model.spectrum is loaded.spectrum
            again = tmp_path / f"again-{path.name}"
            save_model(loaded.model, loaded.spectrum, loaded.reduced, again)
            assert again.read_bytes() == path.read_bytes()
            assert np.array_equal(
                reconstruct(loaded.model, loaded.reduced, loaded.spectrum),
                reconstruct(model, reduced, inst.spectrum),
            )
            assert np.array_equal(
                reduce(loaded.model, inst.ds, loaded.spectrum).values,
                reduce(model, inst.ds, inst.spectrum).values,
            )
            assert reconstruction_mse(loaded.model, inst.ds, loaded.spectrum) == (
                reconstruction_mse(model, inst.ds, inst.spectrum)
            )
            # loading derives nothing and copies nothing: every array is a
            # read-only, aligned view of the one payload buffer
            assert loaded.spectrum.adjacency is None
            arrays = loaded_arrays(loaded)
            buffer = owner(arrays["mean"])
            for name, array in arrays.items():
                assert array.flags.aligned and not array.flags.writeable, name
                assert owner(array) is buffer and np.shares_memory(array, buffer), name

    def test_a_model_with_no_basis_is_version_1(self, tmp_path):
        # a fit warm-started from a model with no basis (one read from a
        # version-1 file) has none either, and is written as version 1
        inst, model, reduced, _ = saved_fixture(tmp_path)
        start = dataclasses.replace(model, pca_basis=None)
        result = fit(inst.ds, inst.spectrum, k=2, order=2, max_iters=3, start=start)
        assert result.model.pca_basis is None
        path = tmp_path / "no-basis.gfm"
        save_model(result.model, inst.spectrum, reduce(result.model, inst.ds, inst.spectrum), path)
        header, arrays = read_gfm(path.read_bytes())
        assert header["version"] == 1 and "pca_basis" not in arrays
        assert load_model(path).model.pca_basis is None

    def test_basis_shape_is_checked_on_save(self, tmp_path):
        inst, model, reduced, _ = saved_fixture(tmp_path)
        wide = dataclasses.replace(model, pca_basis=np.zeros((4, 3)))
        with pytest.raises(DimensionMismatch):
            save_model(wide, inst.spectrum, reduced, tmp_path / "x.gfm")

    def test_parent_written_file_loads_as_stored(self, tmp_path):
        blob = V1_FILE.read_bytes()
        header, expected = read_gfm(blob)
        assert (header["n"], header["D"], header["k"], header["L"]) == (7, 4, 2, 1)
        loaded = load_model(V1_FILE)
        for name, array in loaded_arrays(loaded).items():
            assert array.shape == expected[name].shape, name
            assert np.array_equal(array, expected[name]), name
        again = tmp_path / "again.gfm"
        save_model(loaded.model, loaded.spectrum, loaded.reduced, again)
        assert again.read_bytes() == blob

    def test_reloaded_model_decodes_identically(self, tmp_path):
        inst, model, reduced, path = saved_fixture(tmp_path)
        loaded = load_model(path)
        a = reconstruct(model, reduced, inst.spectrum)
        b = reconstruct(loaded.model, loaded.reduced, loaded.spectrum)
        assert np.array_equal(a, b)

    def test_writing_twice_gives_identical_bytes(self, tmp_path):
        inst, model, reduced, path = saved_fixture(tmp_path)
        other = tmp_path / "again.gfm"
        save_model(model, inst.spectrum, reduced, other)
        assert path.read_bytes() == other.read_bytes()

    def test_header_is_json_with_accounting(self, tmp_path):
        # the training basis the fit stored makes the file version 2; the
        # scalar counts are the codec's and leave the baseline's basis out
        _, model, _, path = saved_fixture(tmp_path)
        header, arrays = read_gfm(path.read_bytes())
        budget = StorageBudget.from_dims(7, 4, 2, 1)
        assert header["version"] == 2
        assert np.array_equal(arrays["pca_basis"], model.pca_basis)
        assert header["domain"] == "vertex"
        assert header["n"] == 7 and header["D"] == 4
        assert header["k"] == 2 and header["L"] == 1
        assert header["stored_scalars"] == budget.stored_scalars
        assert header["raw_scalars"] == budget.raw_scalars
        assert header["pca_scalars"] == budget.pca_scalars

    def test_a_model_is_paired_with_its_own_spectrum_unread(self, tmp_path, monkeypatch):
        # fit, reduce and save_model each check the spectrum a model is
        # served with, and a loaded model's reduce, reconstruct and save
        # check it again. Each time it is the model's own spectrum: no hash
        # is taken, and no comparison is given its eigenvectors
        def no_hash(*args, **kwargs):
            raise AssertionError("an eigenpair hash was taken")

        compared, array_equal = [], np.array_equal

        def spy(a, b, *args, **kwargs):
            compared.append((a, b))
            return array_equal(a, b, *args, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", no_hash)
        monkeypatch.setattr(np, "array_equal", spy)
        inst = random_instance(np.random.default_rng(104), n=7, dim=4, order=1)
        model = fit(inst.ds, inst.spectrum, k=2, order=1, max_iters=3).model
        reduced = reduce(model, inst.ds, inst.spectrum)
        save_model(model, inst.spectrum, reduced, tmp_path / "m.gfm")
        loaded = load_model(tmp_path / "m.gfm")
        reconstruct(loaded.model, reduce(loaded.model, inst.ds, loaded.spectrum), loaded.spectrum)
        save_model(loaded.model, loaded.spectrum, loaded.reduced, tmp_path / "again.gfm")
        eigvecs = (inst.spectrum.eigvecs, loaded.spectrum.eigvecs)
        given = [
            arg for pair in compared for arg in pair
            if isinstance(arg, np.ndarray) and any(np.shares_memory(arg, v) for v in eigvecs)
        ]
        assert not given

    def test_save_rejects_mismatched_pieces(self, tmp_path):
        inst, model, reduced, _ = saved_fixture(tmp_path)
        other = random_instance(np.random.default_rng(555), n=7, dim=4, order=1)
        with pytest.raises(FingerprintMismatch):
            save_model(model, other.spectrum, reduced, tmp_path / "x.gfm")
        bad = ReducedData(values=np.zeros((3, 7)))
        with pytest.raises(DimensionMismatch):
            save_model(model, inst.spectrum, bad, tmp_path / "y.gfm")


class TestCorruption:

    def test_bad_magic(self, tmp_path):
        _, _, _, path = saved_fixture(tmp_path)
        blob = path.read_bytes()
        (tmp_path / "bad.gfm").write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(CorruptFile):
            load_model(tmp_path / "bad.gfm")

    def test_short_file(self, tmp_path):
        (tmp_path / "tiny.gfm").write_bytes(b"GF")
        with pytest.raises(CorruptFile):
            load_model(tmp_path / "tiny.gfm")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short-header.gfm"
        path.write_bytes(b"GFM1" + struct.pack("<I", 64) + b'{"version":1}')
        with pytest.raises(CorruptFile) as caught:
            load_model(path)
        assert str(caught.value) == f"{path}: truncated header"

    def test_header_missing_a_key(self, tmp_path):
        _, _, _, path = saved_fixture(tmp_path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[4:8])
        header = json.loads(blob[8 : 8 + hlen])
        del header["checksum"]
        hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        out = tmp_path / "no-checksum.gfm"
        out.write_bytes(blob[:4] + struct.pack("<I", len(hb)) + hb + blob[8 + hlen :])
        with pytest.raises(CorruptFile) as caught:
            load_model(out)
        assert str(caught.value) == f"{out}: incomplete header: 'checksum'"

    def test_truncated_payload(self, tmp_path):
        _, _, _, path = saved_fixture(tmp_path)
        blob = path.read_bytes()
        (tmp_path / "cut.gfm").write_bytes(blob[:-8])
        with pytest.raises(CorruptFile):
            load_model(tmp_path / "cut.gfm")

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        _, _, _, path = saved_fixture(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        (tmp_path / "flip.gfm").write_bytes(bytes(blob))
        with pytest.raises(CorruptFile):
            load_model(tmp_path / "flip.gfm")

    @pytest.mark.parametrize(
        "field, value",
        [("recon_taps", np.nan), ("mean", np.inf), ("reduced", -np.inf)],
        ids=["nan-tap", "inf-mean", "inf-reduced"],
    )
    def test_non_finite_payload_value(self, tmp_path, field, value):
        # written through save_model, so the checksum covers the bad value
        inst, model, reduced, _ = saved_fixture(tmp_path)
        if field == "reduced":
            values = reduced.values.copy()
            values[1, 2] = value
            reduced = ReducedData(values=values)
        else:
            array = getattr(model, field).copy()
            array.flat[0] = value
            model = dataclasses.replace(model, **{field: array})
        path = tmp_path / "nonfinite.gfm"
        save_model(model, inst.spectrum, reduced, path)
        with pytest.raises(CorruptFile, match="not finite"):
            load_model(path)

    def test_unreadable_header(self, tmp_path):
        _, _, _, path = saved_fixture(tmp_path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[4:8])
        garbage = blob[:8] + b"{" * hlen + blob[8 + hlen :]
        (tmp_path / "garble.gfm").write_bytes(garbage)
        with pytest.raises(CorruptFile):
            load_model(tmp_path / "garble.gfm")

    def rewrite_header(self, path, out, **changes):
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[4:8])
        header = json.loads(blob[8 : 8 + hlen])
        header.update(changes)
        hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        out.write_bytes(blob[:4] + struct.pack("<I", len(hb)) + hb + blob[8 + hlen :])

    @pytest.mark.parametrize("version", [3, True])
    def test_unsupported_version(self, tmp_path, version):
        _, _, _, path = saved_fixture(tmp_path)
        self.rewrite_header(path, tmp_path / "v3.gfm", version=version)
        with pytest.raises(VersionMismatch):
            load_model(tmp_path / "v3.gfm")

    @pytest.mark.parametrize("version", [1, 2])
    def test_payload_of_the_other_version(self, tmp_path, version):
        # each version's header with the other version's payload: the loader
        # finds the payload size wrong before it reads any array
        if version == 2:
            path = V1_FILE
        else:
            _, _, _, path = saved_fixture(tmp_path)
        out = tmp_path / "other.gfm"
        self.rewrite_header(path, out, version=version)
        with pytest.raises(CorruptFile, match="payload is"):
            load_model(out)

    @pytest.mark.parametrize("key", ["stored_scalars", "raw_scalars", "pca_scalars"])
    def test_wrong_accounting(self, tmp_path, key):
        _, _, _, path = saved_fixture(tmp_path)
        self.rewrite_header(path, tmp_path / "acct.gfm", **{key: 12345})
        with pytest.raises(CorruptFile):
            load_model(tmp_path / "acct.gfm")

    @pytest.mark.parametrize("domain", ["nowhere", "spectral"])
    def test_unknown_domain(self, tmp_path, domain):
        _, _, _, path = saved_fixture(tmp_path)
        self.rewrite_header(path, tmp_path / "dom.gfm", domain=domain)
        with pytest.raises(CorruptFile):
            load_model(tmp_path / "dom.gfm")

    @pytest.mark.parametrize(
        "header",
        [[1, 2], {"n": "3"}, {"n": -3}],
        ids=["not-an-object", "string-dimension", "negative-dimension"],
    )
    def test_malformed_header(self, tmp_path, header):
        _, _, _, path = saved_fixture(tmp_path)
        out = tmp_path / "malformed.gfm"
        if isinstance(header, dict):
            self.rewrite_header(path, out, **header)
        else:
            blob = path.read_bytes()
            (hlen,) = struct.unpack("<I", blob[4:8])
            hb = json.dumps(header).encode("utf-8")
            out.write_bytes(blob[:4] + struct.pack("<I", len(hb)) + hb + blob[8 + hlen :])
        with pytest.raises(CorruptFile):
            load_model(out)


# every key save_model writes, each checked against the header load_model
# rebuilds from the file's own n, D, k, L and payload checksum
HEADER_KEYS = (
    "D", "L", "checksum", "domain", "k", "n", "pca_scalars", "raw_scalars", "stored_scalars",
    "version",
)
WRONG_TYPES = {"true": True, "string": "x", "float": 1.5, "null": None}


def header_corruptions():
    """(key, new value or None to remove the key) for every header key:
    each wrong JSON type, and for an integer key one higher and the equal float."""
    header, _ = read_gfm(V1_FILE.read_bytes())
    cases = []
    for key in HEADER_KEYS:
        cases.append(pytest.param(key, None, id=f"{key}-removed"))
        cases.extend(
            pytest.param(key, (value,), id=f"{key}-{name}") for name, value in WRONG_TYPES.items()
        )
        if type(header[key]) is int:
            cases.append(pytest.param(key, (header[key] + 1,), id=f"{key}-plus-one"))
            cases.append(pytest.param(key, (float(header[key]),), id=f"{key}-equal-float"))
    return cases


class TestHeaderDefinition:

    def write(self, out, header):
        blob = V1_FILE.read_bytes()
        (hlen,) = struct.unpack("<I", blob[4:8])
        hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        out.write_bytes(blob[:4] + struct.pack("<I", len(hb)) + hb + blob[8 + hlen :])

    def test_saved_header_has_the_listed_keys(self, tmp_path):
        _, _, _, path = saved_fixture(tmp_path)
        header, _ = read_gfm(path.read_bytes())
        assert tuple(sorted(header)) == HEADER_KEYS

    @pytest.mark.parametrize("key, change", header_corruptions())
    def test_every_key_is_checked(self, tmp_path, key, change):
        header, _ = read_gfm(V1_FILE.read_bytes())
        if change is None:
            del header[key]
        else:
            (header[key],) = change
        out = tmp_path / "changed.gfm"
        self.write(out, header)
        want = VersionMismatch if key == "version" else CorruptFile
        if (key, change) == ("version", (2,)):
            # a supported version, whose payload the version-1 file does not hold
            want = CorruptFile
        with pytest.raises(want):
            load_model(out)

    def test_unknown_extra_key_is_ignored(self, tmp_path):
        header, expected = read_gfm(V1_FILE.read_bytes())
        out = tmp_path / "extra.gfm"
        self.write(out, {**header, "comment": "written by another tool"})
        loaded = load_model(out)
        for name, array in loaded_arrays(loaded).items():
            assert np.array_equal(array, expected[name]), name
