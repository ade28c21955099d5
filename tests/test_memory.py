"""Memory that the fit's n x n stages, the codec, the residual costs and
the CSV reader and writer hold, counted with tracemalloc.

numpy reports every array buffer it allocates to tracemalloc, so these
counts repeat exactly from run to run. The scratch that LAPACK works in
during a solve is allocated outside numpy's allocator and is not counted.
Bounds are stated in arrays: ``SQUARE`` is one n x n array of float64.
"""
import dataclasses
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from gfred import cli, codec, graph, harness
from gfred.errors import ConvergenceFailure
from gfred.graph import Kernel, SimilarityConfig, build_graph, connected_components
from gfred.optimizer import FilterModel, check_spectrum, fit, init_filters
from gfred.pca import pca_fit, pca_mse
from gfred.spectral import build_cache

from oracles import random_instance

N, DIM, K, ORDER = 200, 20, 3, 2
SQUARE = 8 * N * N


def traced_peak(call, *args):
    """``call(*args)`` and the most bytes its allocations held at once."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        out = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - start


@pytest.fixture
def inst():
    return random_instance(np.random.default_rng(23), N, DIM, ORDER)


def test_build_graph_eigenvectors_are_column_major():
    X = np.random.default_rng(4).normal(size=(DIM, N))
    spectrum = build_graph(X, SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=1.0 / DIM, knn=3))
    assert spectrum.eigvecs.flags.f_contiguous


def test_build_graph_holds_one_adjacency():
    # four components, so eigendecompose's blocks are small and the peak
    # is the similarity and kNN stage: the kNN matrix is scaled in place
    # into the one adjacency, with no copy of it
    X, _ = harness.synth_digits(4, 75, seed=0, size=12)
    n = X.shape[1]
    spectrum, peak = traced_peak(build_graph, X, SimilarityConfig(kernel=Kernel.COSINE, knn=8))
    assert len(connected_components(spectrum.adjacency)) == 4
    assert peak < 2.8 * 8 * n * n


def test_spectrum_check_copies_no_eigenvectors():
    # a graph rebuilt from the model's data is compared value for value:
    # the one temporary is a boolean n x n array, an eighth of the eigenvectors
    X = np.random.default_rng(4).normal(size=(DIM, N))
    cfg = SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=1.0 / DIM, knn=3)
    model = FilterModel(
        order=0, k=1, recon_taps=np.zeros((DIM, 1)), coeffs=np.zeros((1, N)),
        mean=np.zeros(DIM), spectrum=build_graph(X, cfg),
    )
    rebuilt = build_graph(X, cfg)
    assert rebuilt is not model.spectrum
    _, peak = traced_peak(check_spectrum, model, rebuilt)
    assert peak < rebuilt.eigvecs.nbytes / 4


def test_build_cache_makes_no_square_temporary(inst):
    cache, peak = traced_peak(build_cache, inst.ds.centered, inst.spectrum, ORDER)
    assert np.array_equal(cache.kernel, inst.cache.kernel)
    assert peak < cache.kernel.nbytes + cache.gft_data.nbytes + SQUARE // 2


def test_init_filters_makes_no_square_system(inst):
    pca = pca_fit(inst.ds, K)
    _, peak = traced_peak(init_filters, pca, inst.cache)
    assert peak < SQUARE


def test_init_filters_gives_the_kernel_back_bit_identical(inst, monkeypatch):
    before = inst.cache.kernel.tobytes()
    pca = pca_fit(inst.ds, K)
    init_filters(pca, inst.cache)
    assert inst.cache.kernel.tobytes() == before

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing)
    with pytest.raises(ConvergenceFailure):
        init_filters(pca, inst.cache)
    assert inst.cache.kernel.tobytes() == before


def test_save_model_copies_no_eigenvectors(inst, tmp_path):
    result = fit(inst.ds, inst.spectrum, K, ORDER, max_iters=2)
    reduced = codec.reduce(result.model, inst.ds, inst.spectrum)
    path = tmp_path / "m.gfm"
    _, peak = traced_peak(codec.save_model, result.model, inst.spectrum, reduced, path)
    assert peak < inst.spectrum.eigvecs.nbytes


def test_residual_costs_hold_one_data_sized_buffer():
    # one dim x n array is the residual, the projection's or the
    # reconstruction's own buffer; dim is large next to n and k, so the
    # data-sized arrays dominate
    inst = random_instance(np.random.default_rng(23), 60, 400, ORDER)
    data_sized = inst.ds.centered.nbytes
    _, peak = traced_peak(pca_mse, inst.ds, pca_fit(inst.ds, K))
    assert peak < 1.5 * data_sized
    model = fit(inst.ds, inst.spectrum, K, ORDER, max_iters=2).model
    _, peak = traced_peak(codec.reconstruction_mse, model, inst.ds, inst.spectrum)
    assert peak < 2.5 * data_sized


def test_codec_transforms_no_data_sized_array():
    # reduce forms its taps and transforms only (L+1)k-row arrays, and the
    # reconstruction is the one dim x n array reconstruction_mse holds
    inst = random_instance(np.random.default_rng(23), 60, 400, ORDER)
    data_sized = inst.ds.centered.nbytes
    model = fit(inst.ds, inst.spectrum, K, ORDER, max_iters=2).model
    _, peak = traced_peak(codec.reduce, model, inst.ds, inst.spectrum)
    assert peak < data_sized
    _, peak = traced_peak(codec.reconstruction_mse, model, inst.ds, inst.spectrum)
    assert peak < 1.5 * data_sized


def test_csv_load_holds_no_lines_beside_the_matrix(tmp_path):
    # numpy parses the file as it reads it, into a matrix allocated once
    # for the row count; no list of the file's lines is held beside it
    images, _ = harness.synth_digits(10, 30, seed=0)
    path = tmp_path / "pool.csv"
    harness.save_csv_matrix(images, path)
    matrix, peak = traced_peak(harness.load_csv_matrix, path)
    assert np.array_equal(matrix, images)
    assert peak < 1.5 * matrix.nbytes


def test_csv_write_holds_no_text_beside_the_matrix(tmp_path):
    # a decode-shaped matrix: the writer formats a block of floats at a
    # time, so neither the file's text (18 MB here) nor a row list of it is
    # ever held. Its fixed buffers live in a memory map, which tracemalloc
    # does not count; the block's temporaries are counted
    matrix = np.random.default_rng(8).uniform(-0.2, 1.2, size=(784, 1200))
    path = tmp_path / "decoded.csv"
    _, peak = traced_peak(harness.save_csv_matrix, matrix, path)
    assert path.stat().st_size > 2 * matrix.nbytes
    assert peak < 0.2 * matrix.nbytes


def test_eval_command_fits_its_baseline_without_the_model(tmp_path, monkeypatch):
    # a version-2 model's baseline projects on a copy of its stored basis, a
    # version-1 model's on a basis fitted to the data: on both paths the
    # bundle and its payload buffer are gone when the baseline runs
    data = tmp_path / "data.csv"
    harness.save_csv_matrix(np.random.default_rng(5).uniform(0.1, 1.0, size=(6, 40)), data)
    model = tmp_path / "m.gfm"
    assert cli.main(["fit", "--data", str(data), "--format", "csv", "--k", "2", "--l", "1",
                     "--max-iters", "5", "--model-out", str(model)]) == 0
    bundle = codec.load_model(model)
    v1 = tmp_path / "v1.gfm"
    codec.save_model(dataclasses.replace(bundle.model, pca_basis=None), bundle.spectrum,
                     bundle.reduced, v1)
    del bundle
    loaded, seen = [], []
    load_model, baseline = codec.load_model, cli.pca_mse

    def load_and_watch(path):
        bundle = load_model(path)
        # the bundle, and the payload buffer every array of it is a view of
        buffer = bundle.model.recon_taps
        while isinstance(buffer.base, np.ndarray):
            buffer = buffer.base
        loaded[:] = [weakref.ref(bundle), weakref.ref(buffer)]
        return bundle

    def baseline_and_look(ds, basis):
        seen.append([ref() is not None for ref in loaded])
        return baseline(ds, basis)

    monkeypatch.setattr(codec, "load_model", load_and_watch)
    monkeypatch.setattr(cli, "pca_mse", baseline_and_look)
    for path in (model, v1):
        assert cli.main(["eval", "--model", str(path), "--data", str(data), "--format", "csv"]) == 0
    assert seen == [[False, False], [False, False]]


def test_fit_command_trains_without_the_adjacency_or_the_raw_matrix(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    harness.save_csv_matrix(np.random.default_rng(5).uniform(0.1, 1.0, size=(6, 40)), data)
    loaded, seen = [], {}
    load_matrix, train = harness.load_matrix, cli.fit

    def load_and_watch(*args, **kwargs):
        matrix = load_matrix(*args, **kwargs)
        loaded.append(weakref.ref(matrix))
        return matrix

    def fit_and_look(ds, spectrum, *args, **kwargs):
        seen["adjacency"] = spectrum.adjacency
        seen["raw matrix alive"] = loaded[0]() is not None
        return train(ds, spectrum, *args, **kwargs)

    monkeypatch.setattr(harness, "load_matrix", load_and_watch)
    monkeypatch.setattr(cli, "fit", fit_and_look)
    argv = ["fit", "--data", str(data), "--format", "csv", "--k", "2", "--l", "1",
            "--max-iters", "5", "--model-out", str(tmp_path / "m.gfm")]
    assert cli.main(argv) == 0
    assert seen == {"adjacency": None, "raw matrix alive": False}


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before Python 3.11 a caller's stack holds its call arguments until the call returns",
)
def test_graph_command_sparsifies_without_the_raw_matrix(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    harness.save_csv_matrix(np.random.default_rng(5).uniform(0.1, 1.0, size=(6, 40)), data)
    loaded, seen = [], {}
    load_matrix, sparsify = harness.load_matrix, graph.knn_sparsify

    def load_and_watch(*args, **kwargs):
        matrix = load_matrix(*args, **kwargs)
        loaded.append(weakref.ref(matrix))
        return matrix

    def sparsify_and_look(sim, cfg):
        seen["raw matrix alive"] = loaded[0]() is not None
        return sparsify(sim, cfg)

    monkeypatch.setattr(harness, "load_matrix", load_and_watch)
    monkeypatch.setattr(graph, "knn_sparsify", sparsify_and_look)
    assert cli.main(["graph", "--data", str(data), "--format", "csv"]) == 0
    assert seen == {"raw matrix alive": False}
