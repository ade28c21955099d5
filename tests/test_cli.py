"""Command-line front end: subcommands, outputs, and exit codes."""

import dataclasses
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gfred import cli, optimizer, pca
from gfred.cli import main
from gfred.codec import ReducedData, load_model, save_model
from gfred.graph import GraphSpectrum
from gfred.harness import load_csv_matrix, save_csv_matrix, synth_digits
from gfred.optimizer import FilterModel
from gfred.spectral import center

from test_codec import V1_FILE
from test_harness import write_labeled_csv


def parse_kv(output: str) -> dict:
    pairs = {}
    for line in output.splitlines():
        if ": " in line:
            key, _, value = line.partition(": ")
            pairs[key] = value
    return pairs


def write_matrix_csv(path, seed=15, dim=6, n=12):
    rng = np.random.default_rng(seed)
    save_csv_matrix(rng.uniform(0.1, 1.0, size=(dim, n)), path)
    return path


def write_idx_images(path):
    """Synthetic digits as an IDX image file, with no labels file beside it."""
    images, _ = synth_digits(n_classes=4, per_class=10, size=12)
    pixels = np.round(images.T * 255.0).astype(np.uint8)  # one image per record
    path.write_bytes(struct.pack(">IIII", 0x803, pixels.shape[0], 12, 12) + pixels.tobytes())
    return path


def write_digits_csv(path, scale=1.0, offset=0.0):
    # at scale 1e155 every cell is finite, but the sums of squares overflow;
    # at offset 1e155 and scale 1e140 only the columns' own sums of squares do
    images, _ = synth_digits(n_classes=4, per_class=10, size=12)
    save_csv_matrix(offset + images * scale, path)
    return path


def write_digit_pair_csv(path):
    """The first two 12x12 digits: a fit of k=1 on them ends at a cost of rounding size."""
    images, _ = synth_digits(n_classes=4, per_class=10, size=12)
    save_csv_matrix(images[:, :2], path)
    return path


def write_small_model(path, eigvals, tap=0.5):
    """A model file with a valid checksum: n=5, D=3, k=1, L=2, the given
    eigenvalues with identity eigenvectors, and ``tap`` as its first tap entry."""
    spectrum = GraphSpectrum(eigvals=np.asarray(eigvals, dtype=np.float64), eigvecs=np.eye(5))
    taps = np.full((3, 3), 0.5)
    taps[0, 0] = tap
    model = FilterModel(
        order=2, k=1, recon_taps=taps, coeffs=np.ones((1, 5)), mean=np.zeros(3),
        spectrum=spectrum,
    )
    save_model(model, spectrum, ReducedData(values=np.ones((1, 5))), path)
    return path


def resave_as_version_1(path):
    """Write the model file at ``path`` again without its training basis."""
    bundle = load_model(path)
    model = dataclasses.replace(bundle.model, pca_basis=None)
    save_model(model, bundle.spectrum, bundle.reduced, path)


def run_gfred(argv):
    """The command in a fresh interpreter that turns every warning into an error."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "gfred", *argv], capture_output=True, text=True
    )


class TestBound:

    def test_reference_dims(self, capsys):
        assert main(["bound", "--n", "140", "--d", "784", "--l", "1"]) == 0
        pairs = parse_kv(capsys.readouterr().out)
        assert pairs["bound"] == "54"
        assert pairs["compresses"] == "yes"

    def test_no_compression_possible(self, capsys):
        assert main(["bound", "--n", "2", "--d", "7", "--l", "0"]) == 0
        pairs = parse_kv(capsys.readouterr().out)
        assert pairs["bound"] == "0"
        assert pairs["compresses"] == "no"
        assert pairs["stored_scalars(k=1)"] == pairs["raw_scalars"] == "14"


class TestGraph:

    def test_prints_spectrum_summary(self, tmp_path, capsys):
        data = write_matrix_csv(tmp_path / "d.csv")
        code = main(["graph", "--data", str(data), "--knn", "3"])
        assert code == 0
        pairs = parse_kv(capsys.readouterr().out)
        assert pairs["nodes"] == "12"
        assert int(pairs["edges"]) >= 3 * 12 // 2
        lo, hi = (float(v) for v in pairs["eigenvalue range"].strip("[]").split(", "))
        assert -1.0 <= lo < 0 < hi <= 1.0
        assert max(-lo, hi) == 1.0  # scaled to unit spectral radius
        assert pairs["components"] == "1"
        assert list(pairs).index("components") == list(pairs).index("edges") + 1

    def test_counts_components(self, tmp_path, capsys):
        # two clusters on disjoint rows: every cross-cluster cosine is 0, so
        # each node's 3 strongest neighbours lie in its own cluster
        rng = np.random.default_rng(16)
        X = np.zeros((6, 12))
        X[:3, :6] = rng.uniform(0.1, 1.0, size=(3, 6))
        X[3:, 6:] = rng.uniform(0.1, 1.0, size=(3, 6))
        save_csv_matrix(X, tmp_path / "d.csv")
        assert main(["graph", "--data", str(tmp_path / "d.csv"), "--knn", "3"]) == 0
        assert parse_kv(capsys.readouterr().out)["components"] == "2"


class TestIdxImagesAlone:
    """Only ``sweep`` reads IDX labels; the other commands need the images file alone."""

    def test_graph_and_fit(self, tmp_path, capsys):
        data = write_idx_images(tmp_path / "pool-images-idx3-ubyte")
        assert main(["graph", "--data", str(data), "--format", "idx"]) == 0
        assert parse_kv(capsys.readouterr().out)["nodes"] == "40"
        model = tmp_path / "m.gfm"
        code = main(
            ["fit", "--data", str(data), "--format", "idx", "--k", "3", "--l", "1",
             "--max-iters", "5", "--model-out", str(model)]
        )
        assert code == 0
        assert model.exists()

    def test_encode_and_eval(self, tmp_path, capsys):
        data = write_idx_images(tmp_path / "pool-images-idx3-ubyte")
        model = tmp_path / "m.gfm"
        assert main(
            ["fit", "--data", str(data), "--format", "idx", "--k", "3", "--l", "0",
             "--max-iters", "5", "--model-out", str(model)]
        ) == 0
        out = tmp_path / "reduced.csv"
        assert main(
            ["encode", "--model", str(model), "--data", str(data), "--format", "idx",
             "--out", str(out)]
        ) == 0
        assert load_csv_matrix(out).shape == (3, 40)
        assert main(["eval", "--model", str(model), "--data", str(data), "--format", "idx"]) == 0


class TestModelPipeline:

    # "wide" data (dim 6, n 12) trains on all dim rows, "tall" data (the
    # 12x12 digits, dim 144, n 40) on its n-row coordinates in the left
    # singular vectors of the centered data
    FITS = {
        "wide": (write_matrix_csv, ["--k", "2", "--kernel", "gaussian", "--alpha", "0.5",
                                    "--knn", "3", "--max-iters", "80"]),
        "tall": (write_digits_csv, ["--k", "3", "--max-iters", "50"]),
        "pair": (write_digit_pair_csv, ["--k", "1", "--knn", "1", "--max-iters", "50"]),
    }

    def run_fit(self, tmp_path, capsys, data_set="wide"):
        write, flags = self.FITS[data_set]
        data = write(tmp_path / f"{data_set}.csv")
        model = tmp_path / f"{data_set}.gfm"
        code = main(
            ["fit", "--data", str(data), "--format", "csv", "--l", "1",
             "--model-out", str(model)] + flags
        )
        assert code == 0
        return data, model, parse_kv(capsys.readouterr().out)

    def test_fit_reports_and_saves(self, tmp_path, capsys):
        # on the digit pair each exact step's carried decrease exceeds the
        # cost of rounding size it starts from; the printed cost stays >= 0
        for data_set, k, converged in (("wide", 2, "False"), ("pair", 1, "True")):
            _, model, pairs = self.run_fit(tmp_path, capsys, data_set)
            assert model.exists()
            final = float(pairs["final_mse"])
            baseline = float(pairs["pca_mse"])
            assert 0.0 <= final <= baseline * (1.0 + 1e-8), data_set
            assert int(pairs["iterations"]) <= 80
            assert pairs["converged"] == converged, data_set
            keys = list(pairs)
            assert keys.index("converged") == keys.index("iterations") + 1
            bundle = load_model(model)
            assert bundle.model.k == k and bundle.model.order == 1

    def test_fit_computes_one_pca(self, tmp_path, capsys, monkeypatch):
        # the PCA seeds the fit and gives the printed baseline
        calls = []

        def counting_pca(ds, k):
            calls.append(k)
            return pca.pca_fit(ds, k)

        for module in (cli, optimizer):
            monkeypatch.setattr(module, "pca_fit", counting_pca)
        self.run_fit(tmp_path, capsys)
        assert calls == [2]

    def test_encode_decode_eval_round_trip(self, tmp_path, capsys):
        # fit carries its final MSE through the loop; eval computes it from
        # the reconstruction, on either training path
        for data_set, shape in (("wide", (2, 12)), ("tall", (3, 40))):
            data, model, fit_pairs = self.run_fit(tmp_path, capsys, data_set)
            reduced_out = tmp_path / "reduced.csv"
            assert main(
                ["encode", "--model", str(model), "--data", str(data),
                 "--format", "csv", "--out", str(reduced_out)]
            ) == 0
            capsys.readouterr()
            reduced = load_csv_matrix(reduced_out)
            assert reduced.shape == shape
            # encode on the training data reproduces the stored reduction
            stored = load_model(model).reduced
            assert np.allclose(reduced, stored.values, rtol=1e-9, atol=1e-12)

            recon_out = tmp_path / "recon.csv"
            assert main(["decode", "--model", str(model), "--out", str(recon_out)]) == 0
            capsys.readouterr()
            recon = load_csv_matrix(recon_out)
            original = load_csv_matrix(data)
            assert recon.shape == original.shape
            err = float(np.sum((recon - original) ** 2)) / original.shape[1]
            assert err == pytest.approx(float(fit_pairs["final_mse"]), rel=1e-6, abs=1e-12)

            assert main(
                ["eval", "--model", str(model), "--data", str(data), "--format", "csv"]
            ) == 0
            pairs = parse_kv(capsys.readouterr().out)
            assert float(pairs["reconstruction_mse"]) == pytest.approx(
                float(fit_pairs["final_mse"]), rel=1e-9
            ), data_set
            assert float(pairs["pca_mse"]) == pytest.approx(
                float(fit_pairs["pca_mse"]), rel=1e-12
            )

    def test_eval_scores_new_data_against_the_training_basis(self, tmp_path, capsys):
        # on data other than the training set the baseline is out of sample:
        # those data, centred on their own mean, projected on the PCA basis
        # of the training data
        rng = np.random.default_rng(16)
        for data_set, k in (("wide", 2), ("tall", 3)):
            data, model, _ = self.run_fit(tmp_path, capsys, data_set)
            train = load_csv_matrix(data)
            other = train + rng.normal(0.0, 0.05, size=train.shape)
            other_csv = tmp_path / f"other-{data_set}.csv"
            save_csv_matrix(other, other_csv)
            assert main(
                ["eval", "--model", str(model), "--data", str(other_csv), "--format", "csv"]
            ) == 0
            pairs = parse_kv(capsys.readouterr().out)
            assert pairs["pca_basis"] == "training"
            basis = pca.pca_fit(center(train), k).basis
            centred = other - other.mean(axis=1, keepdims=True)
            resid = centred - basis @ (basis.T @ centred)
            want = float(np.sum(resid * resid)) / other.shape[1]
            assert float(pairs["pca_mse"]) == pytest.approx(want, rel=1e-12, abs=0.0), data_set

    def test_eval_of_a_stored_basis_solves_nothing(self, tmp_path, capsys, monkeypatch):
        data, model, fit_pairs = self.run_fit(tmp_path, capsys, "wide")

        def failing(*args, **kwargs):
            raise AssertionError("eval ran an eigensolver")

        for solver in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, solver, failing)
        assert main(["eval", "--model", str(model), "--data", str(data), "--format", "csv"]) == 0
        pairs = parse_kv(capsys.readouterr().out)
        assert pairs["pca_mse"] == fit_pairs["pca_mse"]
        assert pairs["pca_basis"] == "training"

    def test_eval_of_a_version_1_model_fits_in_sample(self, tmp_path, capsys):
        # the committed version-1 file (n=7, D=4, k=2) stores no basis
        data = write_matrix_csv(tmp_path / "d.csv", dim=4, n=7)
        assert main(["eval", "--model", str(V1_FILE), "--data", str(data), "--format", "csv"]) == 0
        pairs = parse_kv(capsys.readouterr().out)
        assert pairs["pca_basis"] == "in-sample"
        ds = center(load_csv_matrix(data))
        assert float(pairs["pca_mse"]) == pca.pca_mse(ds, pca.pca_fit(ds, 2))

    def test_encode_rejects_wrong_dimension(self, tmp_path, capsys):
        _, model, _ = self.run_fit(tmp_path, capsys)  # 6 x 12 training data
        narrow = write_matrix_csv(tmp_path / "narrow.csv", dim=5)
        out = tmp_path / "reduced.csv"
        code = main(
            ["encode", "--model", str(model), "--data", str(narrow),
             "--format", "csv", "--out", str(out)]
        )
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["encode", "eval"])
    def test_wrong_node_count_exits_2(self, tmp_path, capsys, command):
        # one column too few for the 40-node graph: the typed shape error,
        # raised before any product with the data
        data, model, _ = self.run_fit(tmp_path, capsys, "tall")
        short = tmp_path / "short.csv"
        save_csv_matrix(load_csv_matrix(data)[:, :-1], short)
        out = tmp_path / "reduced.csv"
        argv = [command, "--model", str(model), "--data", str(short), "--format", "csv"]
        if command == "encode":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: expected 40 columns for this graph, got shape (144, 39)\n"
        )
        assert captured.out == ""
        assert not out.exists()


class TestSweepCommand:

    def write_inputs(self, tmp_path):
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dataset_path = {data}\n"
            "dataset_format = csv\n"
            "classes_to_pick = 2\n"
            "images_per_class = 5\n"
            "trials = 2\n"
            "seed = 3\n"
            "knn = 3\n"
            "k_list = 2,3\n"
            "l_list = 0,1\n"
            "max_iters = 40\n"
        )
        return cfg

    def test_sweep_writes_reports(self, tmp_path, capsys):
        cfg = self.write_inputs(tmp_path)
        out_csv = tmp_path / "rows.csv"
        code = main(["sweep", "--config", str(cfg), "--out-csv", str(out_csv)])
        assert code == 0
        assert "rows: 8" in capsys.readouterr().out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "trial,k,L,iters,initial_mse,final_mse,pca_mse,wall_time_ms"
        assert len(lines) == 9

    def test_flag_overrides_shrink_the_grid(self, tmp_path, capsys):
        cfg = self.write_inputs(tmp_path)
        out_csv = tmp_path / "rows.csv"
        code = main(
            ["sweep", "--config", str(cfg), "--out-csv", str(out_csv),
             "--trials", "1", "--k-list", "2", "--l-list", "0"]
        )
        assert code == 0
        capsys.readouterr()
        assert len(out_csv.read_text().splitlines()) == 2

    def test_flags_stand_in_for_required_keys(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dataset_format = csv\nknn = 3\nk_list = 2\nl_list = 0,1\nmax_iters = 40\n")
        out_csv = tmp_path / "rows.csv"
        code = main(
            ["sweep", "--config", str(cfg), "--out-csv", str(out_csv),
             "--dataset-path", str(data), "--classes-to-pick", "2", "--images-per-class", "5"]
        )
        assert code == 0
        assert "rows: 2" in capsys.readouterr().out
        assert len(out_csv.read_text().splitlines()) == 3

    def test_labels_outside_int64_exit_3(self, tmp_path, capsys):
        # 1e19, 2e19 and -1e19 would all wrap to -2**63 as int64 labels
        cfg = self.write_inputs(tmp_path)
        data = tmp_path / "d.csv"
        lines = data.read_text().splitlines()
        labels = lines[0].split(",")
        labels = ["1e19" if l == "0" else "2e19" for l in labels[:-1]] + ["-1e19"]
        data.write_text("\n".join([",".join(labels)] + lines[1:]) + "\n")
        out_csv = tmp_path / "rows.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["sweep", "--config", str(cfg), "--out-csv", str(out_csv)])
        assert code == 3
        assert "labels must lie in [-2**63, 2**63)" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_failed_cells_are_reported_on_stderr(self, tmp_path, capsys):
        # every cell is finite, but a column's sum of squares overflows: each
        # cell of the one trial fails, the sweep still exits 0 and the CSV
        # holds only its header
        images, labels = synth_digits(n_classes=4, per_class=10, size=12)
        data = tmp_path / "offset.csv"
        save_csv_matrix(np.vstack([labels, 1e155 + images]), data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        out_csv = tmp_path / "rows.csv"
        code = main(
            ["sweep", "--config", str(cfg), "--out-csv", str(out_csv),
             "--dataset-path", str(data), "--dataset-format", "csv", "--trials", "1",
             "--classes-to-pick", "4", "--images-per-class", "10",
             "--k-list", "2,3", "--l-list", "0,1"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "rows: 0" in captured.out
        lines = captured.err.splitlines()
        cells = [(k, L) for k in (2, 3) for L in (0, 1)]
        assert len(lines) == len(cells)
        for line, (k, L) in zip(lines, cells):
            assert line.startswith(f"failed cell trial=0 k={k} L={L}: DataOverflow: ")
        assert out_csv.read_text() == "trial,k,L,iters,initial_mse,final_mse,pca_mse,wall_time_ms\n"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for line in ("widgets = 4", "normalize_spectrum = true"):
            cfg.write_text(f"dataset_path = x.csv\n{line}\n")
            code = main(["sweep", "--config", str(cfg), "--out-csv", str(tmp_path / "o.csv")])
            assert code == 2
            assert "config error:" in capsys.readouterr().err
        # the graph is always scaled to unit radius, so no command takes the flag
        out = str(tmp_path / "o")
        for command in (
            ["graph", "--data", "x.csv"],
            ["fit", "--data", "x.csv", "--format", "csv", "--k", "2", "--l", "0",
             "--model-out", out],
            ["sweep", "--config", str(cfg), "--out-csv", out],
        ):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--normalize-spectrum"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --normalize-spectrum" in capsys.readouterr().err


class TestExitCodes:

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        code = main(
            ["fit", "--data", str(tmp_path / "absent.csv"), "--format", "csv",
             "--k", "2", "--l", "0", "--model-out", str(tmp_path / "m.gfm")]
        )
        assert code == 3
        assert "data error:" in capsys.readouterr().err

    def test_corrupt_model_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.gfm"
        bad.write_bytes(b"not a model file")
        code = main(["decode", "--model", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "data error:" in capsys.readouterr().err

    def test_bad_flag_value_exits_2(self, tmp_path, capsys):
        data = write_matrix_csv(tmp_path / "d.csv")
        code = main(["graph", "--data", str(data), "--knn", "0"])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_oversized_k_exits_2(self, tmp_path, capsys):
        data = write_matrix_csv(tmp_path / "d.csv")  # 6 x 12
        code = main(
            ["fit", "--data", str(data), "--format", "csv", "--k", "7", "--l", "0",
             "--model-out", str(tmp_path / "m.gfm"), "--knn", "3"]
        )
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "epsilon, shown", [("inf", "inf"), ("-1", "-1.0"), ("0", "0.0")], ids=["inf", "-1", "0"]
    )
    def test_infinite_epsilon_exits_2(self, tmp_path, capsys, epsilon, shown):
        data = write_matrix_csv(tmp_path / "d.csv")
        code = main(
            ["fit", "--data", str(data), "--format", "csv", "--k", "2", "--l", "1",
             "--model-out", str(tmp_path / "m.gfm"), "--knn", "3", "--epsilon", epsilon]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: epsilon must be a finite number > 0, got {shown}\n"
        )
        assert not (tmp_path / "m.gfm").exists()

    @pytest.mark.parametrize("epsilon", [[], ["--epsilon", "1e-6"]], ids=["default", "given"])
    def test_fit_on_overflowing_data_exits_3(self, tmp_path, capsys, epsilon):
        data = write_digits_csv(tmp_path / "big.csv", scale=1e155)
        model = tmp_path / "m.gfm"
        code = main(
            ["fit", "--data", str(data), "--format", "csv", "--k", "3", "--l", "1",
             "--model-out", str(model)] + epsilon
        )
        assert code == 3
        assert "data error:" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "scale, names",
        [(1e-155, "starting point is not finite"), (1e-300, "sum of squares underflows")],
        ids=["start", "sum-of-squares"],
    )
    def test_fit_on_underflowing_data_exits_3(self, tmp_path, capsys, scale, names):
        # at 1e-155 the training kernel holds subnormal numbers and the PCA
        # seed comes out NaN; at 1e-300 every column's sum of squares is 0
        data = write_digits_csv(tmp_path / "tiny.csv", scale=scale)
        model = tmp_path / "m.gfm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["fit", "--data", str(data), "--format", "csv", "--k", "2", "--l", "1",
                 "--knn", "3", "--max-iters", "50", "--model-out", str(model)]
            )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and names in err
        assert not model.exists()

    def test_zero_column_stays_a_config_error(self, tmp_path, capsys):
        images, _ = synth_digits(n_classes=4, per_class=10, size=12)
        images[:, 5] = 0.0
        save_csv_matrix(images, tmp_path / "zero.csv")
        code = main(["graph", "--data", str(tmp_path / "zero.csv"), "--format", "csv"])
        assert code == 2
        assert "column 5 has zero norm" in capsys.readouterr().err

    def test_graph_on_overflowing_data_exits_3(self, tmp_path, capsys):
        data = write_digits_csv(tmp_path / "big.csv", scale=1e155)
        code = main(["graph", "--data", str(data), "--format", "csv"])
        assert code == 3
        captured = capsys.readouterr()
        assert "data error:" in captured.err
        assert "edges" not in captured.out

    def test_graph_on_offset_data_exits_3(self, tmp_path, capsys):
        data = write_digits_csv(tmp_path / "offset.csv", scale=1e140, offset=1e155)
        for kernel in ("cosine", "gaussian"):
            code = main(["graph", "--data", str(data), "--format", "csv", "--kernel", kernel])
            assert code == 3
            captured = capsys.readouterr()
            assert "data error:" in captured.err
            assert "edges" not in captured.out

    def test_fit_on_offset_data_exits_3(self, tmp_path, capsys):
        data = write_digits_csv(tmp_path / "offset.csv", scale=1e140, offset=1e155)
        model = tmp_path / "m.gfm"
        code = main(
            ["fit", "--data", str(data), "--format", "csv", "--k", "3", "--l", "1",
             "--model-out", str(model)]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "data error:" in captured.err
        assert "final_mse" not in captured.out
        assert not model.exists()

    @pytest.mark.parametrize(
        "command, solver",
        [("graph", "eigh"), ("fit", "eigh"), ("eval", "eigh"), ("fit", "svd"), ("fit", "solve")],
        ids=["graph", "fit", "eval", "tall-fit-svd", "fit-solve"],
    )
    def test_failed_solver_exits_3(self, tmp_path, capsys, monkeypatch, command, solver):
        # eigh fails on the graph (graph, fit) or on the wide data's
        # covariance (eval of a model written as version 1, which stores no
        # training basis, so eval fits its baseline in-sample); svd fails on
        # the tall digits' centered data, which the PCA seed and fit share;
        # solve fails in the seed's ridge solve against the training kernel.
        # No command but eval, which reads it, leaves a model file
        wide = ["--kernel", "gaussian", "--alpha", "0.5", "--knn", "3"]
        if solver == "svd":
            data, flags = write_digits_csv(tmp_path / "tall.csv"), ["--k", "3"]
        else:
            data, flags = write_matrix_csv(tmp_path / "wide.csv"), ["--k", "2"] + wide
        model = tmp_path / "m.gfm"
        fit_argv = ["fit", "--data", str(data), "--format", "csv", "--l", "1",
                    "--max-iters", "5", "--model-out", str(model)] + flags
        argv = {
            "graph": ["graph", "--data", str(data), "--format", "csv"] + wide,
            "fit": fit_argv,
            "eval": ["eval", "--model", str(model), "--data", str(data), "--format", "csv"],
        }[command]
        if command == "eval":
            assert main(fit_argv) == 0
            capsys.readouterr()
            resave_as_version_1(model)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{solver} did not converge")

        monkeypatch.setattr(np.linalg, solver, failing)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("data error:")
        assert captured.out == ""
        assert (command == "eval") == model.exists()

    def test_gaussian_distances_past_the_largest_double_exit_3(self, tmp_path, capsys):
        # finite column sums of squares (about 1.44e308) that add past the largest double
        data = write_digits_csv(tmp_path / "offset.csv", scale=1e140, offset=1e153)
        model = tmp_path / "m.gfm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["graph", "--data", str(data), "--format", "csv", "--kernel", "gaussian"])
            assert code == 3
            captured = capsys.readouterr()
            assert "data error:" in captured.err and "edges" not in captured.out
            code = main(
                ["fit", "--data", str(data), "--format", "csv", "--k", "3", "--l", "1",
                 "--kernel", "gaussian", "--model-out", str(model)]
            )
            assert code == 3
        assert "data error:" in capsys.readouterr().err
        assert not model.exists()

    def test_infinite_gaussian_alpha_exits_2(self, tmp_path, capsys):
        data = write_matrix_csv(tmp_path / "d.csv")
        model = tmp_path / "m.gfm"
        flags = ["--kernel", "gaussian", "--alpha", "inf", "--knn", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["graph", "--data", str(data), "--format", "csv"] + flags)
            assert code == 2
            captured = capsys.readouterr()
            assert "config error:" in captured.err and "edges" not in captured.out
            code = main(
                ["fit", "--data", str(data), "--format", "csv", "--k", "2", "--l", "1",
                 "--model-out", str(model)] + flags
            )
            assert code == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err and "final_mse" not in captured.out
        assert not model.exists()

    @pytest.mark.parametrize("alpha", ["1e6", "1e300"])
    def test_gaussian_alpha_that_zeroes_every_similarity_exits_2(self, tmp_path, capsys, alpha):
        data = write_digits_csv(tmp_path / "d.csv")
        model = tmp_path / "m.gfm"
        flags = ["--kernel", "gaussian", "--alpha", alpha]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["graph", "--data", str(data), "--format", "csv"] + flags) == 2
            captured = capsys.readouterr()
            assert "config error:" in captured.err and "alpha" in captured.err
            assert "edges" not in captured.out
            code = main(
                ["fit", "--data", str(data), "--format", "csv", "--k", "3", "--l", "1",
                 "--model-out", str(model)] + flags
            )
            assert code == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err and "final_mse" not in captured.out
        assert not model.exists()

    def test_undecodable_csv_exits_3(self, tmp_path, capsys):
        model = tmp_path / "m.gfm"
        assert main(
            ["fit", "--data", str(write_matrix_csv(tmp_path / "d.csv")), "--format", "csv",
             "--k", "2", "--l", "1", "--max-iters", "5", "--knn", "3", "--model-out", str(model)]
        ) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"0.5,0.25\n\xff,0.125\n")
        refit = tmp_path / "refit.gfm"
        data = ["--data", str(bad), "--format", "csv"]
        for argv in (
            ["graph"] + data,
            ["fit"] + data + ["--k", "1", "--l", "0", "--model-out", str(refit)],
            ["encode", "--model", str(model)] + data + ["--out", str(tmp_path / "r.csv")],
            ["eval", "--model", str(model)] + data,
        ):
            assert main(argv) == 3, argv[0]
            captured = capsys.readouterr()
            assert "data error:" in captured.err and str(bad) in captured.err, argv[0]
            assert captured.out == "", argv[0]
        assert not refit.exists()

    def test_eval_on_overflowing_data_exits_3(self, tmp_path, capsys):
        model = tmp_path / "m.gfm"
        assert main(
            ["fit", "--data", str(write_digits_csv(tmp_path / "d.csv")), "--format", "csv",
             "--k", "3", "--l", "1", "--max-iters", "5", "--model-out", str(model)]
        ) == 0
        capsys.readouterr()
        data = write_digits_csv(tmp_path / "big.csv", scale=1e155)
        code = main(["eval", "--model", str(model), "--data", str(data), "--format", "csv"])
        assert code == 3
        captured = capsys.readouterr()
        assert "data error:" in captured.err
        assert "reconstruction_mse" not in captured.out

    @pytest.mark.parametrize("command", ["encode", "eval"])
    def test_reading_underflowing_data_exits_3(self, tmp_path, capsys, command):
        # neither command builds a graph: centering finds the sum of squares
        # that rounds to 0, instead of a zero reduction and an MSE of 0.0
        model = tmp_path / "m.gfm"
        assert main(
            ["fit", "--data", str(write_digits_csv(tmp_path / "d.csv")), "--format", "csv",
             "--k", "3", "--l", "1", "--max-iters", "5", "--model-out", str(model)]
        ) == 0
        capsys.readouterr()
        data = write_digits_csv(tmp_path / "tiny.csv", scale=1e-300)
        out = tmp_path / "reduced.csv"
        argv = [command, "--model", str(model), "--data", str(data), "--format", "csv"]
        if command == "encode":
            argv += ["--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("data error:")
        assert "sum of squares underflows" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_model_with_overflowing_eigenvalue_powers_exits_3(self, tmp_path):
        # a whole file whose largest eigenvalue, squared at L=2, passes 1e150
        model = write_small_model(tmp_path / "m.gfm", [1e80, 2.0, 1.0, 0.0, -1.0])
        data = write_matrix_csv(tmp_path / "d.csv", dim=3, n=5)
        outs = {"decode": tmp_path / "recon.csv", "encode": tmp_path / "reduced.csv"}
        for argv in (
            ["decode", "--model", str(model), "--out", str(outs["decode"])],
            ["eval", "--model", str(model), "--data", str(data), "--format", "csv"],
            ["encode", "--model", str(model), "--data", str(data), "--format", "csv",
             "--out", str(outs["encode"])],
        ):
            proc = run_gfred(argv)
            assert proc.returncode == 3, (argv[0], proc.stderr)
            assert proc.stderr.startswith("data error:"), argv[0]
            assert "1e+150" in proc.stderr and "Traceback" not in proc.stderr, argv[0]
            assert proc.stdout == "", argv[0]
        assert not any(out.exists() for out in outs.values())

    def test_model_with_a_non_finite_tap_exits_3(self, tmp_path, capsys):
        # the checksum holds, so only the loader's finiteness check stops a
        # decode that would write nan cells and an eval that would print nan
        model = write_small_model(tmp_path / "m.gfm", [1.0, 0.5, 0.0, -0.5, -1.0], tap=np.nan)
        data = write_matrix_csv(tmp_path / "d.csv", dim=3, n=5)
        out = tmp_path / "recon.csv"
        for argv in (
            ["decode", "--model", str(model), "--out", str(out)],
            ["eval", "--model", str(model), "--data", str(data), "--format", "csv"],
        ):
            assert main(argv) == 3, argv[0]
            captured = capsys.readouterr()
            assert captured.err.startswith("data error:"), argv[0]
            assert "not finite" in captured.err and captured.out == "", argv[0]
        assert not out.exists()

    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["fit"])
        assert exc.value.code == 2


class TestEntryPoint:

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gfred", "bound", "--n", "140", "--d", "784", "--l", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "bound: 54" in proc.stdout
