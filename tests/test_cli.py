"""Command-line front end: subcommands, outputs, and exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from gfred.cli import main
from gfred.codec import load_model
from gfred.harness import load_csv_matrix, save_csv_matrix

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
        assert lo < 0 < hi


class TestModelPipeline:

    def run_fit(self, tmp_path, capsys):
        data = write_matrix_csv(tmp_path / "d.csv")
        model = tmp_path / "model.gfm"
        code = main(
            [
                "fit", "--data", str(data), "--format", "csv",
                "--k", "2", "--l", "1", "--model-out", str(model),
                "--kernel", "gaussian", "--alpha", "0.5", "--knn", "3",
                "--max-iters", "80",
            ]
        )
        assert code == 0
        return data, model, parse_kv(capsys.readouterr().out)

    def test_fit_reports_and_saves(self, tmp_path, capsys):
        data, model, pairs = self.run_fit(tmp_path, capsys)
        assert model.exists()
        final = float(pairs["final_mse"])
        baseline = float(pairs["pca_mse"])
        assert 0.0 <= final <= baseline * (1.0 + 1e-8)
        assert int(pairs["iterations"]) <= 80
        bundle = load_model(model)
        assert bundle.model.k == 2 and bundle.model.order == 1

    def test_encode_decode_eval_round_trip(self, tmp_path, capsys):
        data, model, fit_pairs = self.run_fit(tmp_path, capsys)
        reduced_out = tmp_path / "reduced.csv"
        assert main(
            ["encode", "--model", str(model), "--data", str(data),
             "--format", "csv", "--out", str(reduced_out)]
        ) == 0
        capsys.readouterr()
        reduced = load_csv_matrix(reduced_out)
        assert reduced.shape == (2, 12)
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
        )
        assert float(pairs["pca_mse"]) == pytest.approx(float(fit_pairs["pca_mse"]), rel=1e-12)

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
        out_svg = tmp_path / "chart.svg"
        code = main(
            ["sweep", "--config", str(cfg), "--out-csv", str(out_csv),
             "--out-svg", str(out_svg)]
        )
        assert code == 0
        assert "rows: 8" in capsys.readouterr().out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "trial,k,L,iters,initial_mse,final_mse,pca_mse,wall_time_ms"
        assert len(lines) == 9
        assert out_svg.read_text().startswith("<svg ")

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

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dataset_path = x.csv\nwidgets = 4\n")
        code = main(["sweep", "--config", str(cfg), "--out-csv", str(tmp_path / "o.csv")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err


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
