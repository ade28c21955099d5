"""Data loading, deterministic sampling, sweeps, and report emitters."""

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from gfred import harness
from gfred.errors import (
    BadMagic,
    ConfigError,
    CountMismatch,
    CsvParseError,
    DimensionMismatch,
    InsufficientImages,
    TruncatedFile,
)
from gfred.graph import Kernel, SimilarityConfig, Symmetrization
from gfred.harness import (
    DataFormat,
    ExperimentConfig,
    SweepReport,
    config_from_mapping,
    emit_csv,
    emit_svg,
    load_csv_matrix,
    load_idx,
    parse_config_text,
    run_sweep,
    sample_subset,
    save_csv_matrix,
    synth_digits,
)
from gfred.optimizer import fit
from gfred.rng import CounterRng, splitmix64


class TestCounterRng:

    def test_splitmix_reference_stream(self):
        # chaining inputs by the golden gamma reproduces the reference
        # splitmix64 output stream for seed 1234567
        gamma = 0x9E3779B97F4A7C15
        mask = (1 << 64) - 1
        expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        got = [splitmix64((1234567 + i * gamma) & mask) for i in range(3)]
        assert got == expected

    def test_frozen_draws(self):
        # pinned at first release; a change here breaks every stored subset
        assert splitmix64(0) == 16294208416658607535
        rng = CounterRng(42, stream=7)
        assert [rng.next64() for _ in range(4)] == [
            6260904443264601148,
            8863677130690713874,
            12998446729055520471,
            14681367540346863849,
        ]

    def test_streams_are_reproducible_and_distinct(self):
        a = [CounterRng(9, stream=2).next64() for _ in range(6)]
        b = [CounterRng(9, stream=2).next64() for _ in range(6)]
        c = [CounterRng(9, stream=3).next64() for _ in range(6)]
        d = [CounterRng(10, stream=2).next64() for _ in range(6)]
        assert a == b
        assert a != c and a != d

    def test_below_range_and_spread(self):
        rng = CounterRng(0)
        draws = [rng.below(10) for _ in range(2000)]
        assert min(draws) == 0 and max(draws) == 9
        counts = np.bincount(draws, minlength=10)
        assert counts.min() > 100  # all residues show up often

    def test_below_validates(self):
        with pytest.raises(ValueError):
            CounterRng(0).below(0)

    def test_sample_is_a_prefix_consistent_permutation(self):
        full = CounterRng(3).sample(8, 8)
        assert sorted(full) == list(range(8))
        assert CounterRng(3).sample(8, 3) == full[:3]

    def test_sample_validates(self):
        with pytest.raises(ValueError):
            CounterRng(0).sample(3, 4)


def write_idx_pair(tmp_path, count=6, rows=2, cols=3, labels=(0, 0, 0, 1, 1, 1)):
    pixels = bytes(range(count * rows * cols))
    images_path = tmp_path / "train-images-idx3-ubyte"
    images_path.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + pixels)
    labels_path = tmp_path / "train-labels-idx1-ubyte"
    labels_path.write_bytes(struct.pack(">II", 0x801, count) + bytes(labels))
    return images_path, labels_path


class TestLoadIdx:

    def test_round_trip(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path)
        images, labels = load_idx(images_path, labels_path)
        assert images.shape == (6, 6)
        assert labels.tolist() == [0, 0, 0, 1, 1, 1]
        # first image is pixels 0..5 scaled into [0, 1], one per row
        assert np.allclose(images[:, 0], np.arange(6) / 255.0)
        assert np.allclose(images[:, 1], np.arange(6, 12) / 255.0)
        assert float(images.max()) <= 1.0

    def test_labels_path_derived_from_name(self, tmp_path):
        images_path, _ = write_idx_pair(tmp_path)
        images, labels = load_idx(images_path)
        assert images.shape == (6, 6) and labels.size == 6

    def test_underivable_name_needs_explicit_labels(self, tmp_path):
        src, labels_path = write_idx_pair(tmp_path)
        odd = tmp_path / "blob.bin"
        odd.write_bytes(src.read_bytes())
        with pytest.raises(ConfigError):
            load_idx(odd)
        images, _ = load_idx(odd, labels_path)
        assert images.shape == (6, 6)

    def test_bad_image_magic(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path)
        blob = images_path.read_bytes()
        images_path.write_bytes(struct.pack(">I", 0x999) + blob[4:])
        with pytest.raises(BadMagic):
            load_idx(images_path, labels_path)

    def test_bad_label_magic(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path)
        blob = labels_path.read_bytes()
        labels_path.write_bytes(struct.pack(">I", 0x803) + blob[4:])
        with pytest.raises(BadMagic):
            load_idx(images_path, labels_path)

    def test_truncated_pixels(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path)
        images_path.write_bytes(images_path.read_bytes()[:-5])
        with pytest.raises(TruncatedFile):
            load_idx(images_path, labels_path)

    def test_truncated_labels(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path)
        labels_path.write_bytes(labels_path.read_bytes()[:-2])
        with pytest.raises(TruncatedFile):
            load_idx(images_path, labels_path)

    def test_count_mismatch(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path)
        labels_path.write_bytes(struct.pack(">II", 0x801, 5) + bytes(5))
        with pytest.raises(CountMismatch):
            load_idx(images_path, labels_path)

    def test_official_files_if_present(self):
        root = os.environ.get("GFRED_MNIST_DIR")
        if not root:
            pytest.skip("set GFRED_MNIST_DIR to run against the official files")
        images, labels = load_idx(os.path.join(root, "train-images-idx3-ubyte"))
        assert images.shape[0] == 784
        assert images.shape[1] == labels.shape[0] == 60000
        assert set(np.unique(labels)) == set(range(10))


class TestCsv:

    def test_plain_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.5,2\n-3,4e-1\n")
        assert np.array_equal(load_csv_matrix(path), [[1.5, 2.0], [-3.0, 0.4]])

    def test_label_row_variant(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,1\n0.5,0.25,0.125\n1,2,3\n")
        matrix, labels = load_csv_matrix(path, first_row_labels=True)
        assert labels.tolist() == [0, 1, 1]
        assert np.array_equal(matrix, [[0.5, 0.25, 0.125], [1.0, 2.0, 3.0]])

    def test_bad_cell_names_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(CsvParseError, match=r"row 2, column 2"):
            load_csv_matrix(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_nan_rejected(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"1,2\n{cell},4\n")
        with pytest.raises(CsvParseError, match=r"row 2, column 1"):
            load_csv_matrix(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(CsvParseError, match=r"row 2"):
            load_csv_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n\n")
        with pytest.raises(CsvParseError):
            load_csv_matrix(path)

    def test_non_integer_labels_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,1\n2,3\n")
        with pytest.raises(CsvParseError):
            load_csv_matrix(path, first_row_labels=True)

    def test_label_row_needs_data_under_it(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,2\n")
        with pytest.raises(CsvParseError):
            load_csv_matrix(path, first_row_labels=True)

    def test_save_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        matrix = rng.normal(size=(4, 7)) * np.exp(rng.normal(size=(4, 7)) * 5)
        path = tmp_path / "m.csv"
        save_csv_matrix(matrix, path)
        assert np.array_equal(load_csv_matrix(path), matrix)

    def test_save_bytes_deterministic(self, tmp_path):
        matrix = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv_matrix(matrix, a)
        save_csv_matrix(matrix, b)
        assert a.read_bytes() == b.read_bytes()


def tagged_dataset(n_classes=3, per_class=8, dim=5):
    """Images whose first two rows encode (label, column index)."""
    total = n_classes * per_class
    labels = np.repeat(np.arange(n_classes), per_class)
    images = np.zeros((dim, total))
    images[0] = labels
    images[1] = np.arange(total)
    return images, labels


def subset_config(**kwargs) -> ExperimentConfig:
    base = dict(
        dataset_path="unused",
        dataset_format=DataFormat.CSV,
        classes_to_pick=2,
        images_per_class=3,
        seed=11,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestSampleSubset:

    def test_counts_and_membership(self):
        images, labels = tagged_dataset()
        cfg = subset_config()
        subset = sample_subset(images, labels, cfg, trial_index=0)
        assert subset.shape == (5, 6)
        picked = subset[0].astype(int)
        # exactly two classes, each contributing exactly images_per_class columns
        classes, counts = np.unique(picked, return_counts=True)
        assert classes.size == 2 and set(counts) == {3}
        # no column drawn twice
        assert np.unique(subset[1]).size == 6

    def test_deterministic_per_trial(self):
        images, labels = tagged_dataset()
        cfg = subset_config()
        a = sample_subset(images, labels, cfg, trial_index=4)
        b = sample_subset(images, labels, cfg, trial_index=4)
        c = sample_subset(images, labels, cfg, trial_index=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_changes_the_draw(self):
        images, labels = tagged_dataset()
        a = sample_subset(images, labels, subset_config(seed=11), 0)
        b = sample_subset(images, labels, subset_config(seed=12), 0)
        assert not np.array_equal(a, b)

    def test_too_many_classes(self):
        images, labels = tagged_dataset(n_classes=2)
        cfg = subset_config(classes_to_pick=3)
        with pytest.raises(InsufficientImages):
            sample_subset(images, labels, cfg, 0)

    def test_too_few_members(self):
        images, labels = tagged_dataset(per_class=2)
        cfg = subset_config(images_per_class=3)
        with pytest.raises(InsufficientImages):
            sample_subset(images, labels, cfg, 0)

    def test_shape_validation(self):
        images, labels = tagged_dataset()
        with pytest.raises(DimensionMismatch):
            sample_subset(images, labels[:-1], subset_config(), 0)


def write_labeled_csv(path, n_classes=2, per_class=8, dim=6, seed=7, zero_column=False):
    rng = np.random.default_rng(seed)
    columns, labels = [], []
    for cls in range(n_classes):
        proto = rng.uniform(0.3, 1.0, size=dim)
        for _ in range(per_class):
            columns.append(np.clip(proto + rng.normal(0.0, 0.08, size=dim), 0.01, 2.0))
            labels.append(cls)
    X = np.asarray(columns).T
    if zero_column:
        X[:, 0] = 0.0
    lines = [",".join(str(l) for l in labels)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in X)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sweep_config(path, **kwargs) -> ExperimentConfig:
    base = dict(
        dataset_path=str(path),
        dataset_format=DataFormat.CSV,
        classes_to_pick=2,
        images_per_class=5,
        trials=2,
        seed=3,
        similarity=SimilarityConfig(kernel=Kernel.COSINE, knn=3),
        k_list=(2, 3),
        L_list=(0, 1),
        max_iters=60,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestRunSweep:

    def test_grid_rows_and_invariants(self, tmp_path):
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        cfg = sweep_config(data)
        report = run_sweep(cfg, timer=lambda: 0.0)
        assert isinstance(report, SweepReport)
        assert not report.failures
        assert len(report.rows) == 2 * 2 * 2  # trials x k x L
        keys = [(r.trial, r.k, r.L) for r in report.rows]
        assert keys == sorted(keys)
        for row in report.rows:
            assert row.iters <= cfg.max_iters
            assert row.final_mse <= row.initial_mse + 1e-12
            assert row.wall_time_ms == 0.0
            if row.L == 0:
                # order-0 training starts at the baseline and never backs up
                assert row.final_mse <= row.pca_mse * (1.0 + 1e-8) + 1e-15

    def test_order_monotone_through_warm_start(self, tmp_path):
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        cfg = sweep_config(data, L_list=(0, 1, 2), k_list=(2,), trials=2)
        report = run_sweep(cfg)
        for trial in range(2):
            finals = [r.final_mse for r in report.rows if r.trial == trial and r.k == 2]
            assert len(finals) == 3
            for lower, higher in zip(finals, finals[1:]):
                assert higher <= lower * (1.0 + 1e-10)

    def test_aggregates_match_rows(self, tmp_path):
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        report = run_sweep(sweep_config(data), timer=lambda: 0.0)
        for agg in report.aggregates:
            finals = [r.final_mse for r in report.rows if (r.k, r.L) == (agg.k, agg.L)]
            assert agg.trials == len(finals) == 2
            mean = sum(finals) / len(finals)
            assert agg.mean_final_mse == pytest.approx(mean, rel=1e-15)
            var = sum((v - mean) ** 2 for v in finals) / len(finals)
            assert agg.std_final_mse == pytest.approx(var**0.5, rel=1e-12, abs=1e-300)

    def test_upfront_validation(self, tmp_path):
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        with pytest.raises(ConfigError):
            run_sweep(sweep_config(data, k_list=(11,)))  # k > subset size 10
        big_knn = sweep_config(data, similarity=SimilarityConfig(kernel=Kernel.COSINE, knn=10))
        with pytest.raises(ConfigError):
            run_sweep(big_knn)

    def test_bad_cells_are_recorded_not_raised(self, tmp_path):
        # a zero column makes the cosine graph unbuildable for every trial,
        # so each cell shows up as a failure and the row table stays empty
        data = tmp_path / "z.csv"
        write_labeled_csv(data, zero_column=True)
        cfg = sweep_config(data, classes_to_pick=2, images_per_class=8, trials=2)
        report = run_sweep(cfg, timer=lambda: 0.0)
        assert report.rows == ()
        assert len(report.failures) == 2 * 2 * 2
        assert all("ZeroColumn" in f.message for f in report.failures)
        # emitters still work on an all-failure report
        emit_csv(report, tmp_path / "empty.csv")
        emit_svg(report, tmp_path / "empty.svg")
        assert (tmp_path / "empty.csv").read_text().strip() == (
            "trial,k,L,iters,initial_mse,final_mse,pca_mse,wall_time_ms"
        )
        assert b"polyline" not in (tmp_path / "empty.svg").read_bytes()

    def test_one_fit_per_cell_warm_above_order_zero(self, tmp_path, monkeypatch):
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        calls = []

        def counting_fit(ds, spectrum, k, order, **kwargs):
            calls.append((order, kwargs.get("start")))
            return fit(ds, spectrum, k, order, **kwargs)

        monkeypatch.setattr(harness, "fit", counting_fit)
        cfg = sweep_config(data, L_list=(0, 1, 2), k_list=(2,), trials=2)
        report = run_sweep(cfg, timer=lambda: 0.0)
        assert not report.failures
        assert len(calls) == 2 * 1 * 3  # trials x k x L
        for order, start in calls:
            assert (start is not None) == (order >= 1)
            if order >= 1:
                assert start.order == order - 1

    def test_overflowing_order_fails_only_its_own_cells(self, tmp_path):
        # the top eigenvalue is about 3.6, so without normalization the
        # eigenvalue powers pass the 1e150 guard at order 300 (but stay finite);
        # the lower orders of the same trial still train
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        cfg = sweep_config(data, L_list=(0, 1, 300))
        assert not cfg.similarity.normalize_spectrum
        report = run_sweep(cfg, timer=lambda: 0.0)
        assert [(r.trial, r.k, r.L) for r in report.rows] == [
            (trial, k, L) for trial in (0, 1) for k in (2, 3) for L in (0, 1)
        ]
        assert [(f.trial, f.k, f.L) for f in report.failures] == [
            (trial, k, 300) for trial in (0, 1) for k in (2, 3)
        ]
        assert all(f.message.startswith("SpectralOverflow:") for f in report.failures)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        cfg = sweep_config(data)
        a, b = tmp_path / "one.csv", tmp_path / "two.csv"
        emit_csv(run_sweep(cfg, timer=lambda: 0.0), a)
        emit_csv(run_sweep(cfg, timer=lambda: 0.0), b)
        assert a.read_bytes() == b.read_bytes()


class TestEmitters:

    def build_report(self, tmp_path):
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        return run_sweep(sweep_config(data), timer=lambda: 0.0)

    def test_csv_is_parseable_and_exact(self, tmp_path):
        report = self.build_report(tmp_path)
        out = tmp_path / "report.csv"
        emit_csv(report, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,k,L,iters,initial_mse,final_mse,pca_mse,wall_time_ms"
        assert len(lines) == 1 + len(report.rows)
        for line, row in zip(lines[1:], report.rows):
            cells = line.split(",")
            assert int(cells[0]) == row.trial
            assert int(cells[1]) == row.k
            assert int(cells[2]) == row.L
            assert int(cells[3]) == row.iters
            # repr round-trips doubles exactly
            assert float(cells[4]) == row.initial_mse
            assert float(cells[5]) == row.final_mse
            assert float(cells[6]) == row.pca_mse
            assert float(cells[7]) == row.wall_time_ms

    def test_svg_structure(self, tmp_path):
        report = self.build_report(tmp_path)
        out = tmp_path / "chart.svg"
        emit_svg(report, out)
        text = out.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == 2  # one per order
        assert ">L=0</text>" in text and ">L=1</text>" in text
        again = tmp_path / "chart2.svg"
        emit_svg(report, again)
        assert out.read_bytes() == again.read_bytes()


class TestSynthDigits:

    def test_shapes_and_range(self):
        images, labels = synth_digits(n_classes=3, per_class=4, seed=1, size=12)
        assert images.shape == (144, 12)
        assert labels.tolist() == [0] * 4 + [1] * 4 + [2] * 4
        assert float(images.min()) >= 0.0 and float(images.max()) <= 1.0

    def test_deterministic(self):
        a, _ = synth_digits(n_classes=2, per_class=3, seed=5, size=10)
        b, _ = synth_digits(n_classes=2, per_class=3, seed=5, size=10)
        c, _ = synth_digits(n_classes=2, per_class=3, seed=6, size=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_classes_are_separated(self):
        # within-class distances should be visibly below between-class ones
        images, labels = synth_digits(n_classes=4, per_class=6, seed=2, size=16)
        within, between = [], []
        for i in range(images.shape[1]):
            for j in range(i + 1, images.shape[1]):
                d = float(np.linalg.norm(images[:, i] - images[:, j]))
                (within if labels[i] == labels[j] else between).append(d)
        assert np.mean(within) < 0.5 * np.mean(between)


class TestConfigFiles:

    def test_parse_text(self):
        text = """
        # experiment
        dataset-path = data/train.csv
        dataset_format = csv

        classes-to-pick = 4
        images_per_class = 10
        k_list = 5,10,20
        """
        mapping = parse_config_text(text)
        assert mapping["dataset_path"] == "data/train.csv"
        assert mapping["classes_to_pick"] == "4"
        assert mapping["k_list"] == "5,10,20"

    def test_parse_rejects_unknown_keys_and_bad_lines(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("mystery = 3")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("# fine\nno equals sign here")

    def test_mapping_to_config(self):
        cfg = config_from_mapping(
            {
                "dataset_path": "x.csv",
                "dataset_format": "csv",
                "classes_to_pick": "3",
                "images_per_class": "7",
                "trials": "4",
                "seed": "9",
                "kernel": "gaussian",
                "alpha": "0.5",
                "knn": "4",
                "symmetrization": "mutual",
                "normalize_spectrum": "yes",
                "k_list": "2,4",
                "l_list": "0,1,2",
                "epsilon": "1e-7",
                "max_iters": "123",
            }
        )
        assert cfg.dataset_format is DataFormat.CSV
        assert cfg.classes_to_pick == 3 and cfg.images_per_class == 7
        assert cfg.trials == 4 and cfg.seed == 9
        assert cfg.similarity.kernel is Kernel.GAUSSIAN
        assert cfg.similarity.alpha == 0.5
        assert cfg.similarity.knn == 4
        assert cfg.similarity.symmetrization is Symmetrization.MUTUAL
        assert cfg.similarity.normalize_spectrum is True
        assert cfg.k_list == (2, 4) and cfg.L_list == (0, 1, 2)
        assert cfg.epsilon == 1e-7 and cfg.max_iters == 123

    def test_defaults(self):
        cfg = config_from_mapping(
            {"dataset_path": "x", "classes_to_pick": "2", "images_per_class": "5"}
        )
        assert cfg.dataset_format is DataFormat.IDX
        assert cfg.trials == 1 and cfg.seed == 0
        assert cfg.similarity == SimilarityConfig()
        assert cfg.k_list == (5,) and cfg.L_list == (0, 1)
        assert cfg.epsilon is None and cfg.max_iters == 500

    @pytest.mark.parametrize(
        "patch",
        [
            {"dataset_path": None},
            {"classes_to_pick": "zero"},
            {"classes_to_pick": "0"},
            {"trials": "0"},
            {"dataset_format": "xml"},
            {"kernel": "rbf"},
            {"symmetrization": "both"},
            {"alpha": "wide"},
            {"normalize_spectrum": "maybe"},
            {"k_list": "2,banana"},
            {"k_list": "0"},
            {"l_list": "-1"},
            {"knn": "0"},
            {"epsilon": "tiny"},
            {"max_iters": "-3"},
            {"epsilon": "0"},
            {"epsilon": "-1e-6"},
            {"epsilon": "nan"},
        ],
    )
    def test_bad_values_raise_config_error(self, patch):
        mapping = {"dataset_path": "x", "classes_to_pick": "2", "images_per_class": "5"}
        mapping.update({k: v for k, v in patch.items() if v is not None})
        for key, value in patch.items():
            if value is None:
                mapping.pop(key, None)
        with pytest.raises(ConfigError):
            config_from_mapping(mapping)

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "dataset_path = d.csv\ndataset_format = csv\n"
            "classes_to_pick = 2\nimages_per_class = 5\nknn = 3\n"
        )
        cfg = config_from_mapping(parse_config_text(path.read_text()))
        assert cfg.dataset_path == "d.csv"
        assert cfg.similarity.knn == 3

    def test_readme_config_block(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = config_from_mapping(parse_config_text(block))
        assert cfg.trials == 5
        assert cfg.k_list == (5, 10, 20)
        assert cfg.L_list == (0, 1, 2)
