"""Data loading, deterministic sampling, sweeps, and report emitters."""

import decimal
import math
import os
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfred import csvtext, harness
from gfred.errors import (
    BadMagic,
    ConfigError,
    ConvergenceFailure,
    CountMismatch,
    CsvParseError,
    DimensionMismatch,
    InsufficientImages,
    SpectralOverflow,
    TruncatedFile,
)
from gfred.graph import Kernel, SimilarityConfig, Symmetrization
from gfred.harness import (
    DataFormat,
    ExperimentConfig,
    SweepFailure,
    SweepReport,
    SweepRow,
    config_from_mapping,
    emit_csv,
    load_csv_matrix,
    load_idx,
    load_matrix,
    parse_config_text,
    run_sweep,
    sample_subset,
    save_csv_matrix,
    synth_digits,
)
from gfred.optimizer import FilterModel, fit
from gfred.pca import PcaModel, pca_fit
from gfred.rng import CounterRng, splitmix64

from oracles import csv_bytes, csv_floats


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
        images_path, _ = write_idx_pair(tmp_path)
        images, labels = load_idx(images_path)
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

    def test_underivable_name_raises(self, tmp_path):
        src, _ = write_idx_pair(tmp_path)
        odd = tmp_path / "blob.bin"
        odd.write_bytes(src.read_bytes())
        with pytest.raises(ConfigError, match="cannot derive a labels file name from 'blob.bin'"):
            load_idx(odd)

    def test_images_alone_need_no_labels_name(self, tmp_path):
        src, _ = write_idx_pair(tmp_path)
        odd = tmp_path / "blob.bin"
        odd.write_bytes(src.read_bytes())
        images, _ = load_idx(src)
        assert np.array_equal(load_idx(odd, labels=False), images)

    def test_bad_image_magic(self, tmp_path):
        images_path, _ = write_idx_pair(tmp_path)
        blob = images_path.read_bytes()
        images_path.write_bytes(struct.pack(">I", 0x999) + blob[4:])
        with pytest.raises(BadMagic):
            load_idx(images_path)

    def test_bad_label_magic(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path)
        blob = labels_path.read_bytes()
        labels_path.write_bytes(struct.pack(">I", 0x803) + blob[4:])
        with pytest.raises(BadMagic):
            load_idx(images_path)

    def test_truncated_pixels(self, tmp_path):
        images_path, _ = write_idx_pair(tmp_path)
        images_path.write_bytes(images_path.read_bytes()[:-5])
        with pytest.raises(TruncatedFile):
            load_idx(images_path)

    def test_truncated_labels(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path)
        labels_path.write_bytes(labels_path.read_bytes()[:-2])
        with pytest.raises(TruncatedFile):
            load_idx(images_path)

    def test_count_mismatch(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path)
        labels_path.write_bytes(struct.pack(">II", 0x801, 5) + bytes(5))
        with pytest.raises(CountMismatch):
            load_idx(images_path)

    def test_zero_images_load_as_an_empty_matrix(self, tmp_path):
        images_path, _ = write_idx_pair(tmp_path, count=0, labels=())
        images, labels = load_idx(images_path)
        assert images.shape == (6, 0)
        assert labels.shape == (0,) and labels.dtype == np.int64

    @pytest.mark.parametrize(
        "which, cut, tail",
        [
            ("images", 10, "ran out of bytes reading header"),
            ("images", -5, "ran out of bytes reading 6 images"),
            ("labels", 5, "ran out of bytes reading header"),
            ("labels", -2, "ran out of bytes reading 6 labels"),
        ],
    )
    def test_truncation_messages(self, tmp_path, which, cut, tail):
        paths = dict(zip(("images", "labels"), write_idx_pair(tmp_path)))
        paths[which].write_bytes(paths[which].read_bytes()[:cut])
        with pytest.raises(TruncatedFile) as exc:
            load_idx(paths["images"])
        assert str(exc.value) == f"{paths[which]}: {tail}"

    @pytest.mark.parametrize(
        "which, magic, expected",
        [("images", 0x999, "0x00000803"), ("labels", 0x803, "0x00000801")],
    )
    def test_bad_magic_messages(self, tmp_path, which, magic, expected):
        paths = dict(zip(("images", "labels"), write_idx_pair(tmp_path)))
        blob = paths[which].read_bytes()
        paths[which].write_bytes(struct.pack(">I", magic) + blob[4:])
        with pytest.raises(BadMagic) as exc:
            load_idx(paths["images"])
        assert str(exc.value) == f"{paths[which]}: magic {magic:#010x}, expected {expected}"

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

    @pytest.mark.parametrize("column", [1, 3, 5], ids=["first", "middle", "last"])
    @pytest.mark.parametrize(
        "cell, tail",
        [("oops", ""), ("", ""), ("nan", " is not finite"), ("-inf", " is not finite"),
         ("1e400", " is not finite")],
        ids=["word", "blank", "nan", "-inf", "overflow"],
    )
    def test_bad_cell_message(self, tmp_path, column, cell, tail):
        cells = ["1", "2", "3", "4", "5"]
        cells[column - 1] = cell
        path = tmp_path / "m.csv"
        path.write_text("0,1,2,3,4\n" + ",".join(cells) + "\n5,6,7,8,9\n")
        with pytest.raises(CsvParseError) as caught:
            load_csv_matrix(path)
        assert str(caught.value) == f"{path}: row 2, column {column}: {cell!r}{tail}"

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2\n\xff,4\n")
        with pytest.raises(CsvParseError, match=r"not UTF-8 text") as caught:
            load_csv_matrix(path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_first_bad_cell_in_reading_order_is_named(self, tmp_path):
        path = tmp_path / "m.csv"
        # a non-finite cell comes before an unparsable one in the same row,
        # and before a short row and an unparsable cell further down
        path.write_text("1,2,3\n4,inf,x\n7,8\n9,y,1\n")
        with pytest.raises(CsvParseError, match=r"row 2, column 2: 'inf' is not finite"):
            load_csv_matrix(path)
        path.write_text("1,2,3\n4,5,6\n7,8\n9,nan,1\n")
        with pytest.raises(CsvParseError, match=r"row 3 has 2 cells, expected 3"):
            load_csv_matrix(path)
        path.write_text("1,2,3\n4,5,6\n7,x,9\n9,8\n")
        with pytest.raises(CsvParseError, match=r"row 3, column 2: 'x'$"):
            load_csv_matrix(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(CsvParseError, match=r"row 2"):
            load_csv_matrix(path)

    def test_wider_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4,5\n6,7\n")
        with pytest.raises(CsvParseError) as caught:
            load_csv_matrix(path)
        assert str(caught.value) == f"{path}: row 2 has 3 cells, expected 2"

    def test_crlf_and_whitespace_only_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2\r\n  \r\n\r\n3, 4\r\n\t\n5,6\n \r\n")
        assert np.array_equal(load_csv_matrix(path), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_one_column_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.5\n-2\n3e2\n")
        matrix = load_csv_matrix(path)
        assert matrix.shape == (3, 1)
        assert np.array_equal(matrix[:, 0], [1.5, -2.0, 300.0])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n\n")
        with pytest.raises(CsvParseError):
            load_csv_matrix(path)

    @pytest.mark.parametrize("data", [b"", "\n\r\n \n\t\r\n\u2003\n".encode("utf-8")],
                             ids=["empty", "blank-only"])
    def test_no_data_raises_before_numpy_can_warn(self, tmp_path, data):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CsvParseError) as raised:
                load_csv_matrix(path)
        assert caught == []
        assert str(raised.value) == f"{path}: empty file"

    def test_float_walk_reads_only_what_numpy_refuses(self, tmp_path, monkeypatch):
        walk, walked = harness._walk_csv, []

        def watched(path):
            walked.append(path)
            return walk(path)

        monkeypatch.setattr(harness, "_walk_csv", watched)
        path = tmp_path / "m.csv"
        # whitespace-only lines are dropped before numpy reads the file
        path.write_bytes(b"1,2\r\n  \r\n\r\n3, 4\r\n\t\n5,6\n \r\n")
        assert np.array_equal(load_csv_matrix(path), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert walked == []
        path.write_text("1_000,2\n3,4\n")
        assert np.array_equal(load_csv_matrix(path), [[1000.0, 2.0], [3.0, 4.0]])
        assert walked == [path]

    def test_a_gz_name_is_read_as_text(self, tmp_path):
        # numpy, given the path, would try to gunzip it
        path = tmp_path / "m.csv.gz"
        path.write_text("1,2\n3,4\n")
        assert np.array_equal(load_csv_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_non_integer_labels_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,1\n2,3\n")
        with pytest.raises(CsvParseError):
            load_csv_matrix(path, first_row_labels=True)

    @pytest.mark.parametrize("label", ["1e19", "-1e19", "9223372036854775808", "1e300"])
    def test_labels_outside_int64_rejected(self, tmp_path, label):
        path = tmp_path / "m.csv"
        path.write_text(f"0,{label},1\n2,3,4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(CsvParseError) as caught:
                load_csv_matrix(path, first_row_labels=True)
        assert str(caught.value) == f"{path}: labels must lie in [-2**63, 2**63)"

    def test_labels_at_the_int64_ends_load(self, tmp_path):
        path = tmp_path / "m.csv"
        # -2**63 and the largest double below 2**63
        path.write_text("-9223372036854775808,9223372036854774784\n2,3\n")
        _, labels = load_csv_matrix(path, first_row_labels=True)
        assert labels.tolist() == [-(2**63), 2**63 - 1024]

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


class TestLoadMatrix:
    """The one loader behind every command's --data and the sweep's dataset."""

    @pytest.mark.parametrize("fmt", [DataFormat.IDX, "idx"])
    def test_idx_images_with_and_without_their_labels(self, tmp_path, fmt):
        images_path, labels_path = write_idx_pair(tmp_path)
        images, labels = load_idx(images_path)
        paired = load_matrix(images_path, fmt, labels=True)
        assert np.array_equal(paired[0], images) and np.array_equal(paired[1], labels)
        labels_path.unlink()  # the images alone need no labels file
        assert np.array_equal(load_matrix(images_path, fmt), images)

    def test_idx_is_read_by_load_idx_alone(self, tmp_path, monkeypatch):
        # with and without labels, so that a wrapper around load_idx sees
        # every IDX read
        images_path, _ = write_idx_pair(tmp_path)
        calls, real = [], harness.load_idx

        def spy(path, labels=True):
            calls.append(labels)
            return real(path, labels=labels)

        monkeypatch.setattr(harness, "load_idx", spy)
        load_matrix(images_path, "idx")
        load_matrix(images_path, "idx", labels=True)
        assert calls == [False, True]

    @pytest.mark.parametrize("fmt", [DataFormat.CSV, "csv"])
    def test_csv_with_and_without_a_label_row(self, tmp_path, fmt):
        path = tmp_path / "m.csv"
        path.write_text("0,1,1\n0.5,0.25,0.125\n1,2,3\n")
        matrix, labels = load_matrix(path, fmt, labels=True)
        assert labels.tolist() == [0, 1, 1]
        assert np.array_equal(matrix, [[0.5, 0.25, 0.125], [1.0, 2.0, 3.0]])
        assert np.array_equal(load_matrix(path, fmt), load_csv_matrix(path))

    def test_unknown_format_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            load_matrix(tmp_path / "m.npy", "npy")


def csv_matrices():
    """Matrices that cover what the CSV writer's ``repr`` can print."""
    rng = np.random.default_rng(23)
    # repr switches to exponent notation below 1e-4 and from 1e16 on
    switch = [1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0), 1e-4,
              np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0),
              np.nextafter(1e16, 2e16), 9999999999999998.0, -1.2345678901234567e16]
    return {
        "lognormal": rng.normal(size=(6, 9)) * np.exp(rng.normal(size=(6, 9)) * 5),
        "signed-zero-subnormal": np.array(
            [[-0.0, 5e-324, 0.0], [-5e-324, 2.2250738585072014e-308, -0.0]]
        ),
        "notation-switch": np.array(switch).reshape(2, 5),
        "integers": np.arange(-12.0, 12.0).reshape(4, 6) * 1000.0,
        "one-row": rng.normal(size=(1, 7)),
        "one-column": rng.normal(size=(7, 1)),
        "zero-rows": np.zeros((0, 4)),
        "zero-columns": np.zeros((3, 0)),
    }


class TestCsvParity:
    """The streaming writer and numpy's reader against the whole-body
    writer and the per-cell ``float()`` parse."""

    @pytest.mark.parametrize("name", list(csv_matrices()))
    def test_written_bytes_match_the_whole_body_writer(self, tmp_path, name):
        matrix = csv_matrices()[name]
        path = tmp_path / "m.csv"
        save_csv_matrix(matrix, path)
        assert path.read_bytes() == csv_bytes(matrix)

    @pytest.mark.parametrize("name", list(csv_matrices()))
    def test_read_bits_match_the_float_parse(self, tmp_path, name):
        matrix = csv_matrices()[name]
        path = tmp_path / "m.csv"
        path.write_bytes(csv_bytes(matrix))
        if matrix.size == 0:  # every line is blank
            with pytest.raises(CsvParseError) as caught:
                load_csv_matrix(path)
            assert str(caught.value) == f"{path}: empty file"
            return
        loaded = load_csv_matrix(path)
        expected = csv_floats(path.read_text(encoding="utf-8"))
        assert loaded.dtype == np.float64 and loaded.shape == expected.shape
        assert np.array_equal(loaded.view(np.int64), expected.view(np.int64))
        assert np.array_equal(loaded.view(np.int64), matrix.view(np.int64))

    @pytest.mark.parametrize(
        "text",
        ["1_000,\u0661,2.5\n3,\u0661\u0662.5,4_0.0_1\n",  # only float() reads these
         "0.1, 0.2 ,\t0.3\n1e-320,-1e308,.5\n",
         "1,2\n\u2003\n3,4\n",
         "0.30000000000000004,1.0000000000000002,2.2250738585072011e-308\n"
         "9007199254740993,4.9406564584124654e-324,1.7976931348623157e308\n"],
        ids=["float-only-spellings", "padded", "unicode-blank-line",
             "halfway-and-extremes"],
    )
    def test_text_reads_as_the_float_parse(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = csv_floats(text)
        assert np.array_equal(load_csv_matrix(path).view(np.int64), expected.view(np.int64))

    def test_random_digit_strings_read_as_the_float_parse(self, tmp_path):
        # long digit strings, subnormals and values at a rounding boundary
        rng = np.random.default_rng(5)
        digits = ["".join(map(str, rng.integers(0, 10, size=rng.integers(1, 30))))
                  for _ in range(600)]
        cells = [f"{d[:1]}.{d[1:]}e{e}" for d, e in zip(digits, rng.integers(-330, 308, 600))]
        cells += map(repr, (rng.normal(size=300) * np.exp(rng.normal(size=300) * 30)).tolist())
        # the exact decimal halfway between two neighbouring doubles
        with decimal.localcontext(decimal.Context(prec=1200)):
            for v in (rng.normal(size=300) * 10.0 ** rng.uniform(-320, 300, 300)).tolist():
                low, high = decimal.Decimal(v), decimal.Decimal(np.nextafter(v, np.inf).item())
                cells.append(str((low + high) / 2))
        path = tmp_path / "m.csv"
        text = "\n".join(",".join(cells[i : i + 40]) for i in range(0, len(cells), 40)) + "\n"
        path.write_text(text, encoding="utf-8")
        expected = csv_floats(text)
        assert np.isfinite(expected).all()
        assert np.array_equal(load_csv_matrix(path).view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize(
        "text, tail",
        [("1,2\n#3,4\n", "row 2, column 1: '#3'"),
         ("1.5#x,2\n3,4\n", "row 1, column 1: '1.5#x'"),
         ("1,2\n3,4\x1c\n", "row 2, column 2: '4\\x1c'"),
         ("1,2\n  \n3,nan\n", "row 2, column 2: 'nan' is not finite"),
         ("1,2\r\n3,inf\r\n", "row 2, column 2: 'inf' is not finite"),
         ("1,1e999\n3,4\n", "row 1, column 2: '1e999' is not finite"),
         ("1,2\n3\n4,5\n", "row 2 has 1 cells, expected 2"),
         ("1,2,\n3,4,\n", "row 1, column 3: ''")],
        ids=["hash-prefix", "hash-inside", "separator-char", "whitespace-line-then-nan",
             "crlf-inf", "overflow", "ragged", "trailing-comma"],
    )
    def test_fault_messages(self, tmp_path, text, tail):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(CsvParseError) as caught:
            load_csv_matrix(path)
        assert str(caught.value) == f"{path}: {tail}"

    def test_not_a_matrix_writes_no_file(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(DimensionMismatch):
            save_csv_matrix(np.arange(3.0), path)
        assert not path.exists()
        with pytest.raises(ValueError):
            save_csv_matrix([["1", "x"]], path)
        assert not path.exists()


def _neighbours(values):
    """Each value with the doubles on either side of it."""
    return [w for v in values for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


# the values repr's rules and the block writer's decisions turn on: signed
# zeros, subnormals, the extremes, NaN and the infinities, powers of two
# (whose gap below is half the gap above) and of ten, the notation switches
# at 1e-4 and 1e16 and the block writer's own range [1e-10, 1e16)
EDGE_FLOATS = (
    [0.0, math.nan, math.inf]
    + _neighbours([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    + _neighbours([2.0**k for k in range(-1074, 1024)])
    + _neighbours([10.0**k for k in range(-323, 309)])
    + _neighbours([1e-10, 1e-5, 1e-4, 1e16, 9999999999999998.0, 0.1, 0.3])
)


@st.composite
def bit_pattern_matrices(draw):
    """A matrix of 0-6 rows and 0-6 columns whose cells are raw float64 bit
    patterns or edge values, either sign."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cell = st.one_of(
        st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
        st.builds(math.copysign, st.sampled_from(EDGE_FLOATS), st.sampled_from([1.0, -1.0])),
    )
    cells = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.float64).reshape(rows, cols)


def csv_corpus(rng, size=200_000) -> np.ndarray:
    """A million and more doubles of the kinds a data file holds, shuffled:
    uniform in [0, 1), log-uniform over every binary exponent (subnormals
    included), integers, short decimals and 8-bit pixel values over 255."""
    sign = rng.choice([-1.0, 1.0], size)
    kinds = [
        rng.random(size),
        sign * np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(-1074, 1024, size)),
        rng.integers(-(2**53), 2**53, size).astype(np.float64),
        rng.integers(-(10**6), 10**6, size) / 10.0 ** rng.integers(0, 7, size),
        rng.integers(0, 256, size) / 255.0,
        np.repeat([0.0, -0.0, 1.0, -1.0, 0.5], size // 5),
    ]
    return rng.permutation(np.concatenate(kinds))


class TestCsvText:
    """The block writer of ``gfred.csvtext`` against the whole-body ``repr``
    writer, byte for byte."""

    @staticmethod
    def saved(matrix, path) -> bytes:
        save_csv_matrix(matrix, path)
        return path.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(matrix=bit_pattern_matrices(), block=st.sampled_from([1, 3, 2048, csvtext._BLOCK]))
    def test_bit_patterns_and_edges_match_repr(self, tmp_path_factory, matrix, block):
        # small blocks make the blocks cross row ends and pad the last one
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        with mock.patch.object(csvtext, "_BLOCK", block):
            assert self.saved(matrix, path) == csv_bytes(matrix)

    def test_every_edge_value_matches_repr(self, tmp_path):
        edges = np.array(EDGE_FLOATS + [-v for v in EDGE_FLOATS])
        matrix = np.resize(edges, (edges.size // 97 + 1, 97))
        assert self.saved(matrix, tmp_path / "m.csv") == csv_bytes(matrix)

    def test_million_value_corpus_matches_repr(self, tmp_path):
        corpus = csv_corpus(np.random.default_rng(2718))
        assert corpus.size >= 10**6
        # the transpose of a 997-row matrix: a Fortran-ordered view of 997
        # columns, so blocks of 2048 floats start mid-row
        matrix = corpus[: corpus.size // 997 * 997].reshape(997, -1).T
        assert self.saved(matrix, tmp_path / "m.csv") == csv_bytes(matrix)

    def test_every_float_through_repr(self, tmp_path, monkeypatch):
        written = []

        def counted_repr(value):
            written.append(value)
            return repr(value)

        # an empty range: no float, and no zero here, takes the block path
        monkeypatch.setattr(csvtext, "_FAST", (np.inf, np.inf))
        monkeypatch.setattr(csvtext, "repr", counted_repr, raising=False)
        rng = np.random.default_rng(29)
        matrix = rng.normal(size=(40, 90)) * np.exp(rng.normal(size=(40, 90)) * 8)
        matrix[0, :5] = [0.1, 1e-300, np.nan, -np.inf, 2.0**-1074]
        assert self.saved(matrix, tmp_path / "m.csv") == csv_bytes(matrix)
        assert len(written) == matrix.size

    @pytest.mark.parametrize("name", list(csv_matrices()))
    def test_without_extended_precision_rows_are_joined(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(csvtext, "_EXTENDED", False)
        monkeypatch.setattr(csvtext, "_write_blocks", None)  # never reached
        matrix = csv_matrices()[name]
        assert self.saved(matrix, tmp_path / "m.csv") == csv_bytes(matrix)

    def test_a_formatting_error_reaches_the_caller(self, tmp_path, monkeypatch):
        # 100 blocks of ten floats; block b starts at 10.0 * b
        monkeypatch.setattr(csvtext, "_BLOCK", 10)
        matrix = np.arange(1000.0).reshape(100, 10)
        classify = csvtext._classify
        for failing in (3, 2):

            def fail_on_one_block(x, state, failing=failing):
                if x[0] == 10.0 * failing:
                    raise RuntimeError(f"block {failing}")
                return classify(x, state)

            monkeypatch.setattr(csvtext, "_classify", fail_on_one_block)
            path = tmp_path / f"m{failing}.csv"
            with pytest.raises(RuntimeError, match=f"block {failing}"):
                save_csv_matrix(matrix, path)
            # the blocks before it were written, in order
            assert path.read_bytes() == csv_bytes(matrix[:failing])

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_a_write_starts_no_thread(self, tmp_path, monkeypatch, cpus):
        # 1,000 floats in blocks of ten, all formatted by the calling thread
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(csvtext, "_BLOCK", 10)

        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        matrix = np.arange(1000.0).reshape(100, 10) / 7.0
        threads = threading.active_count()
        assert self.saved(matrix, tmp_path / "m.csv") == csv_bytes(matrix)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus, block", [(1, 256), (2, 256), (2, 8192), (4, 256)])
    def test_one_state_per_write_and_the_same_bytes(self, tmp_path, monkeypatch, cpus, block):
        # 30,300 floats: 119 blocks of at most 256, or 4 of at most 8,192
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(csvtext, "_BLOCK", block)
        built = []

        class Counted(csvtext._State):
            def __init__(self, n):
                super().__init__(n)
                built.append(n)

        monkeypatch.setattr(csvtext, "_State", Counted)
        rng = np.random.default_rng(34)
        matrix = rng.normal(size=(300, 101)) * np.exp(rng.normal(size=(300, 101)) * 4)
        assert self.saved(matrix, tmp_path / "m.csv") == csv_bytes(matrix)
        # one state for the write, of one block length, none over _BLOCK,
        # in as few blocks as _BLOCK allows
        assert len(built) == 1 and built[0] <= block
        assert -(-matrix.size // built[0]) == -(-matrix.size // block)

    def test_import_loads_no_executor_and_builds_no_state(self):
        code = (
            "import gc, sys\n"
            "import gfred.cli\n"
            "from gfred import csvtext\n"
            "print(sorted(m for m in ('concurrent.futures', 'queue') if m in sys.modules))\n"
            "print(sum(isinstance(o, csvtext._State) for o in gc.get_objects()))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(csvtext.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout.split("\n")[:2] == ["[]", "0"]


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

    def test_one_factorization_per_tall_dataset(self, tmp_path, monkeypatch):
        # a trial's three PCA widths and six fits on tall data (dim 144,
        # n 24) read one SVD of the centered data, and no fit takes a QR
        images, labels = synth_digits(n_classes=4, per_class=8, size=12)
        data = tmp_path / "tall.csv"
        save_csv_matrix(np.vstack([labels[None, :], images]), data)
        calls = []

        def counting(name, solver):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return solver(*args, **kwargs)
            return wrapper

        for name in ("svd", "qr"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        cfg = sweep_config(data, classes_to_pick=3, images_per_class=8, trials=1,
                           k_list=(5, 10, 20), L_list=(0, 1), max_iters=20)
        report = run_sweep(cfg, timer=lambda: 0.0)
        assert not report.failures
        assert len(report.rows) == 6
        assert calls == ["svd"]

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

    def test_high_order_starts_where_the_order_below_ended(self, tmp_path):
        # at unit spectral radius the order-300 powers stay bounded and its
        # kernel keeps the lower order's reduced vectors, so each warm start
        # carries the previous final MSE and the grid stays monotone in L
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        report = run_sweep(sweep_config(data, L_list=(0, 1, 2, 3, 300)), timer=lambda: 0.0)
        assert not report.failures
        assert len(report.rows) == 2 * 2 * 5  # trials x k x L
        for trial in (0, 1):
            for k in (2, 3):
                cells = [r for r in report.rows if (r.trial, r.k) == (trial, k)]
                assert [r.L for r in cells] == [0, 1, 2, 3, 300]
                for lower, higher in zip(cells, cells[1:]):
                    assert higher.initial_mse == pytest.approx(lower.final_mse, rel=1e-9)
                    assert higher.final_mse <= lower.final_mse

    def test_aggregates_match_rows(self, tmp_path):
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        report = run_sweep(sweep_config(data), timer=lambda: 0.0)
        for agg in report.aggregates:
            finals = [r.final_mse for r in report.rows if (r.k, r.L) == (agg.k, agg.L)]
            assert len(finals) == 2
            mean = sum(finals) / len(finals)
            assert agg.mean_final_mse == pytest.approx(mean, rel=1e-15)

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
        # the emitter still works on an all-failure report
        emit_csv(report, tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text().strip() == (
            "trial,k,L,iters,initial_mse,final_mse,pca_mse,wall_time_ms"
        )

    def test_offset_pool_fails_every_trial(self, tmp_path):
        # every cell is finite and the centred data is small, but a column's
        # sum of squares overflows, so no trial can build its graph
        images, labels = synth_digits(n_classes=2, per_class=8, size=6)
        data = tmp_path / "offset.csv"
        save_csv_matrix(np.vstack([labels, 1e155 + 1e140 * images]), data)
        report = run_sweep(sweep_config(data), timer=lambda: 0.0)
        assert report.rows == ()
        assert len(report.failures) == 2 * 2 * 2
        assert all(f.message.startswith("DataOverflow:") for f in report.failures)

    def test_failed_reseed_fails_only_the_warm_cells(self, tmp_path, monkeypatch):
        # every L=1 cell starts from extend_order's least squares; when it
        # fails, the L=0 rows stand and each L=1 cell is one failure
        data = tmp_path / "d.csv"
        write_labeled_csv(data)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", failing)
        report = run_sweep(sweep_config(data), timer=lambda: 0.0)
        assert [(r.trial, r.k, r.L) for r in report.rows] == [
            (trial, k, 0) for trial in (0, 1) for k in (2, 3)
        ]
        assert [(f.trial, f.k, f.L) for f in report.failures] == [
            (trial, k, 1) for trial in (0, 1) for k in (2, 3)
        ]
        prefix = "ConvergenceFailure: the reseeded coefficients' least squares failed"
        assert all(f.message.startswith(prefix) for f in report.failures)

    def test_gaussian_that_underflows_fails_every_trial(self, tmp_path):
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        gauss = SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=1e6, knn=3)
        report = run_sweep(sweep_config(data, similarity=gauss), timer=lambda: 0.0)
        assert report.rows == ()
        assert len(report.failures) == 2 * 2 * 2
        assert all(f.message.startswith("ValueError: alpha=1000000.0") for f in report.failures)

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
            # order 0 starts from the trial's PCA, the one its baseline uses
            assert isinstance(start, PcaModel if order == 0 else FilterModel)
            assert start.k == 2
            if order >= 1:
                assert start.order == order - 1

    def test_every_cell_stores_its_width_s_training_basis(self, tmp_path, monkeypatch):
        # the order-0 fit stores its PCA start's basis, and each warm L >= 1
        # cell carries it from the model below
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        models = []

        def recording_fit(ds, spectrum, k, order, **kwargs):
            result = fit(ds, spectrum, k, order, **kwargs)
            models.append((order, kwargs["start"], result.model))
            return result

        monkeypatch.setattr(harness, "fit", recording_fit)
        report = run_sweep(sweep_config(data, L_list=(0, 1, 2), k_list=(2, 3)), timer=lambda: 0.0)
        assert not report.failures and len(models) == 2 * 2 * 3
        for order, start, model in models:
            basis = start.basis if order == 0 else start.pca_basis
            assert model.pca_basis is basis
            assert basis.shape == (model.dim, model.k)

    def test_overflowing_order_fails_only_its_own_cells(self, tmp_path, monkeypatch):
        # graphs from build_graph have unit radius and never overflow, so the
        # fault is injected: every order-300 fit raises, the lower orders of
        # the same trial still train
        data = tmp_path / "d.csv"
        write_labeled_csv(data)

        def overflowing_fit(ds, spectrum, k, order, **kwargs):
            if order == 300:
                raise SpectralOverflow("|eigenvalue|^l exceeded 1e+150 at order 300")
            return fit(ds, spectrum, k, order, **kwargs)

        monkeypatch.setattr(harness, "fit", overflowing_fit)
        cfg = sweep_config(data, L_list=(0, 1, 300))
        report = run_sweep(cfg, timer=lambda: 0.0)
        assert [(r.trial, r.k, r.L) for r in report.rows] == [
            (trial, k, L) for trial in (0, 1) for k in (2, 3) for L in (0, 1)
        ]
        assert [(f.trial, f.k, f.L) for f in report.failures] == [
            (trial, k, 300) for trial in (0, 1) for k in (2, 3)
        ]
        assert all(f.message.startswith("SpectralOverflow:") for f in report.failures)

    def test_failed_pca_fails_each_cell_of_its_width(self, tmp_path, monkeypatch):
        # a width's PCA seeds its lowest order and is every order's baseline:
        # when it raises, each order of that width fails with its message in
        # every trial, and the other widths' rows are those of a clean run
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        cfg = sweep_config(data, k_list=(2, 3, 4), L_list=(0, 1, 2))
        clean = run_sweep(cfg, timer=lambda: 0.0)

        def failing_pca(ds, k):
            if k == 3:
                raise ConvergenceFailure("the SVD of the centered data failed")
            return pca_fit(ds, k)

        monkeypatch.setattr(harness, "pca_fit", failing_pca)
        report = run_sweep(cfg, timer=lambda: 0.0)
        assert report.rows == tuple(row for row in clean.rows if row.k != 3)
        assert report.failures == tuple(
            SweepFailure(trial, 3, L, "ConvergenceFailure: the SVD of the centered data failed")
            for trial in (0, 1)
            for L in (0, 1, 2)
        )

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        data = tmp_path / "d.csv"
        write_labeled_csv(data)
        cfg = sweep_config(data)
        a, b = tmp_path / "one.csv", tmp_path / "two.csv"
        emit_csv(run_sweep(cfg, timer=lambda: 0.0), a)
        emit_csv(run_sweep(cfg, timer=lambda: 0.0), b)
        assert a.read_bytes() == b.read_bytes()

    def test_idx_pool_sweeps_as_its_labelled_csv(self, tmp_path):
        # IDX is the config's default format; the same pixels written as a
        # labelled CSV must give the same report, byte for byte
        images, labels = synth_digits(n_classes=3, per_class=8, seed=4, size=8)
        pixels = np.round(images.T * 255.0).astype(np.uint8)
        images_path = tmp_path / "pool-images-idx3-ubyte"
        header = struct.pack(">IIII", 0x803, pixels.shape[0], 8, 8)
        images_path.write_bytes(header + pixels.tobytes())
        labels_path = tmp_path / "pool-labels-idx1-ubyte"
        header = struct.pack(">II", 0x801, labels.size)
        labels_path.write_bytes(header + labels.astype(np.uint8).tobytes())
        csv_path = tmp_path / "pool.csv"
        save_csv_matrix(np.vstack([labels, pixels.T / 255.0]), csv_path)
        idx_cfg = sweep_config(images_path, dataset_format=DataFormat.IDX, images_per_class=6)
        csv_cfg = sweep_config(csv_path, images_per_class=6)
        from_idx, from_csv = tmp_path / "idx.csv", tmp_path / "csv.csv"
        idx_report = run_sweep(idx_cfg, timer=lambda: 0.0)
        emit_csv(idx_report, from_idx)
        emit_csv(run_sweep(csv_cfg, timer=lambda: 0.0), from_csv)
        assert idx_report.rows and not idx_report.failures
        assert from_idx.read_bytes() == from_csv.read_bytes()


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

    def test_csv_bytes_of_a_built_report(self, tmp_path):
        report = SweepReport(
            rows=(
                SweepRow(trial=0, k=5, L=0, iters=1, initial_mse=0.1, final_mse=0.1,
                         pca_mse=0.1, wall_time_ms=0.0),
                SweepRow(trial=1, k=20, L=2, iters=500, initial_mse=1e-300, final_mse=2.5,
                         pca_mse=3.0000000000000004, wall_time_ms=12.75),
            ),
            failures=(),
        )
        out = tmp_path / "report.csv"
        emit_csv(report, out)
        assert out.read_bytes() == (
            b"trial,k,L,iters,initial_mse,final_mse,pca_mse,wall_time_ms\n"
            b"0,5,0,1,0.1,0.1,0.1,0.0\n"
            b"1,20,2,500,1e-300,2.5,3.0000000000000004,12.75\n"
        )


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
            {"normalize_spectrum": "yes"},  # the graph is always scaled; no such key
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

    def test_empty_k_list_rejected(self):
        with pytest.raises(ConfigError) as caught:
            subset_config(k_list=())
        assert str(caught.value) == "k_list must not be empty"

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
