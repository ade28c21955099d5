"""Experiment harness: data loading, subset sampling, sweeps, and reports.

A sweep draws per-trial subsets of a labeled image collection, builds a
similarity graph per subset, trains filter pairs over a grid of
(components, order) cells, and reports training MSE against the PCA
baseline. Trials run one after another and rows are sorted by
(trial, k, L). Each cell is one fit. The lowest order starts from the
PCA of (trial, k), the same PCA the baseline column reports; above it a
cell starts from the model of the highest lower order that fitted for the
same (trial, k), so the grid is monotone in L. Each fit builds the spectral
cache for its own order, so a trial builds one cache per cell: |k_list|
builds per order. Each cell is its own failure scope: a cell that cannot
be trained (its iterate turns non-finite, say) fails only itself, and a
width whose PCA fails fails each of its cells with the PCA's message. A
trial whose subset, centring or graph fails fails every cell of the
trial. A sweep's settings come as flat string keys, from a config file
or ``gfred sweep`` flags, parsed through one key table into
:class:`ExperimentConfig`.
"""
from __future__ import annotations

import math
import os
import struct
import time
from dataclasses import MISSING, astuple, dataclass, field, fields
from enum import Enum

import numpy as np

from . import csvtext
from .errors import (
    BadMagic,
    ConfigError,
    CountMismatch,
    CsvParseError,
    DimensionMismatch,
    InsufficientImages,
    TruncatedFile,
)
from .graph import Kernel, SimilarityConfig, Symmetrization, build_graph
from .optimizer import MAX_ITERS, check_stopping, fit
from .pca import pca_fit, pca_mse
from .rng import CounterRng
from .spectral import center


class DataFormat(Enum):
    """The data file formats :func:`load_matrix` reads; the values are the
    choices of ``--format`` and of the ``dataset_format`` config key."""

    IDX = "idx"
    CSV = "csv"


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one sweep; a config key left out keeps the default here.

    ``epsilon`` is each fit's stopping threshold: a positive finite number,
    or None for the fit's own default. ``epsilon`` and ``max_iters`` are
    checked by :func:`~gfred.optimizer.check_stopping`, as :func:`fit`'s are.
    """

    dataset_path: str
    classes_to_pick: int
    images_per_class: int
    dataset_format: DataFormat = DataFormat.IDX
    trials: int = 1
    seed: int = 0
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    k_list: tuple[int, ...] = (5,)
    L_list: tuple[int, ...] = (0, 1)
    epsilon: float | None = None
    max_iters: int = MAX_ITERS

    def __post_init__(self):
        if self.classes_to_pick < 1 or self.images_per_class < 1:
            raise ConfigError("classes_to_pick and images_per_class must be >= 1")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.k_list:
            raise ConfigError("k_list must not be empty")
        if any(k < 1 for k in self.k_list):
            raise ConfigError(f"every k must be >= 1, got {self.k_list}")
        if not self.L_list or any(L < 0 for L in self.L_list):
            raise ConfigError(f"every L must be >= 0, got {self.L_list}")
        check_stopping(self.epsilon, self.max_iters)


@dataclass(frozen=True)
class SweepRow:
    """One fitted cell; :func:`emit_csv` writes the fields as CSV columns, in this order."""

    trial: int
    k: int
    L: int
    iters: int
    initial_mse: float
    final_mse: float
    pca_mse: float
    wall_time_ms: float


@dataclass(frozen=True)
class SweepAggregate:
    """Means of one (k, L) cell over the trials that fitted it."""

    k: int
    L: int
    mean_final_mse: float
    mean_pca_mse: float


@dataclass(frozen=True)
class SweepFailure:
    trial: int
    k: int
    L: int
    message: str


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]        # sorted by (trial, k, L)
    failures: tuple[SweepFailure, ...]

    # its one reader is the benchmark's sweep check; it goes once that
    # check computes its means from the rows (ROADMAP items 1a and 15)
    @property
    def aggregates(self) -> tuple[SweepAggregate, ...]:
        """Per-(k, L) means of the rows, in (k, L) order, each summed in row order."""
        cells: dict[tuple[int, int], list[SweepRow]] = {}
        for row in self.rows:
            cells.setdefault((row.k, row.L), []).append(row)
        return tuple(
            SweepAggregate(
                k, L, sum(r.final_mse for r in group) / len(group),
                sum(r.pca_mse for r in group) / len(group),
            )
            for (k, L), group in sorted(cells.items())
        )


# --- loading ----------------------------------------------------------------


def _read_exact(blob: bytes, offset: int, count: int, path, what: str) -> bytes:
    if len(blob) < offset + count:
        raise TruncatedFile(f"{path}: ran out of bytes reading {what}")
    return blob[offset : offset + count]


def _read_idx(path, ndim: int, noun: str) -> np.ndarray:
    """The uint8 array of an IDX file of ``ndim`` dimensions, in its
    declared shape; ``noun`` names the records in a truncation message."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = _read_exact(blob, 0, 4 + 4 * ndim, path, "header")
    magic, *sizes = struct.unpack(f">{ndim + 1}I", header)
    if magic != 0x800 + ndim:
        raise BadMagic(f"{path}: magic {magic:#010x}, expected {0x800 + ndim:#010x}")
    body = _read_exact(blob, len(header), math.prod(sizes), path, f"{sizes[0]} {noun}")
    return np.frombuffer(body, dtype=np.uint8).reshape(sizes)


def load_idx(images_path, labels: bool = True):
    """Load an IDX image file, and with ``labels`` its paired labels file.

    The labels file is the images file with ``images`` replaced by
    ``labels`` and ``idx3`` by ``idx1`` in its name; with ``labels`` a
    name without either raises ConfigError, and without it no name is
    derived. Pixels are scaled to [0, 1]; images come back as a
    (rows*cols) x N float matrix with one flattened image per column, and
    with ``labels`` in a pair with the N integer labels.
    """
    if labels:
        head, tail = os.path.split(os.fspath(images_path))
        derived = tail.replace("images", "labels").replace("idx3", "idx1")
        if derived == tail:
            raise ConfigError(f"cannot derive a labels file name from {tail!r}")
        labels_path = os.path.join(head, derived)
    pixels = _read_idx(images_path, 3, "images")
    count, rows, cols = pixels.shape
    # explicit sizes: a file of 0 images is still a (rows*cols) x 0 matrix
    images = (pixels.astype(np.float64) / 255.0).reshape(count, rows * cols).T
    if not labels:
        return images
    found = _read_idx(labels_path, 1, "labels")
    if found.size != count:
        raise CountMismatch(f"{labels_path}: {found.size} labels for {count} images")
    return images, found.astype(np.int64)


def load_csv_matrix(path, first_row_labels: bool = False):
    """Rectangular numeric CSV with one data vector per column.

    With ``first_row_labels`` the first row holds integer class labels,
    each in [-2**63, 2**63), and the function returns ``(matrix, labels)``.
    Blank and whitespace-only lines are skipped. A cell holds what
    ``float()`` reads, optionally padded with spaces. Any unparsable or
    non-finite cell (NaN, infinity, or a value that overflows float64)
    raises CsvParseError naming its 1-based row and column, and a row whose
    cell count differs from the first row's raises one naming the row; with
    several bad rows or cells, the first in reading order is named. Bytes
    that are not UTF-8, or a file with no non-blank line, raise
    CsvParseError naming the file.

    One streaming pass, holding one line at a time, makes those file-wide
    checks and counts the rows. numpy's C text reader then parses the
    file's kept lines as it reads them, into a matrix allocated once for
    that row count, so neither the file's text nor a list of its lines is
    ever held; its float conversion rounds as ``float()`` does, and the
    matrix is checked for finiteness in one pass. Only a file that numpy
    refuses, or that holds a non-finite cell, is read again, row by row
    with ``float()`` per cell, which also reads spellings numpy does not
    (``1_000``, non-ASCII digits): that walk returns the matrix or raises
    at the first fault.
    """
    rows, numpy_reads = 0, True
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in _kept_lines(fh):
                rows += 1
                # numpy strips the separators \x1c-\x1f around a cell, which float() refuses
                numpy_reads = numpy_reads and not any(sep in line for sep in "\x1c\x1d\x1e\x1f")
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: not UTF-8 text: {exc}") from exc
    if not rows:
        raise CsvParseError(f"{path}: empty file")
    matrix = None
    if numpy_reads:
        # an open file, not the path: given a path numpy would gunzip a
        # ".gz" name or fetch a URL
        with open(path, "r", encoding="utf-8") as fh:
            try:  # comments=None: the default "#" would cut "1.5#x" down to 1.5
                matrix = np.loadtxt(
                    _kept_lines(fh), delimiter=",", comments=None, ndmin=2, max_rows=rows
                )
            except ValueError:
                pass
    if matrix is None or not np.isfinite(matrix).all():
        matrix = _walk_csv(path)
    if not first_row_labels:
        return matrix
    if matrix.shape[0] < 2:
        raise CsvParseError(f"{path}: need data rows under the label row")
    labels = matrix[0]
    if np.any(labels != np.round(labels)):
        raise CsvParseError(f"{path}: first row must hold integer labels")
    # 2**63 is a double; a label past it would wrap to -2**63 as an int64
    if np.any((labels < -(2.0**63)) | (labels >= 2.0**63)):
        raise CsvParseError(f"{path}: labels must lie in [-2**63, 2**63)")
    return matrix[1:], labels.astype(np.int64)


def _kept_lines(fh):
    """The lines of a text file that are not blank or whitespace-only;
    numpy skips an empty line but reads a whitespace-only one as a
    one-column row."""
    return (line for line in fh if not line.isspace())


def _walk_csv(path) -> np.ndarray:
    """The kept lines of a CSV file parsed with ``float()`` cell by cell,
    each row appended as a float64 array; raises CsvParseError at the
    first ragged row, unparsable cell or non-finite value in reading
    order."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for r, line in enumerate(_kept_lines(fh), start=1):
            cells = line.rstrip("\n").split(",")  # text mode reads "\r\n" and "\r" as "\n"
            width = len(rows[0]) if rows else len(cells)
            if len(cells) != width:
                raise CsvParseError(f"{path}: row {r} has {len(cells)} cells, expected {width}")
            row = np.empty(width)
            for c, cell in enumerate(cells, start=1):
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise CsvParseError(f"{path}: row {r}, column {c}: {cell!r}") from exc
                if not math.isfinite(value):
                    raise CsvParseError(f"{path}: row {r}, column {c}: {cell!r} is not finite")
                row[c - 1] = value
            rows.append(row)
    return np.array(rows)


def load_matrix(path, fmt: DataFormat | str, labels: bool = False):
    """A data file's matrix, one data vector per column, in the format
    ``fmt`` (a :class:`DataFormat` or its value); with ``labels`` the pair
    ``(matrix, labels)``.

    Labels come from a CSV file's first row (:func:`load_csv_matrix`) or
    from the IDX labels file beside the images (:func:`load_idx`). Without
    ``labels`` an IDX image file is read alone, and a CSV file's every row
    is data.
    """
    if DataFormat(fmt) is DataFormat.CSV:
        return load_csv_matrix(path, first_row_labels=labels)
    return load_idx(path, labels=labels)


def save_csv_matrix(matrix, path):
    """Write a 2-d matrix as CSV, one row per line, each float as ``repr``
    writes it: the shortest digits that read back to the same double.

    The bytes are those of ``",".join(map(repr, row.tolist()))`` per row,
    each line ended by a newline; a matrix of no rows is written as one
    newline. :func:`gfred.csvtext.write_rows` formats blocks of up to
    8,192 floats one at a time and writes their text in reading order, so
    the file's text never exists whole in memory.
    The input is converted before the file is opened, so one that is not a
    2-d float matrix leaves no file behind.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={matrix.ndim}")
    with open(path, "wb") as fh:
        csvtext.write_rows(matrix, fh)


# --- sampling ---------------------------------------------------------------


def sample_subset(images, labels, cfg: ExperimentConfig, trial_index: int) -> np.ndarray:
    """Deterministic per-trial subset: classes, then images within class.

    Stream (seed, trial_index) first draws ``classes_to_pick`` distinct
    labels from the sorted label alphabet, then ``images_per_class``
    distinct column indices per chosen class (class index lists sorted
    ascending). Columns appear in draw order, so the subset is a pure
    function of (seed, trial_index, data).
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    if images.ndim != 2 or labels.ndim != 1 or images.shape[1] != labels.shape[0]:
        raise DimensionMismatch(
            f"images {images.shape} and labels {labels.shape} do not pair up"
        )
    rng = CounterRng(cfg.seed, stream=trial_index)
    alphabet = np.unique(labels)
    if alphabet.size < cfg.classes_to_pick:
        raise InsufficientImages(
            f"need {cfg.classes_to_pick} classes, data has {alphabet.size}"
        )
    chosen = [alphabet[i] for i in rng.sample(alphabet.size, cfg.classes_to_pick)]
    columns = []
    for label in chosen:
        members = np.flatnonzero(labels == label)
        if members.size < cfg.images_per_class:
            raise InsufficientImages(
                f"class {label} has {members.size} images, need {cfg.images_per_class}"
            )
        columns.extend(members[i] for i in rng.sample(members.size, cfg.images_per_class))
    # one C-order copy: images[:, columns] is a new array too, but Fortran-ordered,
    # and a layout change moves every later sum by rounding
    return np.take(images, columns, axis=1)


# --- sweep ------------------------------------------------------------------


def run_sweep(cfg: ExperimentConfig, *, timer=None, force_serial: bool = False) -> SweepReport:
    """Run the full (trial, k, L) grid and collect a report.

    ``timer`` is the clock used for the wall-time column (default
    ``time.perf_counter``); injecting a constant makes the emitted CSV a
    pure function of the config. Trials run serially; ``force_serial`` is
    accepted and ignored, for callers written when trials could run on a
    thread pool.
    """
    clock = timer if timer is not None else time.perf_counter
    images, labels = load_matrix(cfg.dataset_path, cfg.dataset_format, labels=True)
    dim = images.shape[0]
    subset_n = cfg.classes_to_pick * cfg.images_per_class
    for k in cfg.k_list:
        if k > min(dim, subset_n):
            raise ConfigError(f"k={k} exceeds min(dim, n) = {min(dim, subset_n)}")
    if cfg.similarity.knn > subset_n - 1:
        raise ConfigError(
            f"knn={cfg.similarity.knn} needs at most {subset_n - 1} for subsets of {subset_n}"
        )
    rows: list[SweepRow] = []
    failures: list[SweepFailure] = []
    ks, orders = sorted(set(cfg.k_list)), sorted(set(cfg.L_list))
    for trial in range(cfg.trials):  # each trial yields its cells in (k, L) order
        try:
            X = sample_subset(images, labels, cfg, trial)
            ds = center(X)
            spectrum = build_graph(X, cfg.similarity)
        except Exception as exc:  # whole-trial failure marks every cell
            message = f"{type(exc).__name__}: {exc}"
            failures.extend(SweepFailure(trial, k, L, message) for k in ks for L in orders)
            continue
        for k in ks:
            previous = None  # the PCA cold seed, then the model of the last order that fit
            for L in orders:
                try:
                    # the width's first cell; a PCA that failed is rerun, and fails alike
                    if previous is None:
                        pca = pca_fit(ds, k)
                        baseline, previous = pca_mse(ds, pca), pca
                    started = clock()
                    # an order-L bank contains the order below with its higher
                    # taps at zero, so starting from it keeps the grid monotone in L
                    result = fit(
                        ds, spectrum, k, L,
                        epsilon=cfg.epsilon, max_iters=cfg.max_iters, start=previous,
                    )
                    elapsed_ms = (clock() - started) * 1e3
                    rows.append(
                        SweepRow(
                            trial=trial, k=k, L=L, iters=result.iterations,
                            initial_mse=float(result.objective_trace[0]),
                            final_mse=float(result.objective_trace[-1]),
                            pca_mse=baseline, wall_time_ms=float(elapsed_ms),
                        )
                    )
                    previous = result.model
                except Exception as exc:  # a failed cell must not sink the sweep
                    failures.append(SweepFailure(trial, k, L, f"{type(exc).__name__}: {exc}"))
    return SweepReport(rows=tuple(rows), failures=tuple(failures))


# --- report emitter ---------------------------------------------------------


def emit_csv(report: SweepReport, path):
    """Write the row table, one column per :class:`SweepRow` field in
    declaration order; bytes depend only on the report contents."""
    lines = [",".join(f.name for f in fields(SweepRow))]
    lines.extend(",".join(map(repr, astuple(row))) for row in report.rows)
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


# --- synthetic fixture ------------------------------------------------------


def synth_digits(n_classes: int = 10, per_class: int = 30, seed: int = 0, size: int = 28):
    """Deterministic digit-like grayscale images in [0, 1].

    Each class is a prototype of a few oriented Gaussian strokes; images
    are the prototype under small per-image stroke jitter plus pixel
    noise. Returns a (size*size) x N matrix (one flattened image per
    column) and the N class labels.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = np.linspace(0.0, 1.0, size)
    yy, xx = np.meshgrid(grid, grid, indexing="ij")

    def render(strokes):
        img = np.zeros((size, size))
        for cy, cx, s_major, s_minor, angle, amp in strokes:
            ca, sa = np.cos(angle), np.sin(angle)
            u = (xx - cx) * ca + (yy - cy) * sa
            v = -(xx - cx) * sa + (yy - cy) * ca
            img += amp * np.exp(-0.5 * ((u / s_major) ** 2 + (v / s_minor) ** 2))
        peak = img.max()
        return img / peak if peak > 0 else img

    columns, labels = [], []
    for cls in range(n_classes):
        strokes = [
            (
                rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75),
                rng.uniform(0.15, 0.35), rng.uniform(0.04, 0.10),
                rng.uniform(0.0, np.pi), rng.uniform(0.7, 1.0),
            )
            for _ in range(rng.integers(3, 6))
        ]
        for _ in range(per_class):
            jittered = [
                (
                    cy + rng.normal(0.0, 0.015), cx + rng.normal(0.0, 0.015),
                    s_major * rng.uniform(0.92, 1.08), s_minor * rng.uniform(0.92, 1.08),
                    angle + rng.normal(0.0, 0.05), amp * rng.uniform(0.9, 1.1),
                )
                for cy, cx, s_major, s_minor, angle, amp in strokes
            ]
            img = render(jittered) + rng.normal(0.0, 0.03, (size, size))
            columns.append(np.clip(img, 0.0, 1.0).ravel())
            labels.append(cls)
    return np.asarray(columns).T, np.asarray(labels, dtype=np.int64)


# --- config files -----------------------------------------------------------
# Config file keys and ``gfred sweep`` flags share one table; absent keys are
# not passed on, so every default lives on the dataclasses.

def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_choice(enum):
    return lambda word: enum(word.lower())


# config key -> (field, parser)
SIMILARITY_KEYS = {
    "kernel": ("kernel", _parse_choice(Kernel)),
    "alpha": ("alpha", float),
    "knn": ("knn", int),
    "symmetrization": ("symmetrization", _parse_choice(Symmetrization)),
}
_EXPERIMENT_KEYS = {
    "dataset_path": ("dataset_path", str),
    "dataset_format": ("dataset_format", _parse_choice(DataFormat)),
    "classes_to_pick": ("classes_to_pick", int),
    "images_per_class": ("images_per_class", int),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "k_list": ("k_list", _parse_int_list),
    "l_list": ("L_list", _parse_int_list),
    "epsilon": ("epsilon", float),
    "max_iters": ("max_iters", int),
}
CONFIG_KEYS = {**_EXPERIMENT_KEYS, **SIMILARITY_KEYS}


def parse_config_text(text: str) -> dict:
    """Flat key=value lines; blank lines and # comments are skipped.

    Keys are lower-cased with dashes read as underscores and must be in
    :data:`CONFIG_KEYS`; values stay strings for :func:`config_from_mapping`.
    """
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        mapping[key] = value.strip()
    return mapping


def _parse_keys(mapping: dict, table: dict) -> dict:
    """Field values for the keys of ``table`` that ``mapping`` holds."""
    parsed = {}
    for key, (name, parse) in table.items():
        if key in mapping:
            text = str(mapping[key]).strip()
            try:
                parsed[name] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{key}={text!r}: {exc}") from exc
    return parsed


def similarity_from_mapping(mapping: dict) -> SimilarityConfig:
    """SimilarityConfig from the :data:`SIMILARITY_KEYS` in ``mapping``; others are ignored."""
    parsed = _parse_keys(mapping, SIMILARITY_KEYS)
    try:
        return SimilarityConfig(**parsed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from flat string keys.

    ``mapping`` is a parsed config file, with the ``sweep`` flags that were
    set laid over it key by key. Every key must be in :data:`CONFIG_KEYS`;
    an absent key keeps the dataclass default, and a missing required key
    raises ConfigError.
    """
    unknown = set(mapping) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    for key, (name, _) in _EXPERIMENT_KEYS.items():
        if key not in mapping and defaults[name] is MISSING:
            raise ConfigError(f"missing required config key {key!r}")
    return ExperimentConfig(
        similarity=similarity_from_mapping(mapping), **_parse_keys(mapping, _EXPERIMENT_KEYS)
    )
