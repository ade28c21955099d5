"""Experiment harness: data loading, subset sampling, sweeps, and reports.

A sweep draws per-trial subsets of a labeled image collection, builds a
similarity graph per subset, trains filter pairs over a grid of
(components, order) cells, and reports training MSE against the PCA
baseline. Trials run one after another and rows are sorted by
(trial, k, L). Each cell is one fit; above the lowest order it starts
from the model of the highest lower order that fitted for the same
(trial, k), so the grid is monotone in L. Each fit builds the spectral
cache for its own order, so an order that cannot be trained (its
eigenvalue powers overflow, say) fails only its own cells, and a trial
builds one cache per cell: |k_list| builds per order. A sweep's settings
come as flat string keys, from a config file or ``gfred sweep`` flags,
parsed through one key table into :class:`ExperimentConfig`.
"""
from __future__ import annotations

import math
import os
import struct
import time
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum

import numpy as np

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
from .optimizer import fit
from .pca import pca_fit, pca_mse
from .rng import CounterRng
from .spectral import center

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


class DataFormat(Enum):
    IDX = "idx"
    CSV = "csv"


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one sweep; a config key left out keeps the default here.

    ``epsilon`` is each fit's stopping threshold: a positive finite number,
    or None for the fit's own default.
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
    max_iters: int = 500

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
        if self.max_iters < 0:
            raise ConfigError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.epsilon is not None and not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be a finite number > 0, got {self.epsilon}")


@dataclass(frozen=True)
class SweepRow:
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
    k: int
    L: int
    trials: int
    mean_final_mse: float
    std_final_mse: float  # population standard deviation over trials
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
    aggregates: tuple[SweepAggregate, ...]
    failures: tuple[SweepFailure, ...]


# --- loading ----------------------------------------------------------------


def _read_exact(blob: bytes, offset: int, count: int, path, what: str) -> bytes:
    if len(blob) < offset + count:
        raise TruncatedFile(f"{path}: ran out of bytes reading {what}")
    return blob[offset : offset + count]


def load_idx(images_path, labels_path=None):
    """Load a paired IDX image/label file set.

    ``labels_path`` defaults to the images path with ``images`` replaced by
    ``labels`` and ``idx3`` by ``idx1`` in the file name. Pixels are scaled
    to [0, 1]; images come back as a (rows*cols) x N float matrix with one
    flattened image per column, labels as N integers.
    """
    images_path = os.fspath(images_path)
    if labels_path is None:
        head, tail = os.path.split(images_path)
        derived = tail.replace("images", "labels").replace("idx3", "idx1")
        if derived == tail:
            raise ConfigError(
                f"cannot derive a labels file name from {tail!r}; pass labels_path"
            )
        labels_path = os.path.join(head, derived)

    with open(images_path, "rb") as fh:
        blob = fh.read()
    magic, count, rows, cols = struct.unpack(">IIII", _read_exact(blob, 0, 16, images_path, "header"))
    if magic != _IDX_IMAGES_MAGIC:
        raise BadMagic(f"{images_path}: magic {magic:#010x}, expected {_IDX_IMAGES_MAGIC:#010x}")
    pixels = _read_exact(blob, 16, count * rows * cols, images_path, f"{count} images")
    images = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
    images = images.reshape(count, rows * cols).T  # one flattened image per column

    with open(labels_path, "rb") as fh:
        blob = fh.read()
    magic, label_count = struct.unpack(">II", _read_exact(blob, 0, 8, labels_path, "header"))
    if magic != _IDX_LABELS_MAGIC:
        raise BadMagic(f"{labels_path}: magic {magic:#010x}, expected {_IDX_LABELS_MAGIC:#010x}")
    if label_count != count:
        raise CountMismatch(f"{labels_path}: {label_count} labels for {count} images")
    labels = np.frombuffer(_read_exact(blob, 8, count, labels_path, f"{count} labels"), dtype=np.uint8)
    return images, labels.astype(np.int64)


def load_csv_matrix(path, first_row_labels: bool = False):
    """Rectangular numeric CSV with one data vector per column.

    With ``first_row_labels`` the first row holds integer class labels and
    the function returns ``(matrix, labels)``. Any unparsable or non-finite
    cell (NaN, infinity, or a value that overflows float64) raises
    CsvParseError naming its 1-based row and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").rstrip("\r") for line in fh]
    lines = [line for line in lines if line.strip() != ""]
    if not lines:
        raise CsvParseError(f"{path}: empty file")
    parsed = []
    width = None
    for r, line in enumerate(lines, start=1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise CsvParseError(f"{path}: row {r} has {len(cells)} cells, expected {width}")
        row = []
        for c, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError as exc:
                raise CsvParseError(f"{path}: row {r}, column {c}: {cell!r}") from exc
            if not math.isfinite(value):
                raise CsvParseError(f"{path}: row {r}, column {c}: {cell!r} is not finite")
            row.append(value)
        parsed.append(row)
    matrix = np.asarray(parsed, dtype=np.float64)
    if not first_row_labels:
        return matrix
    if matrix.shape[0] < 2:
        raise CsvParseError(f"{path}: need data rows under the label row")
    labels = matrix[0]
    if np.any(labels != np.round(labels)):
        raise CsvParseError(f"{path}: first row must hold integer labels")
    return matrix[1:], labels.astype(np.int64)


def save_csv_matrix(matrix, path):
    """Write a matrix as CSV with shortest round-trip float formatting."""
    matrix = np.asarray(matrix, dtype=np.float64)
    # tolist() yields Python floats: numpy scalar repr would write "np.float64(...)";
    # one row at a time, so the whole matrix never exists as Python floats
    body = "\n".join(",".join(map(repr, row.tolist())) for row in matrix)
    with open(path, "wb") as fh:
        fh.write((body + "\n").encode("utf-8"))


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
    return images[:, columns].copy()


# --- sweep ------------------------------------------------------------------


def _load_dataset(cfg: ExperimentConfig):
    if cfg.dataset_format is DataFormat.IDX:
        return load_idx(cfg.dataset_path)
    return load_csv_matrix(cfg.dataset_path, first_row_labels=True)


def _run_trial(cfg: ExperimentConfig, images, labels, trial: int, clock):
    rows: list[SweepRow] = []
    failures: list[SweepFailure] = []
    orders = sorted(set(cfg.L_list))
    ks = sorted(set(cfg.k_list))
    try:
        X = sample_subset(images, labels, cfg, trial)
        ds = center(X)
        spectrum = build_graph(X, cfg.similarity)
    except Exception as exc:  # whole-trial failure marks every cell
        message = f"{type(exc).__name__}: {exc}"
        failures.extend(
            SweepFailure(trial=trial, k=k, L=L, message=message) for k in ks for L in orders
        )
        return rows, failures
    for k in ks:
        try:
            baseline = pca_mse(ds, pca_fit(ds, k))
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
            failures.extend(
                SweepFailure(trial=trial, k=k, L=L, message=message) for L in orders
            )
            continue
        previous = None  # model of the last order that fit
        for L in orders:
            started = clock()
            try:
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
                failures.append(
                    SweepFailure(trial=trial, k=k, L=L, message=f"{type(exc).__name__}: {exc}")
                )
    return rows, failures


def run_sweep(cfg: ExperimentConfig, *, timer=None, force_serial: bool = False) -> SweepReport:
    """Run the full (trial, k, L) grid and collect a report.

    ``timer`` is the clock used for the wall-time column (default
    ``time.perf_counter``); injecting a constant makes the emitted CSV a
    pure function of the config. Trials run serially; ``force_serial`` is
    accepted and ignored, for callers written when trials could run on a
    thread pool.
    """
    clock = timer if timer is not None else time.perf_counter
    images, labels = _load_dataset(cfg)
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
    for trial in range(cfg.trials):  # each trial yields its cells in (k, L) order
        trial_rows, trial_failures = _run_trial(cfg, images, labels, trial, clock)
        rows.extend(trial_rows)
        failures.extend(trial_failures)
    aggregates = []
    for (k, L) in sorted({(r.k, r.L) for r in rows}):
        finals = [r.final_mse for r in rows if r.k == k and r.L == L]
        baselines = [r.pca_mse for r in rows if r.k == k and r.L == L]
        mean = sum(finals) / len(finals)
        var = sum((v - mean) ** 2 for v in finals) / len(finals)
        aggregates.append(
            SweepAggregate(
                k=k, L=L, trials=len(finals),
                mean_final_mse=mean, std_final_mse=math.sqrt(var),
                mean_pca_mse=sum(baselines) / len(baselines),
            )
        )
    return SweepReport(rows=tuple(rows), aggregates=tuple(aggregates), failures=tuple(failures))


# --- report emitters --------------------------------------------------------

_CSV_HEADER = "trial,k,L,iters,initial_mse,final_mse,pca_mse,wall_time_ms"


def emit_csv(report: SweepReport, path):
    """Write the row table; bytes depend only on the report contents."""
    lines = [_CSV_HEADER]
    for r in report.rows:
        lines.append(
            f"{r.trial},{r.k},{r.L},{r.iters},"
            f"{r.initial_mse!r},{r.final_mse!r},{r.pca_mse!r},{r.wall_time_ms!r}"
        )
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


_SVG_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def emit_svg(report: SweepReport, path):
    """Line chart of mean final MSE against k, one polyline per order.

    Hand-assembled SVG with fixed float formatting, so the bytes are a pure
    function of the report. An empty report yields axes only.
    """
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 64.0, 150.0, 28.0, 52.0
    plot_w, plot_h = width - ml - mr, height - mt - mb

    ks = sorted({a.k for a in report.aggregates})
    orders = sorted({a.L for a in report.aggregates})
    means = {(a.k, a.L): a.mean_final_mse for a in report.aggregates}

    k_lo, k_hi = (ks[0], ks[-1]) if ks else (0, 1)
    if k_lo == k_hi:
        k_lo, k_hi = k_lo - 1, k_hi + 1
    y_hi = max((a.mean_final_mse for a in report.aggregates), default=1.0)
    y_hi = y_hi * 1.06 if y_hi > 0 else 1.0

    def px(k):
        return ml + (k - k_lo) / (k_hi - k_lo) * plot_w

    def py(v):
        return mt + (1.0 - v / y_hi) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        f'<line x1="{ml:.2f}" y1="{mt + plot_h:.2f}" x2="{ml + plot_w:.2f}" '
        f'y2="{mt + plot_h:.2f}" stroke="#333333" stroke-width="1"/>',
        f'<line x1="{ml:.2f}" y1="{mt:.2f}" x2="{ml:.2f}" y2="{mt + plot_h:.2f}" '
        f'stroke="#333333" stroke-width="1"/>',
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 14:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">reduced dimension k</text>',
        f'<text x="16" y="{mt + plot_h / 2:.2f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {mt + plot_h / 2:.2f})">mean final MSE</text>',
    ]
    for k in ks:
        parts.append(
            f'<line x1="{px(k):.2f}" y1="{mt + plot_h:.2f}" x2="{px(k):.2f}" '
            f'y2="{mt + plot_h + 4:.2f}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px(k):.2f}" y="{mt + plot_h + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{k}</text>'
        )
    for tick in range(5):
        value = y_hi * tick / 4
        parts.append(
            f'<line x1="{ml - 4:.2f}" y1="{py(value):.2f}" x2="{ml:.2f}" y2="{py(value):.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 8:.2f}" y="{py(value) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{value:.4g}</text>'
        )
    for idx, L in enumerate(orders):
        color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
        points = " ".join(
            f"{px(k):.2f},{py(means[(k, L)]):.2f}" for k in ks if (k, L) in means
        )
        if points:
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        for k in ks:
            if (k, L) in means:
                parts.append(
                    f'<circle cx="{px(k):.2f}" cy="{py(means[(k, L)]):.2f}" r="3" '
                    f'fill="{color}"/>'
                )
        ly = mt + 14 + 18 * idx
        parts.append(
            f'<line x1="{ml + plot_w + 12:.2f}" y1="{ly:.2f}" x2="{ml + plot_w + 34:.2f}" '
            f'y2="{ly:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + plot_w + 40:.2f}" y="{ly + 4:.2f}" font-family="sans-serif" '
            f'font-size="12">L={L}</text>'
        )
    parts.append("</svg>")
    with open(path, "wb") as fh:
        fh.write(("\n".join(parts) + "\n").encode("utf-8"))


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

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(word: str) -> bool:
    if word.lower() not in _BOOL_WORDS:
        raise ValueError(f"expected one of {', '.join(_BOOL_WORDS)}")
    return _BOOL_WORDS[word.lower()]


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
    "normalize_spectrum": ("normalize_spectrum", _parse_bool),
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
