"""The three benchmark workloads: inputs, one op, and the checks on its output.

Inputs come from ``gfred.synth_digits`` at the run's seed and are written to
files; the program sees only those files. Each op is timed on its own, and
its outputs are checked after the clock stops. A workload's ``check``
returns ``(invocations, failed invocations, problems)`` for the op it is
given.

- ``sweep``: the acceptance protocol for one trial, through
  ``harness.run_sweep(force_serial=True)``: a 10x30 digit CSV pool, 4
  classes x 10 images (n=40, D=784), cosine kNN with knn=12, k in {5, 10,
  20}, L in {0, 1}. Op i runs on pool ``i % SWEEP_POOLS`` and samples its
  subset with ``seed=i``. L=2 is left out: at n=40 its descent stalls after
  1 to 80 iterations in about one trial in four instead of running to the
  500-iteration cap, so a run's time depended on how many of its trials
  stalled (quartile spread near 20% across seeds, against 9% without it).
  L=2 is measured on ``fit-large``.
- ``fit-large``: ``gfred fit`` on a 10x120 uint8 IDX pool (n=1200, D=784),
  k=20, L=2, ``--max-iters 20``.
- ``serve``: one round of ``gfred graph``, ``encode`` (training pool),
  ``encode`` (pool plus noise), ``decode`` and ``eval`` on the fit-large
  model and pool.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from gfred import cli, codec, harness
from gfred.graph import Kernel, SimilarityConfig, build_graph

SWEEP_POOL = (10, 30)
SWEEP_POOLS = 4
POOL_SEED_STRIDE = 1000  # pool j of run seed s is synth_digits(seed=s * 1000 + j)
SWEEP_KS = (5, 10, 20)
SWEEP_ORDERS = (0, 1)
LARGE_POOL = (10, 120)
LARGE_K, LARGE_L, LARGE_ITERS = 20, 2, 20
NOISE_STD = 0.05  # 5% of the [0, 1] pixel range
GAIN_GATE = 0.01  # the acceptance protocol: some k gains >= 1% over PCA at the top order


@dataclass
class Invocation:
    """One call into the program: what was run, its exit code and output."""

    kind: str
    seconds: float
    rc: int = 0
    stdout: str = ""
    stderr: str = ""
    report: object = None
    out_path: str | None = None


@dataclass
class OpResult:
    seconds: float
    calls: list[Invocation]
    quality: dict = field(default_factory=dict)
    ref: float = 0.0  # reference-kernel seconds around the op, set by the runner


def run_cli(kind: str, argv: list[str], out_path: str | None = None) -> Invocation:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - started
    return Invocation(kind, seconds, rc, out.getvalue(), err.getvalue(), out_path=out_path)


def parse_fields(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def write_idx(images: np.ndarray, labels: np.ndarray, images_path: str):
    """Write uint8 images (one per column, 28x28) and labels as IDX files."""
    count = images.shape[1]
    side = int(round(images.shape[0] ** 0.5))
    labels_path = images_path.replace("images", "labels").replace("idx3", "idx1")
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, count, side, side))
        fh.write(np.ascontiguousarray(images.T, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, count))
        fh.write(labels.astype(np.uint8).tobytes())


def read_idx(images_path: str) -> np.ndarray:
    """Independent IDX reader for the checks: pixels scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        blob = fh.read()
    _, count, rows, cols = struct.unpack(">IIII", blob[:16])
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=16, count=count * rows * cols)
    return pixels.reshape(count, rows * cols).T.astype(np.float64) / 255.0


def quantize(images: np.ndarray) -> np.ndarray:
    return np.round(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def same_array(got: np.ndarray, expected: np.ndarray) -> bool:
    return got.shape == expected.shape and np.array_equal(got, expected)


def relative_error(got: np.ndarray, expected: np.ndarray) -> float | None:
    """Relative Frobenius error; None when the shapes differ."""
    if got.shape != expected.shape:
        return None
    return float(np.linalg.norm(got - expected)) / float(np.linalg.norm(expected))


class CsvCheck:
    """Compares a CSV output with an expected array, once per distinct content.

    ``verdict(got, expected)`` must be a module-level function, so that the
    check can be pickled from the set-up process to the measuring one.
    """

    def __init__(self, verdict, expected: np.ndarray):
        self._verdict = verdict
        self._expected = expected
        self._seen: dict[bytes, object] = {}

    def __call__(self, path: str):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).digest()
        if digest not in self._seen:
            got = np.loadtxt(path, delimiter=",", ndmin=2)
            self._seen[digest] = self._verdict(got, self._expected)
        return self._seen[digest]


class Sweep:
    name = "sweep"
    min_ops = 6  # trials per run at least, and the ones whose quality it reports
    setup_repeats = 5
    setup_kernel = "broad"  # set-up is synth_digits and the CSV writer

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.pools = [os.path.join(work, f"pool{j}.csv") for j in range(SWEEP_POOLS)]

    def setup(self):
        for j, path in enumerate(self.pools):
            images, labels = harness.synth_digits(*SWEEP_POOL, seed=self.seed * POOL_SEED_STRIDE + j)
            harness.save_csv_matrix(np.vstack([labels[None, :], images]), path)

    def prepare(self):
        pass

    def op(self, index: int) -> OpResult:
        cfg = harness.ExperimentConfig(
            dataset_path=self.pools[index % SWEEP_POOLS],
            dataset_format=harness.DataFormat.CSV,
            classes_to_pick=4,
            images_per_class=10,
            trials=1,
            seed=index,
            similarity=SimilarityConfig(kernel=Kernel.COSINE, knn=12),
            k_list=SWEEP_KS,
            L_list=SWEEP_ORDERS,
        )
        started = time.perf_counter()
        report = harness.run_sweep(cfg, force_serial=True)
        seconds = time.perf_counter() - started
        return OpResult(seconds, [Invocation("sweep", seconds, report=report)])

    def check(self, result: OpResult) -> tuple[int, int, list[str]]:
        report = result.calls[0].report
        failures = [f"sweep cell {f.trial},{f.k},{f.L}: {f.message}" for f in report.failures]
        means = {(a.k, a.L): a.mean_final_mse for a in report.aggregates}
        baselines = {a.k: a.mean_pca_mse for a in report.aggregates if a.L == 0}
        gains = []
        for k in SWEEP_KS:
            if k not in baselines or any((k, L) not in means for L in SWEEP_ORDERS):
                failures.append(f"sweep: k={k} is missing from the report")
                continue
            for L in SWEEP_ORDERS[1:]:
                if not means[(k, L)] <= baselines[k] * (1.0 + 1e-12):
                    failures.append(f"sweep: k={k} L={L} mean MSE is above the PCA mean")
            gains.append(1.0 - means[(k, SWEEP_ORDERS[-1])] / baselines[k])
        if not gains or max(gains) < GAIN_GATE:
            failures.append(f"sweep: no k gains {GAIN_GATE:.0%} over PCA: {gains}")
        ratios = [r.final_mse / r.pca_mse for r in report.rows if r.L >= 1]
        if ratios:
            result.quality["mse_ratios"] = ratios
        return 1, int(bool(failures)), failures


class FitLarge:
    name = "fit-large"
    min_ops = 1
    setup_repeats = 9
    setup_kernel = "broad"  # set-up is synth_digits

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.images = os.path.join(work, "pool-images-idx3-ubyte")
        self.model = os.path.join(work, "model.gfm")

    def setup(self):
        images, labels = harness.synth_digits(*LARGE_POOL, seed=self.seed)
        write_idx(quantize(images), labels, self.images)

    def prepare(self):
        pass

    def fit_argv(self) -> list[str]:
        return [
            "fit", "--data", self.images, "--format", "idx",
            "--k", str(LARGE_K), "--l", str(LARGE_L),
            "--model-out", self.model, "--max-iters", str(LARGE_ITERS),
        ]

    def op(self, index: int) -> OpResult:
        call = run_cli("fit", self.fit_argv(), self.model)
        return OpResult(call.seconds, [call])

    def check(self, result: OpResult) -> tuple[int, int, list[str]]:
        call = result.calls[0]
        if call.rc != 0:
            return 1, 1, [f"fit exited {call.rc}: {call.stderr.strip()}"]
        fields = parse_fields(call.stdout)
        final, baseline = float(fields["final_mse"]), float(fields["pca_mse"])
        failures = []
        if not final <= baseline:
            failures.append(f"fit: final MSE {final!r} is above the PCA MSE {baseline!r}")
        bundle = codec.load_model(self.model)
        again = os.path.join(self.work, "reload.gfm")
        codec.save_model(bundle.model, bundle.spectrum, bundle.reduced, again)
        with open(self.model, "rb") as a, open(again, "rb") as b:
            if a.read() != b.read():
                failures.append("fit: the model file does not reload bit-exact")
        result.quality["mse_ratios"] = [final / baseline]
        return 1, int(bool(failures)), failures


class Serve:
    name = "serve"
    min_ops = 1
    setup_repeats = 3  # each set-up includes a 3-4 s fit
    setup_kernel = "narrow"  # set-up is mostly that fit, BLAS-bound like fit-large's op

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.fitter = FitLarge(seed, work)
        self.noisy = os.path.join(work, "noisy-images-idx3-ubyte")
        self.out = {name: os.path.join(work, f"{name}.csv") for name in ("encode", "oos", "decode")}

    def setup(self):
        self.fitter.setup()
        call = run_cli("fit", self.fitter.fit_argv())
        if call.rc != 0:
            raise RuntimeError(f"serve set-up: fit exited {call.rc}: {call.stderr.strip()}")
        self.fit_fields = parse_fields(call.stdout)
        images, labels = harness.synth_digits(*LARGE_POOL, seed=self.seed)
        rng = np.random.default_rng([self.seed, 1])
        pool = quantize(images) / 255.0
        write_idx(quantize(pool + rng.normal(0.0, NOISE_STD, pool.shape)), labels, self.noisy)

    def prepare(self):
        """Reference outputs, computed once in the set-up process."""
        bundle = codec.load_model(self.fitter.model)
        model, spectrum = bundle.model, bundle.spectrum
        pool = read_idx(self.fitter.images)
        self.n = pool.shape[1]
        self.edges = int(np.count_nonzero(build_graph(pool, SimilarityConfig()).adjacency)) // 2
        self.eig_range = f"[{float(spectrum.eigvals[-1])!r}, {float(spectrum.eigvals[0])!r}]"
        self.final_mse = float(self.fit_fields["final_mse"])
        self.pca_mse = float(self.fit_fields["pca_mse"])
        self.check_encode = CsvCheck(same_array, bundle.reduced.values)
        self.check_decode = CsvCheck(same_array, codec.reconstruct(model, bundle.reduced, spectrum))

        # The trained reducing filter applied to new data, centred with the
        # model's mean: coeffs @ ((Xt_train' Xt_new) o V), V_ij = sum_l (lam_i lam_j)^l.
        eigvecs, lam = spectrum.eigvecs, spectrum.eigvals
        xt_train = (pool - model.mean[:, None]) @ eigvecs
        xt_new = (read_idx(self.noisy) - model.mean[:, None]) @ eigvecs
        pows = lam[:, None] ** np.arange(model.order + 1)[None, :]
        oracle = (model.coeffs @ ((xt_train.T @ xt_new) * (pows @ pows.T))) @ eigvecs.T
        self.check_oos = CsvCheck(relative_error, oracle)

    def op(self, index: int) -> OpResult:
        pool, model = self.fitter.images, self.fitter.model
        calls = [
            run_cli("graph", ["graph", "--data", pool, "--format", "idx"]),
            run_cli("encode", ["encode", "--model", model, "--data", pool, "--format", "idx",
                               "--out", self.out["encode"]], self.out["encode"]),
            run_cli("encode_oos", ["encode", "--model", model, "--data", self.noisy,
                                   "--format", "idx", "--out", self.out["oos"]], self.out["oos"]),
            run_cli("decode", ["decode", "--model", model, "--out", self.out["decode"]],
                    self.out["decode"]),
            run_cli("eval", ["eval", "--model", model, "--data", pool, "--format", "idx"]),
        ]
        return OpResult(sum(c.seconds for c in calls), calls)

    def check(self, result: OpResult) -> tuple[int, int, list[str]]:
        failed = []
        for call in result.calls:
            problem = self._problem(call, result.quality)
            if problem:
                failed.append(f"{call.kind}: {problem}")
        return len(result.calls), len(failed), failed

    def _problem(self, call: Invocation, quality: dict) -> str | None:
        if call.rc != 0:
            return f"exited {call.rc}: {call.stderr.strip()}"
        fields = parse_fields(call.stdout)
        if call.kind == "graph":
            if fields.get("nodes") != str(self.n) or fields.get("edges") != str(self.edges):
                return f"printed {fields.get('nodes')} nodes / {fields.get('edges')} edges"
            if fields.get("eigenvalue range") != self.eig_range:
                return f"eigenvalue range {fields.get('eigenvalue range')} != {self.eig_range}"
        elif call.kind == "encode":
            if not self.check_encode(call.out_path):
                return "output differs from the model's stored reduced data"
        elif call.kind == "encode_oos":
            err = self.check_oos(call.out_path)
            if err is None:
                return "output has the wrong shape"
            quality["encode_oos_rel_err"] = err
        elif call.kind == "decode":
            if not self.check_decode(call.out_path):
                return "output differs from codec.reconstruct"
        elif call.kind == "eval":
            mse, baseline = float(fields["reconstruction_mse"]), float(fields["pca_mse"])
            if not rel_close(mse, self.final_mse, 1e-9):
                return f"reconstruction_mse {mse!r} != the fit's final_mse {self.final_mse!r}"
            if not rel_close(baseline, self.pca_mse, 1e-12):
                return f"pca_mse {baseline!r} != the fit's pca_mse {self.pca_mse!r}"
            quality["mse_ratios"] = [mse / baseline]
        return None


WORKLOADS = {w.name: w for w in (Sweep, FitLarge, Serve)}
