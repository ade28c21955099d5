"""Tables behind numbers that README.md and ROADMAP.md cite, regenerated
from committed files.

Usage: python tools/probes.py {trajectory,csv-load,csv-save,cli-peaks} [--smoke]

``trajectory`` prints, as a markdown table, the parent -> change medians
of the gated end-to-end metrics (``end_to_end`` in ``BENCHMARK.json``) for
every workload of every committed ``BENCH_<n>.json``, in order of n. Each
of those files holds its medians under
``workloads -> <workload> -> metrics -> <metric> -> parent/change -> median``.

``csv-load`` writes a labelled ``synth_digits`` pool as a 785 x N CSV
(the label row over 784 pixel rows) in a temporary directory, for
N = 300 (a sweep pool) and N = 10,000, and loads each with
``harness.load_csv_matrix`` in a fresh interpreter, three times. It
prints the median seconds, the median peak RSS (Linux ``VmHWM``) above
the interpreter after ``import gfred`` in MB and as a multiple of the
parsed 785 x N matrix, and the tracemalloc peak of a second load as such
a multiple, under a line naming the commit, ``OPENBLAS_NUM_THREADS`` and
the numpy version. The temporary directory and every file in it are
removed. With ``--smoke`` it loads N = 300 once.

``csv-save`` writes, with ``harness.save_csv_matrix`` in a fresh
interpreter, three times each: a 784 x 1200 matrix shaped like ``gfred
decode``'s output (a ``synth_digits`` pool of 10 x 120 images plus
Gaussian noise of standard deviation 0.05), and the labelled 785 x 300
``synth_digits`` pool. It checks that each file's bytes equal a per-row
join of ``repr`` that the probe builds itself, and prints the median
seconds, the median peak RSS (``VmHWM``) above the interpreter after
``import gfred`` and the loaded matrix, in MB and as a multiple of the
matrix, and the tracemalloc peak of a second write as such a multiple,
under the same line as ``csv-load``. With ``--smoke`` it writes the pool
once.

``cli-peaks`` writes a ``synth_digits`` pool of the bench's fit-large
shape (10 x 120 images at 28 x 28, seed 1, so n = 1200 and D = 784) as
uint8 IDX files in a temporary directory and fits a model on it in
process (k = 20, L = 2, 20 iterations). It then runs ``gfred graph``,
``encode``, ``decode`` and ``eval`` on that pool and model, each three
times in a fresh interpreter, and prints each command's median wall
time around ``cli.main`` in seconds and its median peak RSS (``VmHWM``)
above the interpreter after ``import gfred.cli``, in MB and in n x n
float64 arrays, under the same line as ``csv-load``. The
temporary directory and every file in it are removed. With ``--smoke``
the pool is 4 x 10 images at 12 x 12 (k = 3, L = 1, 5 iterations) and
each command runs once.
"""
import argparse
import contextlib
import io
import json
import os
import re
import statistics
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gfred import cli, harness

# run in a fresh interpreter: the load's wall time and its peak RSS above
# the process after `import gfred`, then a second load's tracemalloc peak.
# The peak is VmHWM, which starts afresh at exec; ru_maxrss would start at
# the spawning process's peak. A load that fits in memory the import
# already touched reads 0 above import; the traced peak counts every buffer
# the load allocates, reused or not
LOAD_CHILD = """
import json, sys, time, tracemalloc
from gfred import harness
def peak_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))
before = peak_rss()
start = time.perf_counter()
matrix, labels = harness.load_csv_matrix(sys.argv[1], first_row_labels=True)
seconds = time.perf_counter() - start
above_import = peak_rss() - before
parsed = matrix.nbytes + labels.nbytes
del matrix, labels
tracemalloc.start()
harness.load_csv_matrix(sys.argv[1], first_row_labels=True)
traced = tracemalloc.get_traced_memory()[1]
print(json.dumps({"seconds": seconds, "above_import": above_import, "traced": traced,
                  "parsed": parsed}))
"""


# run in a fresh interpreter: one write's wall time and its peak RSS above
# the process after `import gfred` and the loaded matrix, then a second
# write's tracemalloc peak
SAVE_CHILD = """
import json, sys, time, tracemalloc
import numpy as np
from gfred import harness
def peak_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))
matrix = np.load(sys.argv[1])
before = peak_rss()
start = time.perf_counter()
harness.save_csv_matrix(matrix, sys.argv[2])
seconds = time.perf_counter() - start
above = peak_rss() - before
tracemalloc.start()
harness.save_csv_matrix(matrix, sys.argv[2])
traced = tracemalloc.get_traced_memory()[1]
print(json.dumps({"seconds": seconds, "above": above, "traced": traced, "bytes": matrix.nbytes}))
"""


# run in a fresh interpreter: one command's wall time and its peak RSS
# above the process after `import gfred.cli`, with what the command prints
# kept off stdout
CLI_CHILD = """
import contextlib, io, json, sys, time
from gfred import cli
def peak_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))
before = peak_rss()
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    code = cli.main(sys.argv[1:])
    seconds = time.perf_counter() - start
print(json.dumps({"code": code, "seconds": seconds, "above_import": peak_rss() - before}))
"""


def bench_files() -> list:
    """Every ``BENCH_<n>.json`` at the repository root, in order of n."""
    paths = [p for p in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", p.name)]
    return sorted(paths, key=lambda path: int(path.stem.removeprefix("BENCH_")))


def trajectory(smoke: bool = False) -> str:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [metric["name"] for metric in json.load(fh)["end_to_end"]]
    lines = [
        "| file | workload | " + " | ".join(names) + " |",
        "|---|---|" + "---|" * len(names),
    ]
    for path in bench_files():
        with open(path, encoding="utf-8") as fh:
            workloads = json.load(fh)["workloads"]
        for workload, entry in workloads.items():
            cells = [
                f"{entry['metrics'][name]['parent']['median']:.5g} → "
                f"{entry['metrics'][name]['change']['median']:.5g}"
                for name in names
            ]
            lines.append(f"| {path.stem} | {workload} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def provenance() -> str:
    """The commit, the BLAS thread count and the numpy version a table was made at."""
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"commit {commit or 'unknown'}, OPENBLAS_NUM_THREADS={threads}, numpy {np.__version__}"


def _child_env() -> dict:
    """The environment of a probe's fresh interpreter: this checkout's sources first."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def csv_load(smoke: bool = False) -> str:
    widths, repeats = ((300,), 1) if smoke else ((300, 10_000), 3)
    env = _child_env()
    lines = [
        f"`load_csv_matrix` on a 785 x N `synth_digits` pool, "
        f"{'one fresh process' if smoke else f'median of {repeats} fresh processes'} "
        f"({provenance()})",
        "",
        "| N | file MB | matrix MB | seconds | peak RSS above import, MB | × matrix "
        "| traced peak × matrix |",
        "|---|---|---|---|---|---|---|",
    ]
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "pool.csv")
        for n in widths:
            images, labels = harness.synth_digits(10, n // 10, seed=1)
            harness.save_csv_matrix(np.vstack([labels, images]), path)
            del images, labels
            runs = [
                json.loads(subprocess.run(
                    [sys.executable, "-c", LOAD_CHILD, path], env=env,
                    capture_output=True, text=True, check=True,
                ).stdout)
                for _ in range(repeats)
            ]
            seconds = statistics.median(run["seconds"] for run in runs)
            above = statistics.median(run["above_import"] for run in runs)
            parsed = runs[0]["parsed"]
            lines.append(
                f"| {n:,} | {os.path.getsize(path) / 1e6:.1f} | {parsed / 1e6:.1f} | "
                f"{seconds:.2f} | {above / 1e6:.1f} | {above / parsed:.2f} | "
                f"{runs[0]['traced'] / parsed:.2f} |"
            )
    return "\n".join(lines)


def csv_save(smoke: bool = False) -> str:
    images, labels = harness.synth_digits(10, 30, seed=1)
    cases = {"785 x 300 pool": np.vstack([labels, images])}
    if not smoke:
        pool, _ = harness.synth_digits(10, 120, seed=1)
        noise = np.random.default_rng(1).normal(0.0, 0.05, pool.shape)
        cases = {"784 x 1200 decode": pool + noise, **cases}
    repeats = 1 if smoke else 3
    lines = [
        f"`save_csv_matrix`, {'one fresh process' if smoke else f'median of {repeats} fresh processes'} "
        f"({provenance()})",
        "",
        "| matrix | file MB | matrix MB | seconds | peak RSS above import and matrix, MB "
        "| × matrix | traced peak × matrix |",
        "|---|---|---|---|---|---|---|",
    ]
    with tempfile.TemporaryDirectory() as work:
        source, path = os.path.join(work, "matrix.npy"), os.path.join(work, "matrix.csv")
        for name, matrix in cases.items():
            np.save(source, matrix)
            runs = [
                json.loads(subprocess.run(
                    [sys.executable, "-c", SAVE_CHILD, source, path], env=_child_env(),
                    capture_output=True, text=True, check=True,
                ).stdout)
                for _ in range(repeats)
            ]
            with open(path, "rb") as fh:
                written = fh.read()
            expected = "".join(",".join(map(repr, row.tolist())) + "\n" for row in matrix)
            if written != expected.encode("ascii"):
                raise SystemExit(f"csv-save: the {name} file differs from the repr join")
            seconds = statistics.median(run["seconds"] for run in runs)
            above = statistics.median(run["above"] for run in runs)
            lines.append(
                f"| {name} | {len(written) / 1e6:.1f} | {matrix.nbytes / 1e6:.1f} | {seconds:.2f} | "
                f"{above / 1e6:.1f} | {above / matrix.nbytes:.2f} | "
                f"{runs[0]['traced'] / matrix.nbytes:.2f} |"
            )
    return "\n".join(lines)


def _write_idx(images: np.ndarray, labels: np.ndarray, images_path: str):
    """Images in [0, 1], one per column, as uint8 IDX files; the labels file
    is named as :func:`gfred.harness.load_idx` derives it."""
    side = int(round(images.shape[0] ** 0.5))
    pixels = np.round(images.T * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, images.shape[1], side, side) + pixels.tobytes())
    with open(images_path.replace("images", "labels"), "wb") as fh:
        fh.write(struct.pack(">II", 0x801, labels.size) + labels.astype(np.uint8).tobytes())


def cli_peaks(smoke: bool = False) -> str:
    (classes, per_class, size), (k, order, iters) = (
        ((4, 10, 12), (3, 1, 5)) if smoke else ((10, 120, 28), (20, 2, 20))
    )
    repeats = 1 if smoke else 3
    n = classes * per_class
    lines = [
        f"`gfred` commands on an IDX `synth_digits` pool of {classes} x {per_class} images at "
        f"{size} x {size} (n = {n}), "
        f"{'one fresh process' if smoke else f'median of {repeats} fresh processes'} "
        f"({provenance()})",
        "",
        "| command | seconds | peak RSS above `import gfred.cli`, MB | × n x n array |",
        "|---|---|---|---|",
    ]
    with tempfile.TemporaryDirectory() as work:
        pool, model = os.path.join(work, "pool-images-idx3-ubyte"), os.path.join(work, "m.gfm")
        _write_idx(*harness.synth_digits(classes, per_class, seed=1, size=size), pool)
        fit = ["fit", "--data", pool, "--format", "idx", "--k", str(k), "--l", str(order),
               "--max-iters", str(iters), "--model-out", model]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(fit) != 0:
                raise SystemExit("cli-peaks: the fit failed")
        commands = {
            "graph": ["graph", "--data", pool, "--format", "idx"],
            "encode": ["encode", "--model", model, "--data", pool, "--format", "idx",
                       "--out", os.path.join(work, "reduced.csv")],
            "decode": ["decode", "--model", model, "--out", os.path.join(work, "recon.csv")],
            "eval": ["eval", "--model", model, "--data", pool, "--format", "idx"],
        }
        for name, argv in commands.items():
            runs = [
                json.loads(subprocess.run(
                    [sys.executable, "-c", CLI_CHILD, *argv], env=_child_env(),
                    capture_output=True, text=True, check=True,
                ).stdout)
                for _ in range(repeats)
            ]
            if any(run["code"] != 0 for run in runs):
                raise SystemExit(f"cli-peaks: gfred {name} exited {runs[0]['code']}")
            seconds = statistics.median(run["seconds"] for run in runs)
            above = statistics.median(run["above_import"] for run in runs)
            lines.append(
                f"| {name} | {seconds:.3f} | {above / 1e6:.1f} | {above / (8 * n * n):.2f} |"
            )
    return "\n".join(lines)


PROBES = {
    "trajectory": trajectory, "csv-load": csv_load, "csv-save": csv_save, "cli-peaks": cli_peaks,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("probe", choices=sorted(PROBES))
    parser.add_argument("--smoke", action="store_true",
                        help="csv-load, csv-save, cli-peaks: the smallest input, once; "
                             "trajectory has nothing to shrink")
    args = parser.parse_args(argv)
    print(PROBES[args.probe](smoke=args.smoke))
    return 0


if __name__ == "__main__":
    sys.exit(main())
