"""Tables behind numbers that README.md and ROADMAP.md cite, regenerated
from committed files.

Usage: python tools/probes.py {trajectory,csv-load} [--smoke]

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
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gfred import harness

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


def csv_load(smoke: bool = False) -> str:
    widths, repeats = ((300,), 1) if smoke else ((300, 10_000), 3)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
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


PROBES = {"trajectory": trajectory, "csv-load": csv_load}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("probe", choices=sorted(PROBES))
    parser.add_argument("--smoke", action="store_true",
                        help="csv-load: the smallest input, once; trajectory has nothing to shrink")
    args = parser.parse_args(argv)
    print(PROBES[args.probe](smoke=args.smoke))
    return 0


if __name__ == "__main__":
    sys.exit(main())
