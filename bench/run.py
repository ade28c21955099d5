"""gfred benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload {sweep,fit-large,serve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. A child process (this script with ``--set-up``, run through
``subprocess`` and waited for) sets up the workload's inputs several times
(``setup_s`` comes from the median) and computes the reference outputs the
checks need, so the set-up's memory stays out of ``peak_rss_mb``. The run
then runs ops back to back until ``--seconds`` have passed and at least the
workload's ``min_ops`` ran, checking each op's output after its clock
stops.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics from spans recorded
around calls into each gfred module (see ``tracing.py``). A traced run first
runs op 0 untraced and then traced, on identical inputs, and reports the
difference as ``trace.overhead_frac``. Lines before the last one are JSON
records: the environment, and the run's detail (named metrics with units,
failures).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
THREADS_ENV = "GFRED_THREADS"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "fit-large", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _pin_environment():
    """Fix BLAS threads before numpy loads; keep sweeps serial."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop(THREADS_ENV, None)


def _blas_threads_in_use():
    """Ask the loaded OpenBLAS for its thread count; None if not found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads_in_use(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        THREADS_ENV: os.environ.get(THREADS_ENV, "unset"),
    }


class Reference:
    """A fixed kernel that never calls gfred, timed on both sides of each op
    and of each set-up.

    The shared machine's speed drifts by up to a fifth over tens of seconds,
    and not by the same amount for every kind of work. Op times are divided
    by the time of an interpreter loop plus two 500x500 matmuls, so that
    drift cancels out of the gated latency metric. The set-up of most
    workloads is mostly ``synth_digits`` (many numpy calls on 28x28 arrays)
    and the CSV writer (float formatting), which that kernel tracks poorly;
    ``broad=True`` adds both kinds of work. ``nominal_s`` is about the
    kernel's median time on the 2-core machine the baseline was recorded
    on; set-up times are scaled to it.
    """

    def __init__(self, broad: bool = False):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.random((500, 500))
        self.broad = broad
        self.nominal_s = 0.05 if broad else 0.0125
        self.floats = rng.random(20_000).tolist()
        self.small = rng.random((28, 28))

    def once(self):
        import numpy as np

        total = 0
        for i in range(70_000):
            total += i * i
        for _ in range(2):
            self.matrix @ self.matrix
        if self.broad:
            ",".join(repr(v) for v in self.floats)
            acc = np.zeros_like(self.small)
            for i in range(1500):
                acc += np.exp(-0.5 * ((self.small - i * 1e-4) / 0.3) ** 2)

    def seconds(self) -> float:
        """Median of three timings of the kernel."""
        times = []
        for _ in range(3):
            started = time.perf_counter()
            self.once()
            times.append(time.perf_counter() - started)
        return statistics.median(times)


def _set_up(name, seed, work):
    """Set up ``workload.setup_repeats`` times, then prepare the checks.

    Runs in a child process. Returns the raw set-up seconds, each scaled to
    the reference kernel's nominal speed, and the prepared workload.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, work)
    reference = Reference(broad=workload.setup_kernel == "broad")
    ref = reference.seconds()
    raw, scaled = [], []
    for _ in range(workload.setup_repeats):
        started = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - started
        before, ref = ref, reference.seconds()
        raw.append(seconds)
        scaled.append(seconds / (0.5 * (before + ref)) * reference.nominal_s)
    workload.prepare()
    return raw, scaled, workload


def _measure(workload, seconds, tracer):
    """Run ops until ``seconds`` pass and at least ``workload.min_ops`` ran.

    Returns (results, attempted, failed, failures, overhead): program
    invocations made, those that failed, the problems found, and the tracing
    overhead. Each result carries ``ref``, the mean reference-kernel time on
    either side of its op.
    """
    reference = Reference()
    results, failures = [], []
    attempted, failed, ref = 0, 0, reference.seconds()

    def one(index, traced):
        nonlocal attempted, failed, ref
        try:
            with tracer.op() if traced else contextlib.nullcontext():
                result = workload.op(index)
            before, ref = ref, reference.seconds()
            result.ref = 0.5 * (before + ref)
            calls, failed_calls, problems = workload.check(result)
        except Exception:  # a crashed op counts as failed, and the run goes on
            attempted += 1
            failed += 1
            failures.append(traceback.format_exc(limit=4))
            ref = reference.seconds()
            return None
        attempted += calls
        failed += failed_calls
        failures.extend(problems)
        results.append(result)
        return result

    started = time.perf_counter()
    if tracer is None:
        index = 0
        while index < workload.min_ops or time.perf_counter() - started < seconds:
            one(index, False)
            index += 1
        return results, attempted, failed, failures, 0.0

    overhead = 0.0
    plain = one(0, False)  # before the wrappers go in, so their cost counts too
    results.clear()
    with tracer:
        traced = one(0, True)
        if plain is not None and traced is not None:
            overhead = (traced.seconds / traced.ref) / (plain.seconds / plain.ref) - 1.0
        index = 1
        while index < workload.min_ops or time.perf_counter() - started < seconds:
            one(index, True)
            index += 1
    return results, attempted, failed, failures, overhead


def _detail(workload, results, setup_raw_s, peak_rss_mb, failed_frac):
    """The run's end-to-end numbers under the workload's own names, and mse_ratio.

    Quality comes from the first ``workload.min_ops`` ops only, so that it
    does not depend on how many ops a run had time for. Raises
    StatisticsError when some sample set is empty.
    """
    ops = [r.seconds for r in results]
    ratios = [v for r in results[: workload.min_ops] for v in r.quality.get("mse_ratios", [])]
    named = {"setup_raw_s": (setup_raw_s, "s"), "failed_frac": (failed_frac, "ratio"),
             "peak_rss_mb": (peak_rss_mb, "MB"),
             "op_s_p50": (statistics.median(ops), "s"),
             "reference_ms_p50": (statistics.median(r.ref for r in results) * 1e3, "ms")}
    if workload.name == "sweep":
        named["sweep_s"] = (statistics.median(ops), "s")
        named["sweep_mse_ratio"] = (statistics.fmean(ratios), "ratio")
        named["sweep_trials"] = (len(ops), "count")
    elif workload.name == "fit-large":
        named["fit_s"] = (statistics.median(ops), "s")
        named["fit_mse_ratio"] = (statistics.fmean(ratios), "ratio")
    else:
        for kind in ("graph", "encode", "encode_oos", "decode", "eval"):
            samples = [c.seconds * 1e3 for r in results for c in r.calls if c.kind == kind]
            named[f"{kind}_ms_p50"] = (statistics.median(samples), "ms")
        errs = [r.quality["encode_oos_rel_err"] for r in results if "encode_oos_rel_err" in r.quality]
        named["encode_oos_rel_err"] = (statistics.median(errs), "ratio")
    detail = {name: {"value": value, "unit": unit} for name, (value, unit) in named.items()}
    return detail, statistics.fmean(ratios)


def _set_up_in_child(args, work):
    """Run ``_set_up`` in a fresh interpreter and wait for it to end.

    The child pickles its result into ``work``. ``subprocess.run`` kills and
    reaps the child if the parent is interrupted, and, unlike
    ``multiprocessing``, starts no helper process that outlives this one.
    """
    out = work / "setup.pkl"
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--set-up",
                    args.workload, str(args.seed), str(work), str(out)],
                   check=True, stdin=subprocess.DEVNULL)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def _child_main(name, seed, work, out) -> int:
    raw, scaled, workload = _set_up(name, int(seed), work)
    with open(out, "wb") as fh:
        pickle.dump((raw, scaled, workload), fh)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    child = argv[:1] == ["--set-up"]
    args = None if child else _parse_args(argv)
    if not (ROOT / "src" / "gfred" / "__init__.py").is_file():
        print(f"no gfred sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    _pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if child:
        return _child_main(*argv[1:])
    # On SIGTERM, unwind: subprocess.run then kills and reaps the set-up child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    from tracing import Tracer

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups, scaled, workload = _set_up_in_child(args, work)
        tracer = Tracer() if args.trace else None
        results, attempted, failed, failures, overhead = _measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"environment": environment()}))
    try:
        detail, mse_ratio = _detail(workload, results, statistics.median(setups),
                                 peak_rss_mb, failed / max(attempted, 1))
    except statistics.StatisticsError:  # no op, or no op of some kind, succeeded
        print(json.dumps({"failures": failures}))
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed,
                          "metrics": {}}))
        return 0
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops": len(results), "setup_runs_s": setups, "setup_scaled_s": scaled,
              "op_runs_s": [r.seconds for r in results],
              "reference_runs_ms": [r.ref * 1e3 for r in results], "detail": detail,
              "failures": failures}
    if tracer is not None:
        record["spans"] = tracer.summary()
        oos = detail.get("encode_oos_rel_err", {}).get("value", 0.0)
        metrics = tracer.metrics(overhead, oos)
    else:
        metrics = {
            "op_ref_p50": {"value": statistics.median(r.seconds / r.ref for r in results),
                           "unit": "ref"},
            "mse_ratio": {"value": mse_ratio, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(scaled), "unit": "s"},
        }
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
