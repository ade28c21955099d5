"""Spans recorded around calls into the gfred modules, and the per-layer
metrics derived from them.

Nothing here edits the package's source. :class:`Tracer` swaps wrappers
in for the package's public functions for the length of a ``with`` block.
The package imports functions by name into the modules that call them
(``gfred.optimizer.apply_response``, ``gfred.cli.build_graph``, ...), so a
wrapper replaces every module attribute bound to the original function,
not only the one in the defining module.

Spans stay in memory as ``(name, start, end, parent, op)`` tuples until
the run ends. A span's self time is its duration minus the durations of
its direct children; calls are single-threaded, so children never overlap.
Some wrappers run a hook after their span closes, to count edges or
compute a fit's stationarity. The hook's time is taken out of every span
still open around it, so that spans time the program and not the tracer.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped in that layer's module
WRAPPED = {
    "graph": ("similarity_dense", "knn_sparsify", "eigendecompose", "build_graph"),
    "spectral": ("center", "gft", "igft", "apply_response", "build_cache"),
    "pca": ("pca_fit", "pca_mse"),
    "optimizer": ("fit", "init_filters", "extend_order"),
    "codec": ("save_model", "load_model", "reduce", "reconstruct", "reconstruction_mse"),
    "harness": ("load_csv_matrix", "load_idx", "save_csv_matrix", "sample_subset", "run_sweep"),
}

MODULES = (*WRAPPED, "cli")
CLI_COMMANDS = ("graph", "fit", "encode", "decode", "eval")

TIMED = (
    "graph.similarity_dense", "graph.knn_sparsify", "graph.eigendecompose",
    "spectral.apply_response", "spectral.build_cache", "spectral.gft", "spectral.igft",
    "pca.pca_fit",
    "optimizer.fit", "optimizer.init_filters", "optimizer.extend_order",
    "harness.load_csv_matrix", "harness.sample_subset", "harness.load_idx",
    "harness.save_csv_matrix",
    "codec.save_model", "codec.load_model", "codec.reduce", "codec.reconstruct",
    "codec.reconstruction_mse",
)
SELF_TIMED = ("harness.run_sweep",) + tuple(f"cli.{c}" for c in CLI_COMMANDS)

# per-layer metric -> unit, in the order BENCHMARK.json lists them
UNITS = {f"{name}.ms": "ms/op" for name in TIMED}
UNITS.update({f"{name}.self_ms": "ms/op" for name in SELF_TIMED})
UNITS.update({
    "graph.edges": "count",
    "spectral.apply_response.calls_per_iter": "count",
    "optimizer.fit.calls": "count/op",
    "optimizer.iterations": "count/op",
    "optimizer.iter_ms": "ms",
    "optimizer.converged_frac": "ratio",
    "optimizer.stationarity_p50": "norm",
    "harness.fits_per_cell": "count",
    "harness.warm_win_frac": "ratio",
    "codec.model_bytes": "bytes",
    "codec.encode_oos_rel_err": "ratio",
    "trace.overhead_frac": "ratio",
})


class Tracer:
    """Records spans for calls made while an op is open.

    Calls made outside an op (set-up, output checks) or while paused pass
    straight through to the wrapped function and leave no span.
    """

    def __init__(self):
        self.spans: list = []
        self.fits: list[dict] = []      # one record per optimizer.fit call
        self.cells: list[int] = []      # order>=1 cells per run_sweep call
        self.edges: list[int] = []
        self.model_bytes: list[int] = []
        self._hook_seconds = defaultdict(float)  # span index -> hook time inside it
        self._stack: list[int] = []
        self._op = None
        self._paused = 0
        self._ops = 0
        self._patched: list = []

    # --- op and pause scopes ----------------------------------------------

    @contextlib.contextmanager
    def op(self):
        self._op = self._ops
        self._ops += 1
        try:
            yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def paused(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _active(self) -> bool:
        return self._op is not None and not self._paused

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active():
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, start, end, parent, self._op)
            if after is not None:
                started = time.perf_counter()
                with self.paused():
                    after(index, args, kwargs, out)
                spent = time.perf_counter() - started
                for open_span in self._stack:
                    self._hook_seconds[open_span] += spent
            return out

        return wrapper

    def __enter__(self):
        modules = [importlib.import_module(f"gfred.{m}") for m in MODULES]
        modules.append(importlib.import_module("gfred"))
        hooks = {
            "graph.build_graph": self._after_graph,
            "optimizer.fit": self._after_fit,
            "codec.save_model": self._after_save,
            "harness.run_sweep": self._after_sweep,
        }
        targets = []
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"gfred.{layer}")
            for fname in names:
                span = f"{layer}.{fname}"
                targets.append((getattr(home, fname), self._wrap(span, getattr(home, fname),
                                                                 hooks.get(span))))
        cli = importlib.import_module("gfred.cli")
        targets.append((cli.main, self._wrap(_cli_span, cli.main)))
        for original, wrapper in targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    # --- counters recorded at the layer boundaries -------------------------

    def _after_graph(self, index, args, kwargs, spectrum):
        import numpy as np

        self.edges.append(int(np.count_nonzero(spectrum.adjacency)) // 2)

    def _after_fit(self, index, args, kwargs, result):
        from gfred.optimizer import stationarity_residual
        from gfred.spectral import build_cache

        ds, spectrum, _, order = args[:4]
        cache = kwargs.get("cache") or build_cache(ds.centered, spectrum, order)
        self.fits.append({
            "span": index,
            "order": order,
            "warm": kwargs.get("start") is not None,
            "final": float(result.objective_trace[-1]),
            "iterations": result.iterations,
            "converged": result.converged,
            "stationarity": stationarity_residual(result.model, cache),
        })

    def _after_save(self, index, args, kwargs, out):
        path = kwargs.get("path", args[3] if len(args) > 3 else None)
        self.model_bytes.append(os.path.getsize(path))

    def _after_sweep(self, index, args, kwargs, report):
        cells = sum(1 for r in report.rows if r.L >= 1)
        cells += sum(1 for f in report.failures if f.L >= 1)
        self.cells.append(cells)

    # --- metrics ------------------------------------------------------------

    def metrics(self, overhead_frac: float, encode_oos_rel_err: float) -> dict:
        """Every per-layer metric, normalized per traced op where it says /op."""
        ops = max(self._ops, 1)
        total, self_time, _ = self._aggregate()
        out = {f"{n}.ms": total[n] * 1e3 / ops for n in TIMED}
        out.update({f"{n}.self_ms": self_time[n] * 1e3 / ops for n in SELF_TIMED})

        fit_spans = {f["span"] for f in self.fits}
        in_fit = self._calls_under(fit_spans, "spectral.apply_response")
        setup_in_fit = self._time_under(fit_spans, ("optimizer.init_filters", "spectral.build_cache"))
        iterations = sum(f["iterations"] for f in self.fits)
        # every fit evaluates the objective once before its first iteration
        per_iter = (in_fit - len(self.fits)) / iterations if iterations else 0.0
        sweep_fits = [f for f in self.fits if self._under_sweep(f["span"]) and f["order"] >= 1]
        warm = [i for i, f in enumerate(self.fits) if f["warm"]]
        wins = sum(
            1 for i in warm
            if i > 0 and not self.fits[i - 1]["warm"] and self.fits[i]["final"] < self.fits[i - 1]["final"]
        )
        out.update({
            "graph.edges": statistics.fmean(self.edges) if self.edges else 0.0,
            "spectral.apply_response.calls_per_iter": per_iter,
            "optimizer.fit.calls": len(self.fits) / ops,
            "optimizer.iterations": iterations / ops,
            "optimizer.iter_ms": (
                (total["optimizer.fit"] - setup_in_fit) * 1e3 / iterations if iterations else 0.0
            ),
            "optimizer.converged_frac": (
                sum(f["converged"] for f in self.fits) / len(self.fits) if self.fits else 0.0
            ),
            "optimizer.stationarity_p50": (
                statistics.median(f["stationarity"] for f in self.fits) if self.fits else 0.0
            ),
            "harness.fits_per_cell": len(sweep_fits) / sum(self.cells) if sum(self.cells) else 0.0,
            "harness.warm_win_frac": wins / len(warm) if warm else 0.0,
            "codec.model_bytes": statistics.fmean(self.model_bytes) if self.model_bytes else 0.0,
            "codec.encode_oos_rel_err": encode_oos_rel_err,
            "trace.overhead_frac": overhead_frac,
        })
        return {name: {"value": float(out[name]), "unit": UNITS[name]} for name in UNITS}

    def _ancestors(self, index):
        parent = self.spans[index][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def _calls_under(self, roots, name) -> int:
        return sum(
            1 for i, span in enumerate(self.spans)
            if span[0] == name and any(a in roots for a in self._ancestors(i))
        )

    def _duration(self, index) -> float:
        """Seconds the span covers, less the tracer's hooks inside it."""
        _, start, end, _, _ = self.spans[index]
        return end - start - self._hook_seconds.get(index, 0.0)

    def _time_under(self, roots, names) -> float:
        return sum(
            self._duration(i) for i, span in enumerate(self.spans)
            if span[0] in names and span[3] in roots
        )

    def _under_sweep(self, index) -> bool:
        return any(self.spans[a][0] == "harness.run_sweep" for a in self._ancestors(index))

    def _aggregate(self):
        """Total seconds, self seconds and call count per span name."""
        total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for index, (name, _, _, parent, _) in enumerate(self.spans):
            duration = self._duration(index)
            total[name] += duration
            self_time[name] += duration
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][0]] -= duration
        return total, self_time, calls

    def summary(self) -> dict:
        """Span counts and self times by name, for the run's detail record."""
        total, self_time, calls = self._aggregate()
        return {
            name: {"calls": calls[name], "total_ms": total[name] * 1e3,
                   "self_ms": self_time[name] * 1e3}
            for name in sorted(total)
        }


def _cli_span(args, kwargs) -> str:
    argv = kwargs.get("argv", args[0] if args else None)
    if argv is None:
        argv = sys.argv[1:]
    return f"cli.{argv[0]}" if argv else "cli.main"
