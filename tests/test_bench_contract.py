"""What the benchmark under ``bench/`` uses of the package, checked here
so that a rename or a dropped field fails the tests and not only a bench
run. The bench files are read and run, never edited."""
import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    """``bench/<name>.py``, imported as ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_callable():
    wrapped = bench_module("tracing").WRAPPED
    missing = [
        f"gfred.{layer}.{name}"
        for layer, names in wrapped.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"gfred.{layer}"), name, None))
    ]
    assert missing == []


def test_sweep_op_passes_its_own_check(tmp_path):
    sweep = bench_module("workloads").Sweep(seed=1, work=str(tmp_path))
    sweep.setup()
    sweep.prepare()
    result = sweep.op(0)
    assert sweep.check(result) == (1, 0, [])
