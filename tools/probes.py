"""Tables behind numbers that README.md and ROADMAP.md cite, regenerated
from committed files.

Usage: python tools/probes.py trajectory

``trajectory`` prints, as a markdown table, the parent -> change medians
of the gated end-to-end metrics (``end_to_end`` in ``BENCHMARK.json``) for
every workload of every committed ``BENCH_<n>.json``, in order of n. Each
of those files holds its medians under
``workloads -> <workload> -> metrics -> <metric> -> parent/change -> median``.
"""
import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_files() -> list:
    """Every ``BENCH_<n>.json`` at the repository root, in order of n."""
    paths = [p for p in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", p.name)]
    return sorted(paths, key=lambda path: int(path.stem.removeprefix("BENCH_")))


def trajectory() -> str:
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


PROBES = {"trajectory": trajectory}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("probe", choices=sorted(PROBES))
    args = parser.parse_args(argv)
    print(PROBES[args.probe]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
