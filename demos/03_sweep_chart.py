"""A small benchmark sweep: PCA against filters over a (k, order) grid.

Runs repeated trials on random class subsets, prints the aggregate
table, and writes the CSV plus an SVG chart next to this script.
"""

import tempfile
from pathlib import Path

from gfred.graph import Kernel, SimilarityConfig
from gfred.harness import (
    DataFormat,
    ExperimentConfig,
    emit_csv,
    emit_svg,
    run_sweep,
    save_csv_matrix,
    synth_digits,
)

# pool of labeled images written to a CSV the harness can sample from
images, labels = synth_digits(n_classes=6, per_class=12, seed=2, size=16)
with tempfile.TemporaryDirectory() as tmp:
    pool = Path(tmp) / "pool.csv"
    rows = [[float(v) for v in labels]] + [list(r) for r in images]
    save_csv_matrix(rows, pool)

    cfg = ExperimentConfig(
        dataset_path=str(pool),
        dataset_format=DataFormat.CSV,
        classes_to_pick=3,
        images_per_class=8,
        trials=3,
        seed=9,
        similarity=SimilarityConfig(kernel=Kernel.COSINE, knn=6),
        k_list=(4, 8),
        L_list=(0, 1, 2),
        max_iters=200,
    )
    report = run_sweep(cfg)
print(f"{len(report.rows)} cells, {len(report.failures)} failures")

print("\n  k  L   mean final MSE   mean PCA MSE")
for agg in report.aggregates:
    print(f"{agg.k:3d} {agg.L:2d}   {agg.mean_final_mse:14.6f} {agg.mean_pca_mse:14.6f}")

out_dir = Path(__file__).resolve().parent / "out"
out_dir.mkdir(exist_ok=True)
emit_csv(report, out_dir / "sweep.csv")
emit_svg(report, out_dir / "sweep.svg")
print(f"\nwrote {out_dir / 'sweep.csv'}")
print(f"wrote {out_dir / 'sweep.svg'}")
