"""A small benchmark sweep: PCA against filters over a (k, order) grid.

Runs repeated trials on random class subsets, prints the mean MSEs per
(k, order) cell, and writes the row CSV next to this script. The library
computes the rows; this script draws them as an SVG chart of mean final
MSE against k, one line per order.
"""

import tempfile
from pathlib import Path

from gfred.graph import Kernel, SimilarityConfig
from gfred.harness import (
    DataFormat,
    ExperimentConfig,
    emit_csv,
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


def mean(values):
    return sum(values) / len(values)


means = {}
print("\n  k  L   mean final MSE   mean PCA MSE")
for k, L in sorted({(r.k, r.L) for r in report.rows}):
    cell = [r for r in report.rows if (r.k, r.L) == (k, L)]
    means[k, L] = mean([r.final_mse for r in cell])
    print(f"{k:3d} {L:2d}   {means[k, L]:14.6f} {mean([r.pca_mse for r in cell]):14.6f}")

out_dir = Path(__file__).resolve().parent / "out"
out_dir.mkdir(exist_ok=True)
emit_csv(report, out_dir / "sweep.csv")

# the chart: plot area from (left, top) to (right, bottom) in a 640x420 canvas
ks = sorted({k for k, _ in means})
orders = sorted({L for _, L in means})
left, right, top, bottom = 64, 490, 28, 368
y_hi = 1.06 * max(means.values())


def px(k):
    return left + (k - ks[0]) / (ks[-1] - ks[0]) * (right - left)


def py(value):
    return bottom - value / y_hi * (bottom - top)


def text(x, y, label, anchor="middle", attrs=""):
    return f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}"{attrs}>{label}</text>'


middle = (top + bottom) / 2
parts = [
    '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420" viewBox="0 0 640 420">',
    "<style>text { font-family: sans-serif; font-size: 11px }</style>",
    '<rect width="640" height="420" fill="#ffffff"/>',
    f'<path d="M{left} {top}V{bottom}H{right}" fill="none" stroke="#333333"/>',
    text((left + right) / 2, bottom + 38, "reduced dimension k"),
    text(16, middle, "mean final MSE", attrs=f' transform="rotate(-90 16 {middle})"'),
]
parts += [text(px(k), bottom + 18, k) for k in ks]
parts += [text(left - 8, py(y_hi * i / 4) + 4, f"{y_hi * i / 4:.4g}", "end") for i in range(5)]
for i, L in enumerate(orders):
    color = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")[i % 4]
    points = " ".join(f"{px(k):.2f},{py(means[k, L]):.2f}" for k in ks if (k, L) in means)
    parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>')
    parts.append(text(right + 12, top + 18 * (i + 1), f"L={L}", "start", f' fill="{color}"'))
parts.append("</svg>")
(out_dir / "sweep.svg").write_text("\n".join(parts) + "\n", encoding="utf-8")
print(f"\nwrote {out_dir / 'sweep.csv'}")
print(f"wrote {out_dir / 'sweep.svg'}")
