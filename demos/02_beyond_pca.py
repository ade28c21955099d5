"""Training graph filters that reconstruct better than plain PCA.

Fits a filter pair at a few orders on one subset of synthetic digit
images, reusing each converged solution to seed the next order, and
finishes by saving the best model to disk and loading it back.
"""

import tempfile
from pathlib import Path

import numpy as np

from gfred.codec import load_model, reconstruction_mse, reduce, save_model
from gfred.graph import Kernel, SimilarityConfig, build_graph
from gfred.harness import synth_digits
from gfred.optimizer import fit
from gfred.pca import pca_fit, pca_mse
from gfred.spectral import center

images, _ = synth_digits(n_classes=4, per_class=10, seed=0, size=28)
ds = center(images)
spectrum = build_graph(images, SimilarityConfig(kernel=Kernel.COSINE, knn=12))
n, dim, k = images.shape[1], images.shape[0], 10
print(f"{n} images of {dim} pixels, reducing to {k} numbers per image")

baseline = pca_mse(ds, pca_fit(ds, k))
print(f"PCA reconstruction MSE: {baseline:.6f}")

# order 0 can only tie PCA; higher orders mix neighborhoods and win.
# each order is seeded from the previous solution so the objective can
# only keep falling
results = {}
start = None
for order in (0, 1, 2):
    result = fit(ds, spectrum, k, order, start=start, max_iters=300)
    results[order] = result
    mse = float(result.objective_trace[-1])
    gain = 100.0 * (1.0 - mse / baseline)
    print(f"order {order}: final MSE {mse:.6f} ({gain:+.2f}% vs PCA, {result.iterations} sweeps)")
    start = result.model

best = results[2].model
reduced = reduce(best, ds, spectrum)
print(f"reduced representation: {reduced.values.shape[0]} x {reduced.values.shape[1]}")

# the whole state (model, spectrum, reduced data) fits one file
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "digits.gfm"
    save_model(best, spectrum, reduced, out)
    loaded = load_model(out)
    size = out.stat().st_size
same = np.array_equal(loaded.model.recon_taps, best.recon_taps)
print(f"saved {size} bytes; taps identical after reload: {same}")
print(f"reloaded model reconstructs at MSE {reconstruction_mse(loaded.model, ds, spectrum):.6f}")
