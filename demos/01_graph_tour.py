"""Tour of the graph layer: similarity, sparsification, and the transform.

Builds a small cosine graph over synthetic digit images, looks at its
spectrum, and shows that the graph Fourier transform is an isometry that
the rest of the library leans on.
"""

import numpy as np

from gfred.graph import Kernel, SimilarityConfig, build_graph, similarity_dense
from gfred.harness import synth_digits
from gfred.spectral import center, eig_power_table, gft, igft

# a pocket-sized dataset: 3 digit classes, 8 images each, 12x12 pixels
images, labels = synth_digits(n_classes=3, per_class=8, seed=1, size=12)
print(f"data matrix: {images.shape[0]} pixels x {images.shape[1]} images")

cfg = SimilarityConfig(kernel=Kernel.COSINE, knn=4)
sim = similarity_dense(images, cfg)
print(f"cosine similarities span [{sim.min():.3f}, {sim.max():.3f}]")

spectrum = build_graph(images, cfg)
edges = int(np.count_nonzero(spectrum.adjacency) // 2)
print(f"kept {edges} undirected edges after 4-nearest sparsification")

# eigenvalues come back sorted descending, and the graph is scaled to unit
# spectral radius; the extremes bound every frequency response the filters
# can realize
lo, hi = float(spectrum.eigvals[-1]), float(spectrum.eigvals[0])
print(f"adjacency spectrum lies in [{lo:.4f}, {hi:.4f}]")

# same-class images should look more similar than cross-class ones
same = [sim[i, j] for i in range(24) for j in range(i + 1, 24) if labels[i] == labels[j]]
cross = [sim[i, j] for i in range(24) for j in range(i + 1, 24) if labels[i] != labels[j]]
print(f"mean similarity within a class {np.mean(same):.3f}, across classes {np.mean(cross):.3f}")

# the transform pair: project onto the eigenbasis and back
ds = center(images)
freq = gft(ds.centered, spectrum)
back = igft(freq, spectrum)
print(f"round-trip error through the transform: {np.abs(back - ds.centered).max():.2e}")
print(f"energy is preserved: {np.linalg.norm(ds.centered):.6f} vs {np.linalg.norm(freq):.6f}")

# filters act through eigenvalue powers; the table is the workhorse, and at
# unit radius no power grows past 1 in magnitude
table = eig_power_table(spectrum.eigvals, order=3)
print(f"power table for orders 0..3 has shape {table.shape}")
print("powers of the most negative eigenvalue:", np.round(table[-1], 4))
