"""Graph-filtered dimensionality reduction with a PCA baseline.

Data columns are linked into a similarity graph; a reducing and a
reconstruction matrix filter bank over that graph are trained jointly by
alternating exact-line-search gradient descent in the graph spectral
domain. Plain PCA is the built-in reference point, both for initialization
and for benchmarking.
"""

__version__ = "0.1.0"
