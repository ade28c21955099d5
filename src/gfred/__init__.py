"""Graph-filtered dimensionality reduction with a PCA baseline.

Data columns are linked into a similarity graph; a reducing and a
reconstruction matrix filter bank over that graph are trained jointly by
alternating exact-line-search gradient descent in the graph spectral
domain. Plain PCA is the built-in reference point, both for initialization
and for benchmarking.
"""

from .codec import (
    Domain,
    ModelFile,
    ReducedData,
    StorageBudget,
    compression_bound,
    convert_domain,
    load_model,
    reconstruct,
    reconstruction_mse,
    reduce,
    reducing_taps,
    save_model,
)
from .graph import (
    GraphSpectrum,
    Kernel,
    SimilarityConfig,
    Symmetrization,
    build_graph,
    canonical_signs,
    eigendecompose,
    knn_sparsify,
    similarity_dense,
)
from .harness import (
    DataFormat,
    ExperimentConfig,
    SweepAggregate,
    SweepFailure,
    SweepReport,
    SweepRow,
    emit_csv,
    emit_svg,
    load_csv_matrix,
    load_idx,
    run_sweep,
    sample_subset,
    save_csv_matrix,
    synth_digits,
)
from .optimizer import (
    FilterModel,
    FitResult,
    extend_order,
    fit,
    grad_coeffs,
    grad_taps,
    init_filters,
    objective,
    stationarity_residual,
    step_size_coeffs,
    step_size_taps,
)
from .pca import PcaModel, pca_fit, pca_mse
from .spectral import (
    CenteredDataset,
    SpectralCache,
    apply_response,
    build_cache,
    center,
    eig_power_table,
    gft,
    igft,
    spectral_response,
)

__version__ = "0.1.0"
