"""Exception and warning types shared across the package."""
from contextlib import contextmanager

import numpy as np


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class ZeroColumn(ValueError):
    """Cosine similarity is undefined for an all-zero data vector."""


class KnnTooLarge(ValueError):
    """Neighbor count must satisfy knn <= n - 1."""


class NonFiniteValue(ArithmeticError):
    """An iterate picked up NaN or infinity."""


class FingerprintMismatch(ValueError):
    """The model was trained against a different graph spectrum."""


class ConfigError(ValueError):
    """A setting is missing or invalid: a sweep configuration's value, or
    a fit's stopping settings (``epsilon``, ``max_iters``), which
    ``optimizer.check_stopping`` checks for a fit and a sweep alike. The
    CLI exits 2 on it."""


class DataError(Exception):
    """Base class for dataset and model-file problems."""


class BadMagic(DataError):
    """A binary file does not start with the expected magic number."""


class TruncatedFile(DataError):
    """A binary file ends before its declared contents do."""


class CountMismatch(DataError):
    """Paired image and label files disagree on the record count."""


class CsvParseError(DataError):
    """A CSV cell failed to parse; the message carries row and column."""


class InsufficientImages(DataError):
    """A requested subset needs more classes or images than the data holds."""


class CorruptFile(DataError):
    """A model file failed a structural or checksum validation."""


class VersionMismatch(DataError):
    """A model file was written by an unsupported format version."""


class DataOverflow(DataError):
    """The centered data's sum of squares, or a data column's, is not a finite float64."""


class DataUnderflow(DataError):
    """A data column with a nonzero entry has a sum of squares that rounds to 0."""


class ConvergenceFailure(DataError, RuntimeError):
    """An eigensolver or SVD did not converge on the data (the graph's,
    the covariance's or the centered data's), or a fit's starting
    coefficients could not be solved for against the training kernel.
    Raised through :func:`solver_failure`, so it exits 3 as every data
    error does."""


class SpectralOverflow(DataError, ArithmeticError):
    """An eigenvalue power grew past 1e150, as in a model file whose
    eigenvalues are that large (build_graph's unit-radius graphs never do)."""


class NonFiniteStart(DataError, NonFiniteValue):
    """A fit's starting point is not finite, as the PCA seed of data too
    small for double precision is."""


class RankDeficiencyWarning(UserWarning):
    """Requested components reach into the numerical null space."""


@contextmanager
def solver_failure(what: str):
    """Turn a ``np.linalg.LinAlgError`` raised inside the block into
    ``ConvergenceFailure(f"{what} failed: {exc}")``, chained to it: a
    LAPACK solver that fails on the data is a data error."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"{what} failed: {exc}") from exc
