"""Encoding, decoding, storage accounting, and the model file format.

Both maps are polynomial graph filters given by their matrix taps, and
each acts frequency by frequency in the graph's eigenbasis. The basis
only ever acts on k-row and (L+1)k-row arrays, never on the dim x n data
or reconstruction; reduced data is always held in the vertex domain.

- ``reduce`` applies the reducing taps that the coefficients imply on
  its input data. It forms those taps, the (L+1)k x dim stack ``H``, as
  ``igft(power_stack(coeffs)) @ Xbar'`` (since ``(Xbar U)' = U' Xbar'``
  this is :func:`~gfred.spectral.reducing_taps` on ``gft(Xbar)``),
  applies them to the vertex-domain data and returns
  ``igft(power_sum(gft(H @ Xbar)))``.
- ``reconstruct`` applies the stored bank of reconstruction taps to the
  vertex-domain power stack ``[V; V A; ...; V A^L]`` of the reduced data,
  ``igft(power_stack(gft(V)))`` (:func:`~gfred.spectral.apply_response`).

At D=784, n=1200, k=20 and L=2 a reduce takes 0.63 GFLOP and a
reconstruction 0.34, where transforming the data and the reconstruction
took 2.54 and 2.43. The trainer applies the reducing filter in the other
association, to the transformed data it caches
(:func:`~gfred.spectral.reduce_response`); the two agree up to rounding.
The literal vertex-domain filter banks both maps are checked against
(dense Kronecker products of adjacency powers and per-node taps) live
with the tests in ``tests/oracles.py``, with the spectral-domain
association.
"""
from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import CorruptFile, DimensionMismatch, VersionMismatch
from .graph import GraphSpectrum
from .optimizer import FilterModel, check_spectrum
from .spectral import (
    CenteredDataset,
    apply_response,
    eig_power_table,
    gft,
    igft,
    per_node,
    power_stack,
    power_sum,
)

_MAGIC = b"GFM1"
_VERSIONS = (1, 2)  # 2 stores the training PCA basis, 1 does not
_DOMAIN = "vertex"  # the only reduced-data domain; still written for older readers


@dataclass(frozen=True, eq=False)
class ReducedData:
    """k-dimensional vertex-domain vectors, one column per node."""

    values: np.ndarray  # (k, n)


@dataclass(frozen=True)
class StorageBudget:
    """Scalar counts for one stored model versus raw data and plain PCA."""

    stored_scalars: int
    raw_scalars: int
    pca_scalars: int

    @classmethod
    def from_dims(cls, n: int, dim: int, k: int, order: int) -> "StorageBudget":
        if min(n, dim, k) < 1 or order < 0:
            raise ValueError(f"invalid dims n={n}, dim={dim}, k={k}, order={order}")
        stored = k * (order + 1) * dim + 2 * k * n + n * (n + 1) // 2
        return cls(stored_scalars=stored, raw_scalars=n * dim, pca_scalars=k * dim + k * n)


def compression_bound(n: int, dim: int, order: int) -> int:
    """Largest k whose stored scalar count is strictly below the raw data's.

    Returns 0 when no k >= 1 compresses.
    """
    if n < 1 or dim < 1 or order < 0:
        raise ValueError(f"invalid dims n={n}, dim={dim}, order={order}")
    # stored(k) < raw  <=>  k * (2n + (order+1) dim) <= n dim - n(n+1)/2 - 1, all integers
    return max((n * dim - n * (n + 1) // 2 - 1) // (2 * n + (order + 1) * dim), 0)


def reduce(model: FilterModel, ds: CenteredDataset, spectrum: GraphSpectrum) -> ReducedData:
    """Reduced vertex-domain vectors for every node of the training graph.

    Applies the reducing taps computed from ``ds`` itself, without forming
    the n x n training kernel. On data other than the training set these
    are not the taps the model was trained with. The taps are formed and
    applied in the vertex domain, so the transforms act on (L+1)k-row
    arrays and not on the data's dim rows (module docstring). The trainer
    applies the same filter to the transformed data it holds
    (:func:`~gfred.spectral.reduce_response`); this function is given
    vertex-domain data, and transforming them would be its largest
    product. Data without one column per node of the graph raises
    DimensionMismatch before any product.
    """
    check_spectrum(model, spectrum)
    if ds.dim != model.dim:
        raise DimensionMismatch(f"data has dimension {ds.dim}, the model expects {model.dim}")
    xbar = per_node(ds.centered, spectrum)
    pows = eig_power_table(spectrum.eigvals, model.order)
    taps = igft(power_stack(model.coeffs, pows), spectrum) @ xbar.T
    return ReducedData(values=igft(power_sum(gft(taps @ xbar, spectrum), pows), spectrum))


def _centered_reconstruction(model: FilterModel, reduced: ReducedData, spectrum: GraphSpectrum):
    """Reconstruction in the model's centred coordinates, a fresh dim x n array."""
    check_spectrum(model, spectrum)
    if reduced.values.shape != (model.k, spectrum.n):
        raise DimensionMismatch(
            f"reduced data {reduced.values.shape} does not match k={model.k}, n={spectrum.n}"
        )
    pows = eig_power_table(spectrum.eigvals, model.order)
    return apply_response(model.recon_taps, pows, reduced.values, spectrum)


def reconstruct(model: FilterModel, reduced: ReducedData, spectrum: GraphSpectrum) -> np.ndarray:
    """Reconstruction in the original (uncentered) coordinates."""
    recon = _centered_reconstruction(model, reduced, spectrum)
    recon += model.mean[:, None]
    return recon


def reconstruction_mse(model: FilterModel, ds: CenteredDataset, spectrum: GraphSpectrum) -> float:
    """Mean squared vertex-domain error of encode followed by decode, taken
    by :meth:`~gfred.spectral.CenteredDataset.mse` on the centred
    reconstruction: the model's mean is never added, so an offset in the
    data costs no digits of the error."""
    return ds.mse(_centered_reconstruction(model, reduce(model, ds, spectrum), spectrum))


# --- model file format -----------------------------------------------------
#
# Layout: 4-byte magic "GFM1", a little-endian uint32 byte length, that many
# bytes of UTF-8 JSON (sorted keys), then the payload: float64 little-endian
# column-major arrays in the order and shapes of _payload_shapes: mean
# (dim), eigenvalues (n), eigenvectors (n x n), the reconstruction taps as
# the dim x (L+1)k bank [T_0 ... T_L] that FilterModel holds (column-major,
# the bytes of a dim x k x (L+1) array with tap l at [:, :, l]), the
# coefficient matrix (k x n), and the reduced data (k x n). Version 2 adds
# a seventh array, the training PCA basis (dim x k), inside the same
# checksum; a model with no basis is written, and read, as version 1. The
# header is _header: the version, dims, a CRC-32 of the payload, the
# reduced data's domain (always "vertex") and the three scalar counts of
# StorageBudget, which count the codec's scalars and not the baseline's
# basis. The loader rebuilds it from the file's own version, dims and
# payload and compares. The one checksum covers the filters and the
# eigenpairs of their graph together; the loaded model holds the spectrum
# read with it, so nothing else pairs them.

def _header(version: int, n: int, dim: int, k: int, order: int, checksum: int) -> dict:
    """The header of a model file of this version, dims and payload checksum."""
    budget = StorageBudget.from_dims(n, dim, k, order)
    return {
        "version": version, "n": n, "D": dim, "k": k, "L": order, "checksum": checksum,
        "domain": _DOMAIN, "stored_scalars": budget.stored_scalars,
        "raw_scalars": budget.raw_scalars, "pca_scalars": budget.pca_scalars,
    }


def _payload_shapes(version: int, n: int, dim: int, k: int, order: int):
    shapes = [(dim,), (n,), (n, n), (dim, (order + 1) * k), (k, n), (k, n)]
    return shapes + [(dim, k)] if version == 2 else shapes


def save_model(model: FilterModel, spectrum: GraphSpectrum, reduced: ReducedData, path):
    """Write a model, its spectrum, and reduced data to one binary file.

    The written bytes are a pure function of the arguments, and a
    save/load round trip is bit exact. The checksum is taken over, and the
    payload written from, column-major views of the arrays: no n x n
    temporary is made for the column-major eigenvectors of
    :func:`~gfred.graph.eigendecompose` or of a loaded model, and no
    joined copy of the payload for any array. A model with a
    ``pca_basis`` is written as version 2, one without as version 1.
    """
    check_spectrum(model, spectrum)
    arrays = [
        model.mean, spectrum.eigvals, spectrum.eigvecs, model.recon_taps, model.coeffs,
        reduced.values,
    ]
    version = 1 if model.pca_basis is None else 2
    if version == 2:
        arrays.append(model.pca_basis)
    shapes = _payload_shapes(version, spectrum.n, model.dim, model.k, model.order)
    if [a.shape for a in arrays] != shapes:
        raise DimensionMismatch(f"arrays of shapes {[a.shape for a in arrays]}, expected {shapes}")
    # the transpose of a column-major array is row-major: its buffer holds
    # the column-major bytes
    views = [np.asfortranarray(a, dtype="<f8").T for a in arrays]
    checksum = 0
    for view in views:
        checksum = zlib.crc32(view, checksum)
    header = _header(version, spectrum.n, model.dim, model.k, model.order, checksum)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for view in views:
            fh.write(view)


@dataclass(frozen=True, eq=False)
class ModelFile:
    model: FilterModel
    spectrum: GraphSpectrum
    reduced: ReducedData


def load_model(path) -> ModelFile:
    """Read a model file back, verifying its structure, that its header is
    the one :func:`_header` rebuilds from the file's own version, n, D, k,
    L and payload checksum (type for type; other keys are ignored), and
    that every payload value is finite.

    Arrays come back as read-only views of one aligned payload buffer, the
    training PCA basis among them (``pca_basis`` is ``None`` for a
    version-1 file), and the spectrum's adjacency is ``None``. The model
    holds that spectrum as the graph it was trained on: nothing is
    derived on load."""
    with open(path, "rb") as fh:
        prefix = fh.read(8)
        if len(prefix) < 8 or prefix[:4] != _MAGIC:
            raise CorruptFile(f"{path}: bad magic")
        (header_len,) = struct.unpack("<I", prefix[4:])
        header_bytes = fh.read(header_len)
        if len(header_bytes) < header_len:
            raise CorruptFile(f"{path}: truncated header")
        # a buffer of its own: at the header's offset float64 views are misaligned
        payload = np.fromfile(fh, dtype=np.uint8)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFile(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptFile(f"{path}: header is not a JSON object")
    # type() rather than ==: JSON true loads as bool, and True == 1
    version = header.get("version")
    if type(version) is not int or version not in _VERSIONS:
        raise VersionMismatch(f"{path}: unsupported version {version!r}")
    dims = {key: header.get(key) for key in ("n", "D", "k", "L")}
    n, dim, k, order = dims.values()
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass
    if any(type(v) is not int for v in dims.values()) or min(n, dim, k) < 1 or order < 0:
        raise CorruptFile(f"{path}: header needs integer n, D, k >= 1 and L >= 0, got {dims}")
    shapes = _payload_shapes(version, n, dim, k, order)
    sizes = [math.prod(shape) for shape in shapes]
    if payload.size != 8 * sum(sizes):
        raise CorruptFile(f"{path}: payload is {payload.size} bytes, expected {8 * sum(sizes)}")
    for key, want in _header(version, n, dim, k, order, zlib.crc32(payload)).items():
        if key not in header:
            raise CorruptFile(f"{path}: incomplete header: {key!r}")
        got = header[key]
        if type(got) is not type(want) or got != want:
            raise CorruptFile(
                f"{path}: header {key} is {got!r}, its dims and payload give {want!r}"
            )

    payload.flags.writeable = False
    values = payload.view("<f8")
    if not np.isfinite(values).all():
        raise CorruptFile(f"{path}: payload holds a value that is not finite")
    flat = np.split(values, np.cumsum(sizes)[:-1])
    mean, eigvals, eigvecs, taps, coeffs, reduced_values, *basis = (
        part.reshape(shape, order="F") for part, shape in zip(flat, shapes)
    )
    spectrum = GraphSpectrum(eigvals=eigvals, eigvecs=eigvecs)
    model = FilterModel(
        order=order,
        k=k,
        recon_taps=taps,
        coeffs=coeffs,
        mean=mean,
        spectrum=spectrum,
        pca_basis=basis[0] if basis else None,
    )
    return ModelFile(model=model, spectrum=spectrum, reduced=ReducedData(values=reduced_values))
