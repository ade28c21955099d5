"""Encoding, decoding, storage accounting, and the model file format.

The fast paths work per frequency in the spectral domain. The literal
vertex-domain filter banks they are checked against (dense Kronecker
products of adjacency powers and per-node taps) live with the tests in
``tests/oracles.py``.
"""
from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CorruptFile,
    DimensionMismatch,
    FingerprintMismatch,
    VersionMismatch,
)
from .graph import GraphSpectrum
from .optimizer import FilterModel
from .spectral import (
    CenteredDataset,
    SpectralCache,
    apply_response,
    build_cache,
    eig_power_table,
    gft,
    igft,
)

_MAGIC = b"GFM1"
_VERSION = 1


class Domain(Enum):
    VERTEX = "vertex"
    SPECTRAL = "spectral"


@dataclass(frozen=True)
class ReducedData:
    """k-dimensional per-node vectors, tagged with their current domain."""

    values: np.ndarray  # (k, n)
    domain: Domain


@dataclass(frozen=True)
class StorageBudget:
    """Scalar counts for one stored model versus raw data and plain PCA."""

    n: int
    dim: int
    k: int
    order: int
    stored_scalars: int
    raw_scalars: int
    pca_scalars: int

    @classmethod
    def from_dims(cls, n: int, dim: int, k: int, order: int) -> "StorageBudget":
        if min(n, dim, k) < 1 or order < 0:
            raise ValueError(f"invalid dims n={n}, dim={dim}, k={k}, order={order}")
        stored = k * (order + 1) * dim + 2 * k * n + n * (n + 1) // 2
        return cls(
            n=n,
            dim=dim,
            k=k,
            order=order,
            stored_scalars=stored,
            raw_scalars=n * dim,
            pca_scalars=k * dim + k * n,
        )


def compression_bound(n: int, dim: int, order: int) -> int:
    """Largest k whose stored scalar count is strictly below the raw data's.

    Equals floor(n * (dim - (n+1)/2) / (2n + (order+1) * dim)) except at
    exact integer crossings, where the strict inequality drops the bound by
    one. Returns 0 when no k >= 1 compresses.
    """
    if n < 1 or dim < 1 or order < 0:
        raise ValueError(f"invalid dims n={n}, dim={dim}, order={order}")
    # stored(k) < raw  <=>  k * (2n + (order+1) dim) < n dim - n(n+1)/2, integer arithmetic
    per_k = 2 * n + (order + 1) * dim
    headroom = 2 * n * dim - n * (n + 1)  # twice the right-hand side, keeps everything integral
    bound = headroom // (2 * per_k)
    if bound * 2 * per_k == headroom:
        bound -= 1
    return max(bound, 0)


def _check_fingerprint(model: FilterModel, spectrum: GraphSpectrum):
    if model.spectrum_fingerprint != spectrum.fingerprint():
        raise FingerprintMismatch("model was trained on a different graph spectrum")


def _check_cache(model: FilterModel, cache: SpectralCache):
    if cache.order != model.order:
        raise DimensionMismatch(f"cache order {cache.order} != model order {model.order}")
    if cache.fingerprint != model.spectrum_fingerprint:
        raise FingerprintMismatch("cache was built for a different spectrum")


def _cache_for(model: FilterModel, ds: CenteredDataset, spectrum, cache):
    if cache is None:
        return build_cache(ds.centered, spectrum, model.order)
    _check_cache(model, cache)
    return cache


def reduce(
    model: FilterModel,
    ds: CenteredDataset,
    spectrum: GraphSpectrum,
    cache: SpectralCache | None = None,
) -> ReducedData:
    """Reduced vertex-domain vectors for every node of the training graph."""
    _check_fingerprint(model, spectrum)
    cache = _cache_for(model, ds, spectrum, cache)
    reduced_spec = model.coeffs @ cache.kernel
    return ReducedData(values=igft(reduced_spec, spectrum), domain=Domain.VERTEX)


def reconstruct(
    model: FilterModel,
    reduced: ReducedData,
    spectrum: GraphSpectrum,
    cache: SpectralCache | None = None,
) -> np.ndarray:
    """Reconstruction in the original (uncentered) coordinates."""
    _check_fingerprint(model, spectrum)
    if reduced.values.shape != (model.k, spectrum.n):
        raise DimensionMismatch(
            f"reduced data {reduced.values.shape} does not match k={model.k}, n={spectrum.n}"
        )
    if reduced.domain is Domain.VERTEX:
        reduced_spec = gft(reduced.values, spectrum)
    else:
        reduced_spec = reduced.values
    if cache is not None:
        _check_cache(model, cache)
        pows = cache.eig_pows
    else:
        pows = eig_power_table(spectrum.eigvals, model.order)
    recon_spec = apply_response(model.recon_taps, pows, reduced_spec)
    return igft(recon_spec, spectrum) + model.mean[:, None]


def convert_domain(reduced: ReducedData, domain: Domain, spectrum: GraphSpectrum) -> ReducedData:
    if reduced.domain is domain:
        return reduced
    if domain is Domain.SPECTRAL:
        return ReducedData(values=gft(reduced.values, spectrum), domain=domain)
    return ReducedData(values=igft(reduced.values, spectrum), domain=domain)


def reconstruction_mse(
    model: FilterModel,
    ds: CenteredDataset,
    spectrum: GraphSpectrum,
    cache: SpectralCache | None = None,
) -> float:
    """Mean squared vertex-domain error of encode followed by decode."""
    cache = _cache_for(model, ds, spectrum, cache)
    reduced = reduce(model, ds, spectrum, cache)
    recon = reconstruct(model, reduced, spectrum, cache) - model.mean[:, None]
    resid = ds.centered - recon
    return float(np.sum(resid * resid)) / ds.n


def reducing_taps(model: FilterModel, cache: SpectralCache) -> np.ndarray:
    """Materialize the k x dim reducing taps implied by the coefficients.

    Order-l tap: ``coeffs @ diag(lam^l) @ gft_data'``. Only needed by the
    vertex-domain oracle; the fast paths never form these.
    """
    if cache.order != model.order or cache.fingerprint != model.spectrum_fingerprint:
        raise DimensionMismatch("cache does not match the model")
    out = np.empty((model.order + 1, model.k, model.dim))
    for ell in range(model.order + 1):
        out[ell] = model.coeffs @ (cache.eig_pows[:, ell][:, None] * cache.gft_data.T)
    return out


# --- model file format -----------------------------------------------------
#
# Layout: 4-byte magic "GFM1", a little-endian uint32 byte length, that many
# bytes of UTF-8 JSON (sorted keys), then the payload: float64 little-endian
# column-major arrays in a fixed sequence: mean (dim), eigenvalues (n),
# eigenvectors (n x n), each reconstruction tap (dim x k, orders 0..L), the
# coefficient matrix (k x n), and the reduced data (k x n). The header
# records dims, a CRC-32 of the payload, the reduced data's domain, and the
# stored-scalar accounting, which the loader recomputes and verifies.


def _payload_arrays(model: FilterModel, spectrum: GraphSpectrum, reduced: ReducedData):
    arrays = [model.mean, spectrum.eigvals, spectrum.eigvecs]
    arrays.extend(model.recon_taps[ell] for ell in range(model.order + 1))
    arrays.append(model.coeffs)
    arrays.append(reduced.values)
    return arrays


def save_model(model: FilterModel, spectrum: GraphSpectrum, reduced: ReducedData, path):
    """Write a model, its spectrum, and reduced data to one binary file.

    The written bytes are a pure function of the arguments, and a
    save/load round trip is bit exact.
    """
    _check_fingerprint(model, spectrum)
    if reduced.values.shape != (model.k, spectrum.n):
        raise DimensionMismatch(
            f"reduced data {reduced.values.shape} does not match k={model.k}, n={spectrum.n}"
        )
    payload = b"".join(
        np.asarray(a, dtype="<f8").tobytes(order="F") for a in _payload_arrays(model, spectrum, reduced)
    )
    budget = StorageBudget.from_dims(spectrum.n, model.dim, model.k, model.order)
    header = {
        "version": _VERSION,
        "n": spectrum.n,
        "D": model.dim,
        "k": model.k,
        "L": model.order,
        "checksum": zlib.crc32(payload),
        "domain": reduced.domain.value,
        "stored_scalars": budget.stored_scalars,
        "raw_scalars": budget.raw_scalars,
        "pca_scalars": budget.pca_scalars,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


@dataclass(frozen=True)
class ModelFile:
    model: FilterModel
    spectrum: GraphSpectrum
    reduced: ReducedData


def load_model(path) -> ModelFile:
    """Read a model file back, verifying structure, checksum, and budget."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise CorruptFile(f"{path}: bad magic")
    (header_len,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + header_len:
        raise CorruptFile(f"{path}: truncated header")
    try:
        header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFile(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptFile(f"{path}: header is not a JSON object")
    # type() rather than ==: JSON true loads as bool, and True == 1
    version = header.get("version")
    if type(version) is not int or version != _VERSION:
        raise VersionMismatch(f"{path}: unsupported version {version!r}")
    try:
        n, dim, k, order = header["n"], header["D"], header["k"], header["L"]
        checksum = header["checksum"]
        domain = Domain(header["domain"])
        stored_scalars = header["stored_scalars"]
    except (KeyError, ValueError) as exc:
        raise CorruptFile(f"{path}: incomplete header: {exc}") from exc
    fields = {"n": n, "D": dim, "k": k, "L": order, "checksum": checksum}
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass
    if any(type(v) is not int for v in fields.values()) or min(n, dim, k) < 1 or order < 0:
        raise CorruptFile(
            f"{path}: header needs integer n, D, k >= 1, L >= 0 and checksum, got {fields}"
        )
    budget = StorageBudget.from_dims(n, dim, k, order)
    if stored_scalars != budget.stored_scalars:
        raise CorruptFile(
            f"{path}: stored_scalars {stored_scalars} != recomputed {budget.stored_scalars}"
        )
    counts = [dim, n, n * n] + [dim * k] * (order + 1) + [k * n, k * n]
    payload = blob[8 + header_len :]
    if len(payload) != 8 * sum(counts):
        raise CorruptFile(f"{path}: payload is {len(payload)} bytes, expected {8 * sum(counts)}")
    if zlib.crc32(payload) != checksum:
        raise CorruptFile(f"{path}: checksum mismatch")

    shapes = [(dim,), (n,), (n, n)] + [(dim, k)] * (order + 1) + [(k, n), (k, n)]
    arrays = []
    offset = 0
    for shape, count in zip(shapes, counts):
        flat = np.frombuffer(payload, dtype="<f8", count=count, offset=8 * offset)
        arrays.append(flat.reshape(shape, order="F").astype(np.float64))
        offset += count
    mean, eigvals, eigvecs = arrays[0], arrays[1], arrays[2]
    taps = np.stack(arrays[3 : 3 + order + 1])
    coeffs, reduced_values = arrays[3 + order + 1], arrays[4 + order + 1]

    adjacency = eigvecs @ (eigvals[:, None] * eigvecs.T)
    adjacency = 0.5 * (adjacency + adjacency.T)  # derived from eigenpairs, kept exactly symmetric
    spectrum = GraphSpectrum(n=n, adjacency=adjacency, eigvals=eigvals, eigvecs=eigvecs)
    model = FilterModel(
        order=order,
        k=k,
        recon_taps=taps,
        coeffs=coeffs,
        mean=mean,
        spectrum_fingerprint=spectrum.fingerprint(),
    )
    return ModelFile(model=model, spectrum=spectrum,
                     reduced=ReducedData(values=reduced_values, domain=domain))
