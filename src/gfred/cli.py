"""Command-line front end.

Exit codes: 0 on success; 2 for configuration problems, argparse usage
errors included, and for a data file whose shape does not fit the model;
3 for data that is unreadable, malformed or unrepresentable (a sum of
squares that overflows a double, a model file with a non-finite value or
an eigenvalue whose filter-order power passes 1e150), and for data on
which an eigensolver, SVD or the fit's starting solve fails.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import codec, harness
from .errors import DataError
from .graph import GraphSpectrum, build_graph, connected_components
from .optimizer import MAX_ITERS, fit
from .pca import pca_fit, pca_mse
from .spectral import center


def _add_key_flags(parser: argparse.ArgumentParser, keys):
    """A ``--key-name`` flag per config key. Values stay strings, so the
    key table in :mod:`gfred.harness` parses flags and config files alike."""
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=key)


def _set_keys(args, keys) -> dict:
    """The config keys among ``keys`` whose flags were given."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _add_data_flags(parser: argparse.ArgumentParser, **format_kwargs):
    """``--data``, and ``--format`` with the values of :class:`~gfred.harness.DataFormat`."""
    parser.add_argument("--data", required=True)
    parser.add_argument("--format", choices=[f.value for f in harness.DataFormat], **format_kwargs)


def _similarity(args):
    """The similarity that the key flags set."""
    return harness.similarity_from_mapping(_set_keys(args, harness.SIMILARITY_KEYS))


def _model_and_data(args):
    """The ``--model`` file, then the ``--data`` matrix centred on its own mean."""
    return codec.load_model(args.model), center(harness.load_matrix(args.data, args.format))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gfred", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="build a similarity graph and print its spectrum")
    _add_data_flags(p_graph, default="csv")
    _add_key_flags(p_graph, harness.SIMILARITY_KEYS)

    p_fit = sub.add_parser("fit", help="train a filter pair on a whole dataset")
    _add_data_flags(p_fit, required=True)
    p_fit.add_argument("--k", type=int, required=True)
    p_fit.add_argument("--l", type=int, required=True)
    p_fit.add_argument("--model-out", required=True)
    p_fit.add_argument("--epsilon", type=float, default=None)
    p_fit.add_argument("--max-iters", type=int, default=MAX_ITERS)
    _add_key_flags(p_fit, harness.SIMILARITY_KEYS)

    p_enc = sub.add_parser("encode", help="reduce a dataset with a trained model")
    p_enc.add_argument("--model", required=True)
    _add_data_flags(p_enc, required=True)
    p_enc.add_argument("--out", required=True)

    p_dec = sub.add_parser("decode", help="reconstruct from a model file's reduced data")
    p_dec.add_argument("--model", required=True)
    p_dec.add_argument("--out", required=True)

    p_eval = sub.add_parser(
        "eval",
        help="report reconstruction MSE of a model on a dataset",
        description=(
            "Print the model's reconstruction MSE on the data and the PCA baseline's: the "
            "data, centred on their own mean, projected on the training PCA basis the model "
            "file stores (pca_basis: training; out of sample on data other than the training "
            "set). A version-1 model file stores no basis, and its baseline is fitted on the "
            "data themselves (pca_basis: in-sample)."
        ),
    )
    p_eval.add_argument("--model", required=True)
    _add_data_flags(p_eval, required=True)

    p_sweep = sub.add_parser("sweep", help="run a (trial, k, L) grid from a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out-csv", required=True)
    _add_key_flags(p_sweep, harness.CONFIG_KEYS)

    p_bound = sub.add_parser("bound", help="largest k that still compresses")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--d", type=int, required=True)
    p_bound.add_argument("--l", type=int, required=True)
    return parser


def _cmd_graph(args) -> int:
    # the data, loaded before the flags are parsed, is bound to no name here,
    # so build_graph can free it once the similarity matrix is built
    spectrum = build_graph(harness.load_matrix(args.data, args.format), _similarity(args))
    edges = int(np.count_nonzero(spectrum.adjacency)) // 2
    print(f"nodes: {spectrum.n}")
    print(f"edges: {edges}")
    print(f"components: {len(connected_components(spectrum.adjacency))}")
    print(f"eigenvalue range: [{float(spectrum.eigvals[-1])!r}, {float(spectrum.eigvals[0])!r}]")
    return 0


def _cmd_fit(args) -> int:
    X = harness.load_matrix(args.data, args.format)
    similarity = _similarity(args)
    ds = center(X)
    spectrum = build_graph(X, similarity)
    # the fit reads the centred data and the eigenpairs only: drop the raw
    # matrix and the adjacency before the n x n training kernel is built
    del X
    spectrum = GraphSpectrum(eigvals=spectrum.eigvals, eigvecs=spectrum.eigvecs)
    pca = pca_fit(ds, args.k)  # the fit's seed and the printed baseline
    result = fit(
        ds, spectrum, args.k, args.l, epsilon=args.epsilon, max_iters=args.max_iters, start=pca
    )
    reduced = codec.reduce(result.model, ds, spectrum)
    codec.save_model(result.model, spectrum, reduced, args.model_out)
    baseline = pca_mse(ds, pca)
    print(f"iterations: {result.iterations}")
    print(f"converged: {result.converged}")
    print(f"final_mse: {float(result.objective_trace[-1])!r}")
    print(f"pca_mse: {float(baseline)!r}")
    print(f"model: {args.model_out}")
    return 0


def _cmd_encode(args) -> int:
    bundle, ds = _model_and_data(args)
    reduced = codec.reduce(bundle.model, ds, bundle.spectrum)
    harness.save_csv_matrix(reduced.values, args.out)
    print(f"reduced: {reduced.values.shape[0]} x {reduced.values.shape[1]} -> {args.out}")
    return 0


def _cmd_decode(args) -> int:
    bundle = codec.load_model(args.model)
    recon = codec.reconstruct(bundle.model, bundle.reduced, bundle.spectrum)
    harness.save_csv_matrix(recon, args.out)
    print(f"reconstruction: {recon.shape[0]} x {recon.shape[1]} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    bundle, ds = _model_and_data(args)
    mse = codec.reconstruction_mse(bundle.model, ds, bundle.spectrum)
    # the baseline reads k and the kD training basis only: copy the basis
    # out of the payload buffer, then drop the model before the baseline runs
    k, basis = bundle.model.k, bundle.model.pca_basis
    basis = None if basis is None else basis.copy(order="K")
    del bundle
    if basis is None:
        # a version-1 file stores no basis: fit one on the eval data itself
        baseline, source = pca_mse(ds, pca_fit(ds, k)), "in-sample"
    else:
        baseline, source = pca_mse(ds, basis), "training"
    print(f"reconstruction_mse: {float(mse)!r}")
    print(f"pca_mse: {float(baseline)!r}")
    print(f"pca_basis: {source}")
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        mapping = harness.parse_config_text(fh.read())
    mapping.update(_set_keys(args, harness.CONFIG_KEYS))  # a set flag wins over its file key
    cfg = harness.config_from_mapping(mapping)
    report = harness.run_sweep(cfg)
    harness.emit_csv(report, args.out_csv)
    print(f"rows: {len(report.rows)} -> {args.out_csv}")
    for failure in report.failures:
        print(
            f"failed cell trial={failure.trial} k={failure.k} L={failure.L}: "
            f"{failure.message}",
            file=sys.stderr,
        )
    return 0


def _cmd_bound(args) -> int:
    bound = codec.compression_bound(args.n, args.d, args.l)
    budget = codec.StorageBudget.from_dims(args.n, args.d, max(bound, 1), args.l)
    print(f"bound: {bound}")
    print(f"stored_scalars(k={max(bound, 1)}): {budget.stored_scalars}")
    print(f"raw_scalars: {budget.raw_scalars}")
    print(f"compresses: {'yes' if bound >= 1 else 'no'}")
    return 0


_COMMANDS = {
    "graph": _cmd_graph,
    "fit": _cmd_fit,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "bound": _cmd_bound,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        # covers ConfigError plus the shape/value guards raised on bad flags
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
