"""Command-line surface: synth, graph, score, sweep, estimate, verify, export.

Exit codes: 0 success, 1 input/validation error, 2 internal error.
Diagnostics go to stderr; data goes to files or stdout.  Every output
file gets a `<name>.manifest.json` sidecar recording the command, the
resolved flags, input digests, the tool version, and the wall-clock
duration.  The data files themselves stay byte-identical across runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import (
    BlobSpec,
    DatasetError,
    load_blob_spec,
    load_dataset,
    load_labels,
    generate_blobs,
    preset,
    save_dataset,
    PRESET_NAMES,
)
from .graphs import (
    GraphError,
    build_graph,
    build_tsne_graph,  # not called: the benchmark's tracer test reads it
    load_graph,
    save_graph,
)
from .knn import KnnError, usable_cores
from .metrics import (
    MetricConfig,
    MetricsError,
    report,
    sweep,
    write_sweep_csv,
    write_vertex_csv,
)
from .optimizer import OptimizerConfig, OptimizerError, estimate
from .oracle import OracleError, brute_force_report

ENV_OUT_DIR = "RELSCORE_OUT_DIR"


class UsageError(Exception):
    """Bad command line (unknown flag, missing value, invalid combination)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); map to exit 1 instead
        raise UsageError(message)


def _out_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get(ENV_OUT_DIR)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path: Path, doc) -> None:
    """Indented, key-sorted JSON plus a newline: the format of every JSON output."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(data_path: Path, command: str, args: argparse.Namespace,
                    inputs: list[Path], started: float) -> None:
    flags = {
        key: (str(value) if isinstance(value, Path) else value)
        for key, value in vars(args).items()
        if key != "handler"
    }
    manifest = {
        "command": command,
        "flags": flags,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "tool_version": __version__,
        "duration_s": time.monotonic() - started,
    }
    _write_json(Path(str(data_path) + ".manifest.json"), manifest)


def _positive_threads(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_common(parser: _Parser) -> None:
    parser.add_argument(
        "--threads",
        type=_positive_threads,
        default=usable_cores(),
        help="cap on the kNN worker threads; never changes a byte of any "
             "output (default: usable cores)",
    )


def _add_data_flags(parser: _Parser) -> None:
    parser.add_argument("--data", required=True, help="dataset CSV (header row)")
    parser.add_argument("--label-col", default="label",
                        help="name of the label column (default: label)")
    parser.add_argument("--labels", default=None,
                        help="optional external label CSV (columns id,label) "
                             "overriding the dataset's label column")


def _add_metric_flags(parser: _Parser) -> None:
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="recall blend in [0,1]: 1 counts every missing "
                             "same-label edge, 0 only vertices outside the "
                             "component (default: 1.0)")
    parser.add_argument("--beta", type=float, default=1.0,
                        help="precision/recall balance in the f-score "
                             "(default: 1.0)")


def _load_inputs(args) -> tuple:
    dataset, labels = load_dataset(args.data, args.label_col)
    used = [Path(args.data)]
    if getattr(args, "labels", None):
        labels = load_labels(args.labels, dataset.n)
        used.append(Path(args.labels))
    return dataset, labels, used


def _load_graph_inputs(args) -> tuple:
    """Graph, labels and input paths (graph first); vertex and row counts must agree."""
    dataset, labels, used = _load_inputs(args)
    graph = load_graph(args.graph)
    if graph.n_vertices != dataset.n:
        raise MetricsError(
            f"graph has {graph.n_vertices} vertices but dataset has "
            f"{dataset.n} rows"
        )
    return graph, labels, [Path(args.graph)] + used


def _parse_centers(raw: str) -> list[tuple[float, ...]]:
    centers = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            centers.append(tuple(float(x) for x in part.split(",")))
        except ValueError:
            raise UsageError(f"bad --centers entry {part!r}") from None
    if not centers:
        raise UsageError("--centers is empty")
    return centers


def _parse_per_cluster(raw: str, n_clusters: int, kind, flag: str) -> list:
    parts = [p for p in raw.split(",") if p.strip()]
    try:
        values = [kind(p) for p in parts]
    except ValueError:
        raise UsageError(f"bad {flag} value {raw!r}") from None
    if len(values) == 1:
        return values * n_clusters
    if len(values) != n_clusters:
        raise UsageError(
            f"{flag} needs 1 or {n_clusters} values, got {len(values)}"
        )
    return values


def _cmd_synth(args) -> int:
    started = time.monotonic()
    inputs: list[Path] = []
    if args.preset:
        if args.centers or args.spec:
            raise UsageError("--preset excludes --centers/--spec")
        seed = args.seed if args.seed is not None else 7
        dataset, labels = preset(args.preset, seed=seed)
    elif args.spec:
        if args.centers:
            raise UsageError("--spec excludes --centers")
        spec = load_blob_spec(args.spec)
        if args.seed is not None:
            spec = BlobSpec(clusters=spec.clusters, seed=args.seed)
        inputs.append(Path(args.spec))
        dataset, labels = generate_blobs(spec)
    elif args.centers:
        centers = _parse_centers(args.centers)
        stddevs = _parse_per_cluster(args.stddev, len(centers), float, "--stddev")
        counts = _parse_per_cluster(args.count, len(centers), int, "--count")
        seed = args.seed if args.seed is not None else 7
        spec = BlobSpec(
            clusters=tuple(zip(centers, stddevs, counts)),
            seed=seed,
        )
        dataset, labels = generate_blobs(spec)
    else:
        raise UsageError("one of --preset, --spec, --centers is required")
    out = _out_path(args.out)
    save_dataset(dataset, labels, out, label_column=args.label_col)
    _write_manifest(out, "synth", args, inputs, started)
    return 0


def _check_prune_eps(args) -> None:
    if args.method != "tsne" and args.prune_eps is not None:
        raise UsageError("--prune-eps applies to --method tsne only")


def _cmd_graph(args) -> int:
    started = time.monotonic()
    _check_prune_eps(args)
    dataset, _, inputs = _load_inputs(args)
    graph = _build_from_flags(args, dataset)
    out = _out_path(args.out)
    save_graph(graph, out)
    _write_manifest(out, "graph", args, inputs, started)
    return 0


def _build_from_flags(args, dataset):
    if args.method == "tsne":
        if args.perplexity is None:
            raise UsageError("--method tsne requires --perplexity")
        if args.n_neighbors is not None:
            raise UsageError("--n-neighbors applies to --method umap only")
    else:
        if args.n_neighbors is None:
            raise UsageError("--method umap requires --n-neighbors")
        if args.perplexity is not None:
            raise UsageError("--perplexity applies to --method tsne only")
    k = args.perplexity if args.method == "tsne" else args.n_neighbors
    return build_graph(args.method, dataset, k, args.prune_eps, threads=args.threads)


def _cmd_score(args) -> int:
    started = time.monotonic()
    graph, labels, inputs = _load_graph_inputs(args)
    config = MetricConfig(
        alpha=args.alpha, beta=args.beta,
        quadrant_threshold=args.quadrant_threshold,
    )
    rep = report(graph, labels, config)
    out = _out_path(args.out)
    _write_json(out, rep.to_dict())
    _write_manifest(out, "score", args, inputs, started)
    if args.per_vertex:
        pv = _out_path(args.per_vertex)
        write_vertex_csv(rep, pv)
        _write_manifest(pv, "score", args, inputs, started)
    return 0


def _parse_k_values(args) -> list:
    if args.k_list is not None:
        if args.k_min is not None or args.k_max is not None:
            raise UsageError("--k-list excludes --k-min/--k-max")
        values = []
        for part in args.k_list.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                values.append(int(part))
            except ValueError:
                raise UsageError(f"bad --k-list entry {part!r}") from None
        return values
    if args.k_min is None or args.k_max is None:
        raise UsageError("either --k-list or both --k-min and --k-max are required")
    if args.k_step < 1:
        raise UsageError(f"--k-step must be positive, got {args.k_step}")
    return list(range(args.k_min, args.k_max + 1, args.k_step))


def _cmd_sweep(args) -> int:
    started = time.monotonic()
    _check_prune_eps(args)
    dataset, labels, inputs = _load_inputs(args)
    k_values = _parse_k_values(args)
    config = MetricConfig(alpha=args.alpha, beta=args.beta)
    result = sweep(dataset, labels, args.method, k_values, config,
                   prune_eps=args.prune_eps, threads=args.threads)
    for row in result.rows:
        if row.error is not None:
            print(f"sweep: k={row.k}: {row.error}", file=sys.stderr)
    out = _out_path(args.out)
    if out.suffix.lower() == ".json":
        _write_json(out, result.to_dict())
    else:
        write_sweep_csv(result, out)
    _write_manifest(out, "sweep", args, inputs, started)
    return 0


def _cmd_estimate(args) -> int:
    started = time.monotonic()
    _check_prune_eps(args)
    dataset, labels, inputs = _load_inputs(args)
    config = OptimizerConfig(
        k_min=args.k_min,
        k_max=args.k_max,
        n_init=args.n_init,
        budget=args.budget,
        seed=args.seed,
        target=args.target,
        metric=MetricConfig(alpha=args.alpha, beta=args.beta),
    )
    best_k, trace = estimate(dataset, labels, args.method, config,
                             prune_eps=args.prune_eps, threads=args.threads)
    if args.trace:
        out = _out_path(args.trace)
        _write_json(out, trace.to_dict())
        _write_manifest(out, "estimate", args, inputs, started)
    print(json.dumps(
        {"k": best_k, "fscore": trace.best_fscore, "trials": len(trace.trials)},
        sort_keys=True,
    ))
    return 0


def _cmd_verify(args) -> int:
    graph, labels, _ = _load_graph_inputs(args)
    config = MetricConfig(alpha=args.alpha, beta=args.beta)
    fast = report(graph, labels, config)
    slow = brute_force_report(graph, labels, args.alpha, args.beta)
    deviations = {
        "vertex_precision": float(np.max(np.abs(
            fast.vertex_precision - slow.vertex_precision))),
        "vertex_recall": float(np.max(np.abs(
            fast.vertex_recall - slow.vertex_recall))),
        "vertex_fscore": float(np.max(np.abs(
            fast.vertex_fscore - slow.vertex_fscore))),
        "global_precision": abs(fast.global_precision - slow.global_precision),
        "global_recall": abs(fast.global_recall - slow.global_recall),
        "global_fscore": abs(fast.global_fscore - slow.global_fscore),
    }
    worst = max(deviations.values())
    print(json.dumps(
        {"max_abs_deviation": worst, "deviations": deviations,
         "tolerance": args.tolerance, "ok": worst <= args.tolerance},
        sort_keys=True,
    ))
    return 0 if worst <= args.tolerance else 1


def _cmd_export(args) -> int:
    started = time.monotonic()
    graph, labels, inputs = _load_graph_inputs(args)
    config = MetricConfig(alpha=args.alpha, beta=args.beta)
    rep = report(graph, labels, config)
    out = _out_path(args.out)
    write_vertex_csv(rep, out)
    _write_manifest(out, "export", args, inputs, started)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="relscore",
        description="Score how well t-SNE/UMAP neighborhood graphs can ever "
                    "show an expected cluster structure, without running the "
                    "layout.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a seeded synthetic blob dataset")
    p.add_argument("--preset", choices=PRESET_NAMES, default=None,
                   help="built-in dataset (three-blobs or split-labels)")
    p.add_argument("--spec", default=None, help="blob spec JSON file")
    p.add_argument("--centers", default=None,
                   help="semicolon-separated cluster centers, e.g. '0,0;20,0'")
    p.add_argument("--stddev", default="1",
                   help="stddev per cluster, single value or comma list "
                        "(default: 1)")
    p.add_argument("--count", default="50",
                   help="points per cluster, single value or comma list "
                        "(default: 50)")
    p.add_argument("--seed", type=int, default=None,
                   help="PRNG seed (default: 7, or the spec file's seed)")
    p.add_argument("--label-col", default="label",
                   help="label column name in the output (default: label)")
    p.add_argument("--out", required=True, help="output dataset CSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("graph", help="build a t-SNE or UMAP relationship graph")
    _add_data_flags(p)
    p.add_argument("--method", required=True, choices=("tsne", "umap"))
    p.add_argument("--perplexity", type=float, default=None,
                   help="t-SNE effective neighborhood size (>= 2)")
    p.add_argument("--n-neighbors", type=int, default=None,
                   help="UMAP neighborhood size (>= 2)")
    p.add_argument("--prune-eps", type=float, default=None,
                   help="drop t-SNE weights at or below this (default: 1e-8/N)")
    p.add_argument("--out", required=True, help="output graph JSON")
    _add_common(p)
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("score", help="score a graph against labels")
    p.add_argument("--graph", required=True, help="graph JSON file")
    _add_data_flags(p)
    _add_metric_flags(p)
    p.add_argument("--quadrant-threshold", type=float, default=0.5,
                   help="low/high split for the interpretation quadrants "
                        "(default: 0.5)")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--per-vertex", default=None,
                   help="also write per-vertex scores to this CSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("sweep", help="score a range of neighborhood sizes")
    _add_data_flags(p)
    p.add_argument("--method", required=True, choices=("tsne", "umap"))
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--k-step", type=int, default=1,
                   help="stride between k values (default: 1)")
    p.add_argument("--k-list", default=None,
                   help="explicit comma-separated k values (excludes --k-min/max)")
    _add_metric_flags(p)
    p.add_argument("--prune-eps", type=float, default=None,
                   help="t-SNE pruning threshold (default: 1e-8/N)")
    p.add_argument("--out", required=True,
                   help="output table; .json for JSON, anything else CSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("estimate",
                       help="Bayesian search for the best neighborhood size")
    _add_data_flags(p)
    p.add_argument("--method", required=True, choices=("tsne", "umap"))
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--budget", type=int, default=25,
                   help="total objective evaluations (default: 25)")
    p.add_argument("--n-init", type=int, default=5,
                   help="initial design size including both bounds (default: 5)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the initial design (default: 0)")
    _add_metric_flags(p)
    p.add_argument("--target", default="global",
                   help="'global' or 'label:NAME' (default: global)")
    p.add_argument("--prune-eps", type=float, default=None,
                   help="t-SNE pruning threshold (default: 1e-8/N)")
    p.add_argument("--trace", default=None,
                   help="write the full trial trace to this JSON file")
    _add_common(p)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("verify",
                       help="cross-check metrics against the brute-force oracle")
    p.add_argument("--graph", required=True, help="graph JSON file")
    _add_data_flags(p)
    _add_metric_flags(p)
    p.add_argument("--tolerance", type=float, default=1e-12,
                   help="max allowed absolute deviation (default: 1e-12)")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("export", help="write per-vertex scores to CSV")
    p.add_argument("--graph", required=True, help="graph JSON file")
    _add_data_flags(p)
    _add_metric_flags(p)
    p.add_argument("--out", required=True, help="output per-vertex CSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return int(code) if code else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, GraphError, KnnError, MetricsError, OptimizerError,
            OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
