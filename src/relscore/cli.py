"""Command-line surface: synth, graph, score, sweep, estimate, verify, export.

Exit codes: 0 success, 1 input/validation error, 2 internal error.
Diagnostics go to stderr; data goes to files or stdout.  `_FILE_FLAGS`
names the files each command reads and writes; after a command succeeds,
`main` gives every output file a `<name>.manifest.json` sidecar recording
the command, the resolved flags, input digests, the tool version, and
the wall-clock duration.  The data files themselves stay byte-identical
across runs.
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
    _BUILD_METHODS,
    _checked_prune_eps,
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


def _digests(inputs: list[Path]) -> dict[str, str]:
    """SHA-256 of each input that is a file, taken before the command runs.

    A missing input is left to its loader, which names it.
    """
    return {str(p): _sha256(p) for p in inputs if p.is_file()}


def _write_manifest(args: argparse.Namespace, digests: dict[str, str], started: float,
                    *outputs: Path) -> None:
    """One sidecar per output, with the input digests from `_digests`."""
    flags = {
        key: (str(value) if isinstance(value, Path) else value)
        for key, value in vars(args).items()
        if key != "handler"
    }
    manifest = {
        "command": args.command,
        "flags": flags,
        "inputs": digests,
        "tool_version": __version__,
        "duration_s": time.monotonic() - started,
    }
    for out in outputs:
        _write_json(Path(str(out) + ".manifest.json"), manifest)


def _positive_threads(raw: str) -> int:
    """--threads as an int, refused in the words of `knn.check_threads`."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


# per command: the flags naming files it reads, then those naming files it
# writes; `main` hashes the first and gives each of the second a sidecar
_FILE_FLAGS = {
    "synth": (("spec",), ("out",)),
    "graph": (("data", "labels"), ("out",)),
    "score": (("graph", "data", "labels"), ("out", "per_vertex")),
    "sweep": (("data", "labels"), ("out",)),
    "estimate": (("data", "labels"), ("trace",)),
    "verify": (("graph", "data", "labels"), ()),
    "export": (("graph", "data", "labels"), ("out",)),
}


def _same_file(a: Path, b: Path) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return a.resolve() == b.resolve()


def _files(args) -> tuple[list[Path], list[Path]]:
    """The given read flags' paths and write flags' paths, in `_FILE_FLAGS` order.

    Refuses an output (or its manifest) that names an input or an earlier
    output.  Runs before the command touches any file, so nothing is
    overwritten.
    """
    reads, writes = _FILE_FLAGS[args.command]
    named = [(f"--{flag.replace('_', '-')}", Path(getattr(args, flag)))
             for flag in reads if getattr(args, flag)]
    inputs = [path for _, path in named]
    outputs = []
    for flag in writes:
        if getattr(args, flag):
            option = f"--{flag.replace('_', '-')}"
            out = _out_path(getattr(args, flag))
            outputs.append(out)
            for name, path in ((option, out),
                               (f"the manifest of {option}", Path(f"{out}.manifest.json"))):
                for other, earlier in named:
                    if _same_file(path, earlier):
                        raise UsageError(f"{name} names the same file as {other}: {path}")
                named.append((name, path))
    return inputs, outputs


def _add_common(parser: _Parser) -> None:
    parser.add_argument(
        "--threads",
        type=_positive_threads,
        default=usable_cores(),
        help="cap on the worker threads of the kNN pass and of bandwidth "
             "calibration; never changes a byte of any output (default: "
             "usable cores)",
    )


def _add_data_flags(parser: _Parser) -> None:
    parser.add_argument("--data", required=True, help="dataset CSV (header row)")
    parser.add_argument("--label-col", default="label",
                        help="name of the label column (default: label)")
    parser.add_argument("--labels", default=None,
                        help="optional external label CSV (columns id,label) "
                             "overriding the dataset's label column")


def _add_method_flags(parser: _Parser) -> None:
    parser.add_argument("--method", required=True, choices=_BUILD_METHODS)
    parser.add_argument("--prune-eps", type=float, default=None,
                        help="drop t-SNE weights at or below this (default: 1e-8/N)")


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
    if args.labels:
        labels = load_labels(args.labels, dataset.n)
    return dataset, labels


def _load_graph_inputs(args) -> tuple:
    """Graph and labels; vertex and row counts must agree."""
    dataset, labels = _load_inputs(args)
    graph = load_graph(args.graph)
    if graph.n_vertices != dataset.n:
        raise MetricsError(
            f"graph has {graph.n_vertices} vertices but dataset has "
            f"{dataset.n} rows"
        )
    return graph, labels


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
    save_dataset(dataset, labels, _out_path(args.out), label_column=args.label_col)
    return 0


def _check_prune_eps(args) -> None:
    if args.method != "tsne" and args.prune_eps is not None:
        raise UsageError("--prune-eps applies to --method tsne only")
    if args.prune_eps is not None:
        _checked_prune_eps(args.prune_eps, UsageError)


def _cmd_graph(args) -> int:
    _check_prune_eps(args)
    dataset, _ = _load_inputs(args)
    graph = _build_from_flags(args, dataset)
    save_graph(graph, _out_path(args.out))
    _warn_non_converged("graph: ", graph.provenance.options["non_converged"],
                        graph.n_vertices)
    return 0


def _warn_non_converged(where: str, stuck: int, n: int) -> None:
    if stuck:
        print(f"{where}bandwidth calibration did not converge for {stuck} of {n} "
              "vertices", file=sys.stderr)


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
    graph, labels = _load_graph_inputs(args)
    config = MetricConfig(
        alpha=args.alpha, beta=args.beta,
        quadrant_threshold=args.quadrant_threshold,
    )
    rep = report(graph, labels, config)
    _write_json(_out_path(args.out), rep.to_dict())
    if args.per_vertex:
        write_vertex_csv(rep, _out_path(args.per_vertex))
    return 0


def _parse_k_values(args) -> list:
    if args.k_list is not None:
        if args.k_min is not None or args.k_max is not None:
            raise UsageError("--k-list excludes --k-min/--k-max")
        if args.k_step is not None:
            raise UsageError("--k-list excludes --k-step")
        values = []
        for part in args.k_list.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                values.append(int(part))
            except ValueError:
                raise UsageError(f"bad --k-list entry {part!r}") from None
        if not values:
            raise UsageError("--k-list is empty")
        return values
    if args.k_min is None or args.k_max is None:
        raise UsageError("either --k-list or both --k-min and --k-max are required")
    step = 1 if args.k_step is None else args.k_step
    if step < 1:
        raise UsageError(f"--k-step must be positive, got {step}")
    if args.k_min > args.k_max:
        raise UsageError(f"--k-min {args.k_min} to --k-max {args.k_max} is empty")
    return list(range(args.k_min, args.k_max + 1, step))


def _cmd_sweep(args) -> int:
    _check_prune_eps(args)
    k_values = _parse_k_values(args)
    dataset, labels = _load_inputs(args)
    config = MetricConfig(alpha=args.alpha, beta=args.beta)
    result = sweep(dataset, labels, args.method, k_values, config,
                   prune_eps=args.prune_eps, threads=args.threads)
    for row in result.rows:
        if row.error is not None:
            print(f"sweep: k={row.k}: {row.error}", file=sys.stderr)
        _warn_non_converged(f"sweep: k={row.k}: ", row.non_converged, dataset.n)
    if all(row.error is not None for row in result.rows):
        raise MetricsError("no k in the sweep could be scored")
    out = _out_path(args.out)
    if out.suffix.lower() == ".json":
        _write_json(out, result.to_dict())
    else:
        write_sweep_csv(result, out)
    return 0


def _cmd_estimate(args) -> int:
    _check_prune_eps(args)
    dataset, labels = _load_inputs(args)
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
    for trial in trace.trials:
        _warn_non_converged(f"estimate: k={trial.k}: ", trial.non_converged, dataset.n)
    if args.trace:
        _write_json(_out_path(args.trace), trace.to_dict())
    print(json.dumps(
        {"k": best_k, "fscore": trace.best_fscore, "trials": len(trace.trials)},
        sort_keys=True,
    ))
    return 0


def _cmd_verify(args) -> int:
    if not (np.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise UsageError(f"--tolerance must be nonnegative and finite, got {args.tolerance}")
    graph, labels = _load_graph_inputs(args)
    config = MetricConfig(alpha=args.alpha, beta=args.beta)
    fast = report(graph, labels, config)
    slow = brute_force_report(graph, labels, args.alpha, args.beta)
    deviations = {
        name: float(np.max(np.abs(getattr(fast, name) - getattr(slow, name))))
        for name in ("vertex_precision", "vertex_recall", "vertex_fscore",
                     "global_precision", "global_recall", "global_fscore")
    }
    worst = max(deviations.values())
    print(json.dumps(
        {"max_abs_deviation": worst, "deviations": deviations,
         "tolerance": args.tolerance, "ok": worst <= args.tolerance},
        sort_keys=True,
    ))
    return 0 if worst <= args.tolerance else 1


def _cmd_export(args) -> int:
    graph, labels = _load_graph_inputs(args)
    config = MetricConfig(alpha=args.alpha, beta=args.beta)
    write_vertex_csv(report(graph, labels, config), _out_path(args.out))
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
    _add_method_flags(p)
    p.add_argument("--perplexity", type=float, default=None,
                   help="t-SNE effective neighborhood size (>= 2)")
    p.add_argument("--n-neighbors", type=int, default=None,
                   help="UMAP neighborhood size (>= 2)")
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
    _add_method_flags(p)
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--k-step", type=int, default=None,
                   help="stride between k values (default: 1; excludes --k-list)")
    p.add_argument("--k-list", default=None,
                   help="explicit comma-separated k values (excludes --k-min/max)")
    _add_metric_flags(p)
    p.add_argument("--out", required=True,
                   help="output table; .json for JSON, anything else CSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("estimate",
                       help="Bayesian search for the best neighborhood size")
    _add_data_flags(p)
    _add_method_flags(p)
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
        inputs, outputs = _files(args)
        started = time.monotonic()
        digests = _digests(inputs) if outputs else {}
        code = args.handler(args)
        if code == 0:
            _write_manifest(args, digests, started, *outputs)
        return code
    except (UsageError, DatasetError, GraphError, KnnError, MetricsError,
            OptimizerError, OracleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
