"""Supervised precision/recall/f-score over a labeled relationship graph.

Precision weighs neighbors by edge weight (attraction strength); recall
counts vertices only, blending two notions of "missing": same-label
vertices with no direct edge versus same-label vertices outside the
vertex's intra-label connected component.  Aggregates average per label
first, then across labels, so class imbalance cannot dominate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, LabelAssignment, _write_csv, integer_values
from .graphs import (
    GraphError,
    GraphProvenance,
    RelationshipGraph,
    _check_method,
    _check_real,
    build_graph,
    build_tsne_graph,  # not called: the benchmark's tracer test reads it
    shared_neighbors,
)

__all__ = [
    "MetricsError",
    "MetricConfig",
    "VertexTallies",
    "ComponentAssignment",
    "LabelSummary",
    "MetricReport",
    "SweepRow",
    "SweepResult",
    "classify_neighbors",
    "intra_label_components",
    "precision_vertex",
    "recall_vertex",
    "fscore_vertex",
    "report",
    "sweep",
    "write_vertex_csv",
    "write_sweep_csv",
]


_INT32_MAX = int(np.iinfo(np.int32).max)


class MetricsError(ValueError):
    """Inconsistent metric inputs or invalid configuration."""


@dataclass(frozen=True)
class MetricConfig:
    """alpha blends the two false-negative notions; beta balances P vs R.

    quadrant_threshold splits per-label precision/recall into the low/high
    interpretation quadrants (low < threshold <= high).
    """

    alpha: float = 1.0
    beta: float = 1.0
    quadrant_threshold: float = 0.5

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_beta(self.beta)
        _check_number("quadrant_threshold", self.quadrant_threshold,
                      lambda t: 0.0 < t < 1.0, "in (0, 1)")


@dataclass(frozen=True)
class VertexTallies:
    """Neighborhood partition of one vertex plus its false-negative counts."""

    vertex: int
    tp_ids: tuple[int, ...]
    fp_ids: tuple[int, ...]
    tp_weight: float
    fp_weight: float
    fn_edge_count: int
    fn_component_count: int


@dataclass(frozen=True)
class ComponentAssignment:
    """Connected components after deleting every inter-label edge.

    Component ids are canonical: the smallest member vertex id.
    """

    component_ids: np.ndarray

    def __post_init__(self):
        ids, not_int = integer_values(self.component_ids)
        if not_int.any():
            raise MetricsError(f"component id {ids[np.argmax(not_int)]} is not an integer")
        if ids.size and (ids.min() < 0 or ids.max() >= ids.size):
            raise MetricsError(f"component ids must be vertex ids in 0..{ids.size - 1}")
        ids = ids.astype(np.int64)
        ids.setflags(write=False)
        object.__setattr__(self, "component_ids", ids)

    def sizes(self) -> np.ndarray:
        """Component size per vertex."""
        counts = np.bincount(self.component_ids, minlength=self.component_ids.size)
        return counts[self.component_ids]


def _check_cover(graph: RelationshipGraph, labels: LabelAssignment) -> None:
    if labels.n != graph.n_vertices:
        raise MetricsError(
            f"label count {labels.n} != graph vertex count {graph.n_vertices}"
        )


def _component_ids(row_counts: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Smallest member vertex of each vertex's component, for the edges
    i < j sorted by (i, j) that give row_counts[i] entries of columns `cols`.

    Hooking and pointer jumping (Shiloach & Vishkin, J. Algorithms 3(1),
    1982): each round hooks the larger root of every edge onto the
    smallest root it meets, then jumps pointers until every vertex points
    at its root.  A pointer never rises, so a root is the smallest vertex
    of its tree; once a round hooks nothing, no edge joins two trees.
    Ids take the type of `cols`; three edge-sized arrays of it are the
    only temporaries that grow with the edges.
    """
    parent = np.arange(row_counts.size, dtype=cols.dtype)
    low, high = np.empty_like(cols), np.empty_like(cols)
    while True:
        np.take(parent, cols, out=high)
        roots = np.repeat(parent, row_counts)
        np.minimum(roots, high, out=low)
        np.maximum(roots, high, out=high)
        del roots
        before = parent.copy()
        np.minimum.at(parent, high, low)
        if np.array_equal(parent, before):
            return parent
        while not np.array_equal(up := parent[parent], parent):
            parent = up


def _intra_label_edges(graph: RelationshipGraph, same: np.ndarray):
    """Row counts and columns of the same-label edges, columns as int32
    when the vertex ids fit."""
    n = graph.n_vertices
    cols = graph.edges_j[same].astype(np.int32 if n <= _INT32_MAX else np.int64)
    return np.bincount(graph.edges_i[same], minlength=n), cols


def intra_label_components(graph: RelationshipGraph,
                           labels: LabelAssignment) -> ComponentAssignment:
    """Connected components of the same-label edges; each is label-pure."""
    _check_cover(graph, labels)
    lab = labels.labels
    same = lab[graph.edges_i] == lab[graph.edges_j]
    return ComponentAssignment(_component_ids(*_intra_label_edges(graph, same)))


def classify_neighbors(graph: RelationshipGraph, labels: LabelAssignment,
                       vertex: int) -> VertexTallies:
    """Partition the vertex's neighborhood by label equality.

    Neighbor ids ascend, as in `_label_weight`'s directed view; the tallies are
    the vertex's entries of report's whole-graph pass, so they match it bit for bit.
    """
    stats = _compute_stats(graph, labels)
    raw, not_int = integer_values(vertex)
    if raw.ndim or not_int.any():
        raise MetricsError(f"vertex must be an integer, got {vertex!r}")
    vertex = int(raw)
    if not 0 <= vertex < stats.n:
        raise MetricsError(f"vertex {vertex} outside 0..{stats.n - 1}")
    lo, hi = np.searchsorted(graph.edges_i, (vertex, vertex + 1))
    ids = np.concatenate((graph.edges_i[graph.edges_j == vertex], graph.edges_j[lo:hi]))
    same = stats.label_ids[ids] == stats.label_ids[vertex]
    return VertexTallies(
        vertex=vertex,
        tp_ids=tuple(ids[same].tolist()),
        fp_ids=tuple(ids[~same].tolist()),
        tp_weight=float(stats.tp_weight[vertex]),
        fp_weight=float(stats.fp_weight[vertex]),
        fn_edge_count=int(stats.fn_edge[vertex]),
        fn_component_count=int(stats.fn_component[vertex]),
    )


def _precision(tp_weight, fp_weight, degree) -> np.ndarray:
    out = np.ones(np.shape(tp_weight))
    np.divide(tp_weight, tp_weight + fp_weight, out=out, where=degree > 0)
    return out


def _recall(tp_count, fn_edge, fn_component, alpha: float) -> np.ndarray:
    # denominator arranged as tp + fnc + alpha*(fn - fnc): same value as
    # tp + alpha*fn + (1-alpha)*fnc but exactly nonincreasing in alpha
    # under round-to-nearest
    tp = np.asarray(tp_count, dtype=float)
    fn = np.asarray(fn_edge, dtype=float)
    fnc = np.asarray(fn_component, dtype=float)
    out = np.ones(tp.shape)
    np.divide(tp, tp + fnc + alpha * (fn - fnc), out=out, where=(tp + fn) > 0)
    return out


def _check_number(name: str, value, valid, rule: str) -> None:
    """MetricsError for a `value` that is a boolean or no real number, then
    unless valid(value)."""
    _check_real(name, value, MetricsError)
    if not valid(value):
        raise MetricsError(f"{name} must be {rule}, got {value}")


def _check_alpha(alpha) -> None:
    _check_number("alpha", alpha, lambda a: 0.0 <= a <= 1.0, "in [0, 1]")


def _check_beta(beta) -> None:
    _check_number("beta", beta, lambda b: 0.0 < b < math.inf, "positive and finite")
    # _fscore weighs precision by beta^2: where that overflows, inf/inf is NaN
    with np.errstate(over="ignore"):
        square = beta * beta
        finite = square < math.inf and square <= sys.float_info.max  # a float, then an int
    if not finite:
        raise MetricsError(
            f"beta must be small enough that beta^2 is finite (about 1.34e154 for a double), "
            f"got {beta}")


def _fscore(precision, recall, beta: float) -> np.ndarray:
    b2 = beta * beta
    num = (b2 + 1.0) * precision * recall
    den = b2 * precision + recall
    out = np.zeros(np.shape(precision))
    np.divide(num, den, out=out, where=den > 0)
    return out


def precision_vertex(tallies: VertexTallies) -> float:
    """Weighted share of same-label attraction; 1 for an isolated vertex."""
    degree = len(tallies.tp_ids) + len(tallies.fp_ids)
    return float(_precision(tallies.tp_weight, tallies.fp_weight, degree))


def recall_vertex(tallies: VertexTallies, alpha: float) -> float:
    """Cardinality-based recall blending the two false-negative counts.

    1 when the vertex's label has no other member.
    """
    _check_alpha(alpha)
    return float(_recall(len(tallies.tp_ids), tallies.fn_edge_count,
                         tallies.fn_component_count, alpha))


def fscore_vertex(precision: float, recall: float, beta: float) -> float:
    """Weighted harmonic mean of precision and recall; 0 at P = R = 0."""
    _check_beta(beta)
    for name, value in (("precision", precision), ("recall", recall)):
        _check_number(name, value, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
    return float(_fscore(precision, recall, beta))


@dataclass(frozen=True)
class _GraphStats:
    """One pass of per-vertex tallies shared by every metric."""

    n: int
    label_ids: np.ndarray
    vocabulary: tuple[str, ...]
    present: np.ndarray        # label ids with at least one member
    tp_weight: np.ndarray
    fp_weight: np.ndarray
    tp_count: np.ndarray
    degree: np.ndarray
    fn_edge: np.ndarray
    fn_component: np.ndarray


def _compute_stats(graph: RelationshipGraph, labels: LabelAssignment) -> _GraphStats:
    """Tallies straight from the sorted upper-triangle edges, with no directed view.

    Vertex v's row of `_label_weight`'s directed view is its edges (i, v)
    by ascending i, then (v, j) by ascending j: in the sorted edge list,
    the ej == v entries and then the ei == v entries, each in list order.
    bincount over ej followed by the unbuffered add.at over ei adds them
    in that order, so each weight sum is bitwise the directed view's; the
    +0.0 added for an entry of the other kind leaves a sum of positive
    weights unchanged.  Every temporary holds at most E entries.
    """
    _check_cover(graph, labels)
    n = graph.n_vertices
    lab = labels.labels
    n_labels = len(labels.vocabulary)
    ei, ej, w = graph.edges_i, graph.edges_j, graph.weights

    def incident(x):  # per-vertex sum of x over its edges, in directed-view order
        # float64 also for no edges, where bincount gives int64 zeros
        out = np.bincount(ej, weights=x, minlength=n).astype(float, copy=False)
        np.add.at(out, ei, x)
        return out

    same = lab[ei] == lab[ej]
    x = np.where(same, w, 0.0)
    tp_weight = incident(x)
    fp_weight = incident(np.subtract(w, x, out=x))
    del x
    row_counts, cols = _intra_label_edges(graph, same)
    del same
    tp_count = row_counts + np.bincount(cols, minlength=n)
    degree = np.bincount(ei, minlength=n) + np.bincount(ej, minlength=n)
    same_total = np.bincount(lab, minlength=n_labels)[lab]
    fn_edge = same_total - 1 - tp_count
    comp_sizes = ComponentAssignment(_component_ids(row_counts, cols)).sizes()
    fn_component = same_total - comp_sizes
    return _GraphStats(
        n=n,
        label_ids=lab,
        vocabulary=labels.vocabulary,
        present=np.flatnonzero(np.bincount(lab, minlength=n_labels)),
        tp_weight=tp_weight,
        fp_weight=fp_weight,
        tp_count=tp_count,
        degree=degree,
        fn_edge=fn_edge,
        fn_component=fn_component,
    )


def _vertex_scores(stats: _GraphStats, alpha: float, beta: float):
    """(precision, recall, fscore) per vertex."""
    precision = _precision(stats.tp_weight, stats.fp_weight, stats.degree)
    recall = _recall(stats.tp_count, stats.fn_edge, stats.fn_component, alpha)
    return precision, recall, _fscore(precision, recall, beta)


def _label_means(stats: _GraphStats, values: np.ndarray) -> list[float]:
    """Mean of a per-vertex value over each present label, in label-id order."""
    return [float(values[stats.label_ids == lid].mean())
            for lid in stats.present.tolist()]


def _balanced_mean(values) -> float:
    # label-balanced aggregate: summing the per-label values in ascending
    # numeric order makes the result independent of vocabulary order
    v = np.sort(np.asarray(values, dtype=float))
    return float(v.sum() / v.size)


def _label_fscores(graph: RelationshipGraph, labels: LabelAssignment,
                   config: MetricConfig) -> dict[str, float]:
    """Mean f-score of each present label, the `fscore` of `report`'s `per_label`."""
    stats = _compute_stats(graph, labels)
    fscore = _vertex_scores(stats, config.alpha, config.beta)[2]
    return {stats.vocabulary[lid]: f
            for lid, f in zip(stats.present.tolist(), _label_means(stats, fscore))}


def _label_weight(graph: RelationshipGraph, stats: _GraphStats) -> np.ndarray:
    """(L, L) incident weight by (own, neighbor) label, summed in directed-view order.

    Vertex v's directed row is its edges (i, v) by ascending i, then its
    edges (v, j) by ascending j: a stable sort of the rows of
    concat(edges_j, edges_i) puts every entry there, and bincount then adds
    each (own, neighbor) bin's weights in that order.  Row ids sort as the
    smallest unsigned type that holds them, which is a radix sort up to
    65,536 vertices; pair keys are built in the smallest type that holds
    L^2 - 1, so the edge-sized temporaries stay small (with int64 keys the
    function took twice as long, in page faults).
    """
    ei, ej = graph.edges_i, graph.edges_j
    order = np.concatenate((ej, ei), dtype=np.min_scalar_type(stats.n - 1),
                           casting="unsafe").argsort(kind="stable")
    n_labels = len(stats.vocabulary)
    lab = stats.label_ids.astype(np.min_scalar_type(n_labels * n_labels - 1))
    li, lj = lab[ei], lab[ej]
    # (row label, column label) of each entry of concat(edges_j, edges_i)
    pair_key = np.concatenate((lj * n_labels + li, li * n_labels + lj))
    # every index of order is below 2E: wrapping reads concat(weights, weights)
    weights = np.take(graph.weights, order, mode="wrap")
    return np.bincount(
        pair_key[order], weights=weights, minlength=n_labels * n_labels
    ).reshape(n_labels, n_labels)


_QUADRANT_NOTES = {
    ("low", "low"): "neighborhoods mix labels and same-label vertices stay fragmented",
    ("high", "low"): "neighborhoods match labels but the label splits into several groups",
    ("low", "high"): "the label hangs together but its neighborhoods pull in other labels",
    ("high", "high"): "neighborhoods match labels and the label forms one coherent group",
}


@dataclass(frozen=True)
class LabelSummary:
    """Per-label means, weight decomposition, and interpretation quadrant.

    tp_weight_share and fp_weight_shares decompose the weight incident to
    the label's vertices: the same-label share and the cross-label share
    by offending label (only nonzero entries).  A label whose vertices
    carry no weight at all gets tp_weight_share 1, mirroring the isolated
    vertex convention for precision.
    """

    label: str
    size: int
    precision: float
    recall: float
    fscore: float
    tp_weight_share: float
    fp_weight_shares: dict[str, float]
    quadrant: str
    note: str


@dataclass(frozen=True)
class MetricReport:
    """Per-vertex scores, per-label summaries, and label-balanced globals."""

    config: MetricConfig
    provenance: GraphProvenance
    n_vertices: int
    n_edges: int
    labels: LabelAssignment
    vertex_precision: np.ndarray
    vertex_recall: np.ndarray
    vertex_fscore: np.ndarray
    per_label: dict[str, LabelSummary]
    global_precision: float
    global_recall: float
    global_fscore: float

    def to_dict(self) -> dict:
        return {
            "config": {
                "alpha": self.config.alpha,
                "beta": self.config.beta,
                "quadrant_threshold": self.config.quadrant_threshold,
            },
            "graph": {
                "method": self.provenance.method,
                "param": self.provenance.param,
                "options": self.provenance.options,
                "n_vertices": self.n_vertices,
                "n_edges": self.n_edges,
            },
            "global": {
                "precision": self.global_precision,
                "recall": self.global_recall,
                "fscore": self.global_fscore,
            },
            "labels": {
                name: {
                    "size": s.size,
                    "precision": s.precision,
                    "recall": s.recall,
                    "fscore": s.fscore,
                    "tp_weight_share": s.tp_weight_share,
                    "fp_weight_shares": s.fp_weight_shares,
                    "quadrant": s.quadrant,
                    "note": s.note,
                }
                for name, s in self.per_label.items()
            },
        }

    def vertex_rows(self):
        """(id, label, precision, recall, fscore) per vertex, ascending id."""
        for v in range(self.n_vertices):
            yield (
                v,
                self.labels.name_of(v),
                float(self.vertex_precision[v]),
                float(self.vertex_recall[v]),
                float(self.vertex_fscore[v]),
            )


def _label_summaries(stats: _GraphStats, label_weight: np.ndarray, precision, recall,
                     fscore, threshold: float) -> dict[str, LabelSummary]:
    out: dict[str, LabelSummary] = {}
    sizes = np.bincount(stats.label_ids)
    for lid, p, r, f in zip(stats.present.tolist(), _label_means(stats, precision),
                            _label_means(stats, recall), _label_means(stats, fscore)):
        row = label_weight[lid]
        # ascending-value sum: the total cannot shift under relabeling
        total = float(np.sort(row).sum())
        if total > 0.0:
            tp_share = float(row[lid]) / total
            fp_shares = {
                stats.vocabulary[other]: float(row[other]) / total
                for other in range(row.size)
                if other != lid and row[other] > 0.0
            }
        else:
            tp_share = 1.0
            fp_shares = {}
        p_side = "high" if p >= threshold else "low"
        r_side = "high" if r >= threshold else "low"
        name = stats.vocabulary[lid]
        out[name] = LabelSummary(
            label=name,
            size=int(sizes[lid]),
            precision=p,
            recall=r,
            fscore=f,
            tp_weight_share=tp_share,
            fp_weight_shares=fp_shares,
            quadrant=f"precision-{p_side}/recall-{r_side}",
            note=_QUADRANT_NOTES[(p_side, r_side)],
        )
    return out


def report(graph: RelationshipGraph, labels: LabelAssignment,
           config: MetricConfig = MetricConfig()) -> MetricReport:
    """Score the whole graph: per vertex, per label, and globally."""
    stats = _compute_stats(graph, labels)
    precision, recall, fscore = _vertex_scores(stats, config.alpha, config.beta)
    per_label = _label_summaries(
        stats, _label_weight(graph, stats), precision, recall, fscore,
        config.quadrant_threshold
    )
    summaries = list(per_label.values())
    return MetricReport(
        config=config,
        provenance=graph.provenance,
        n_vertices=graph.n_vertices,
        n_edges=graph.n_edges,
        labels=labels,
        vertex_precision=precision,
        vertex_recall=recall,
        vertex_fscore=fscore,
        per_label=per_label,
        global_precision=_balanced_mean([s.precision for s in summaries]),
        global_recall=_balanced_mean([s.recall for s in summaries]),
        global_fscore=_balanced_mean([s.fscore for s in summaries]),
    )


@dataclass(frozen=True)
class SweepRow:
    """One k of a sweep.  non_converged counts the vertices whose bandwidth
    calibration did not converge; it is reported, never written to a file."""

    k: float
    precision: float | None
    recall_a0: float | None
    recall_a1: float | None
    fscore: float | None
    error: str | None = None
    non_converged: int = 0


@dataclass(frozen=True)
class SweepResult:
    method: str
    config: MetricConfig
    rows: tuple[SweepRow, ...]

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "config": {"alpha": self.config.alpha, "beta": self.config.beta},
            "rows": [
                {
                    "k": row.k,
                    "precision": row.precision,
                    "recall_a0": row.recall_a0,
                    "recall_a1": row.recall_a1,
                    "fscore": row.fscore,
                    "error": row.error,
                }
                for row in self.rows
            ],
        }


def sweep(dataset: Dataset, labels: LabelAssignment, method: str, k_values,
          config: MetricConfig = MetricConfig(),
          prune_eps: float | None = None, *,
          threads: int | None = None) -> SweepResult:
    """Global metrics per neighborhood size, one row per distinct k.

    A failing build annotates its row instead of aborting the sweep;
    labels of another length than the dataset are refused before any
    build.  Neighbors are computed once, for the largest count a valid k
    needs, and every build reads its exact prefix.  `threads` caps the worker
    threads of that pass and of every build's calibration (see
    `run_blocks`); it never changes a byte.
    """
    _check_method(method, prune_eps, MetricsError)
    if labels.n != dataset.n:
        raise MetricsError(f"label count {labels.n} != dataset row count {dataset.n}")
    ks = sorted(dict.fromkeys(k_values))
    neighbors = shared_neighbors(method, dataset, ks, threads=threads)
    rows = []
    for k in ks:
        try:
            graph = build_graph(method, dataset, k, prune_eps, neighbors=neighbors,
                                threads=threads)
            stats = _compute_stats(graph, labels)
            precision, _, fscore = _vertex_scores(stats, config.alpha, config.beta)
            recall_a0 = _recall(stats.tp_count, stats.fn_edge, stats.fn_component, 0.0)
            recall_a1 = _recall(stats.tp_count, stats.fn_edge, stats.fn_component, 1.0)
            p, r0, r1, f = (_balanced_mean(_label_means(stats, values))
                            for values in (precision, recall_a0, recall_a1, fscore))
            rows.append(SweepRow(k, p, r0, r1, f,
                                 non_converged=graph.provenance.options["non_converged"]))
        except (GraphError, MetricsError) as exc:
            rows.append(SweepRow(k, None, None, None, None, str(exc)))
    return SweepResult(method=method, config=config, rows=tuple(rows))


def write_vertex_csv(rep: MetricReport, path) -> None:
    """Per-vertex scores for external tools (projection coloring etc.)."""
    _write_csv(path, ["id", "label", "precision", "recall", "fscore"],
               ([vid, name, repr(p), repr(r), repr(f)]
                for vid, name, p, r, f in rep.vertex_rows()))


def write_sweep_csv(result: SweepResult, path) -> None:
    """k,precision,recall_a0,recall_a1,fscore; failed rows leave blanks."""
    _write_csv(path, ["k", "precision", "recall_a0", "recall_a1", "fscore"], (
        [row.k, "", "", "", ""] if row.error is not None else
        [row.k, *map(repr, (row.precision, row.recall_a0, row.recall_a1, row.fscore))]
        for row in result.rows))
