"""Supervised precision/recall/f-score over a labeled relationship graph.

Precision weighs neighbors by edge weight (attraction strength); recall
counts vertices only, blending two notions of "missing": same-label
vertices with no direct edge versus same-label vertices outside the
vertex's intra-label connected component.  Aggregates average per label
first, then across labels, so class imbalance cannot dominate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .datasets import Dataset, LabelAssignment
from .graphs import (
    GraphError,
    GraphProvenance,
    RelationshipGraph,
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
        if not 0.0 <= self.alpha <= 1.0:
            raise MetricsError(f"alpha must be in [0, 1], got {self.alpha}")
        if not self.beta > 0.0:
            raise MetricsError(f"beta must be positive, got {self.beta}")
        if not 0.0 < self.quadrant_threshold < 1.0:
            raise MetricsError(
                f"quadrant_threshold must be in (0, 1), got {self.quadrant_threshold}"
            )


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
        ids = np.array(self.component_ids, dtype=np.int64)
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


def intra_label_components(graph: RelationshipGraph,
                           labels: LabelAssignment) -> ComponentAssignment:
    """Connected components of the same-label edges; each is label-pure."""
    _check_cover(graph, labels)
    n = graph.n_vertices
    lab = labels.labels
    intra = lab[graph.edges_i] == lab[graph.edges_j]
    ei, ej = graph.edges_i[intra], graph.edges_j[intra]
    adj = csr_matrix((np.ones(ei.size, dtype=np.int8), (ei, ej)), shape=(n, n))
    n_comp, raw = connected_components(adj, directed=False)
    # canonical id: the smallest member vertex of each component
    smallest = np.full(n_comp, n, dtype=np.int64)
    np.minimum.at(smallest, raw, np.arange(n))
    return ComponentAssignment(smallest[raw])


def classify_neighbors(graph: RelationshipGraph, labels: LabelAssignment,
                       vertex: int) -> VertexTallies:
    """Partition the vertex's neighborhood by label equality.

    Neighbor ids ascend; the tallies are the vertex's entries of the
    whole-graph pass behind report, so they match it bit for bit.
    """
    stats = _compute_stats(graph, labels)
    vertex = int(vertex)
    if not 0 <= vertex < stats.n:
        raise MetricsError(f"vertex {vertex} outside 0..{stats.n - 1}")
    offsets, neighbors, _ = graph.adjacency()
    ids = neighbors[offsets[vertex]:offsets[vertex + 1]]
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
    if not 0.0 <= alpha <= 1.0:
        raise MetricsError(f"alpha must be in [0, 1], got {alpha}")
    return float(_recall(len(tallies.tp_ids), tallies.fn_edge_count,
                         tallies.fn_component_count, alpha))


def fscore_vertex(precision: float, recall: float, beta: float) -> float:
    """Weighted harmonic mean of precision and recall; 0 at P = R = 0."""
    if not beta > 0:
        raise MetricsError(f"beta must be positive, got {beta}")
    if not (0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0):
        raise MetricsError("precision and recall must lie in [0, 1]")
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
    label_weight: np.ndarray   # (L, L): incident weight by (own, neighbor) label


def _compute_stats(graph: RelationshipGraph, labels: LabelAssignment) -> _GraphStats:
    _check_cover(graph, labels)
    n = graph.n_vertices
    lab = labels.labels
    n_labels = len(labels.vocabulary)
    # directed view sorted by (source, neighbor): bincount then accumulates
    # each vertex's weights in ascending neighbor-id order
    offsets, dst, w = graph.adjacency()
    degree = np.diff(offsets)
    src = np.repeat(np.arange(n), degree)
    same = lab[src] == lab[dst]
    tp_weight = np.bincount(src[same], weights=w[same], minlength=n)
    fp_weight = np.bincount(src[~same], weights=w[~same], minlength=n)
    tp_count = np.bincount(src[same], minlength=n)
    same_total = np.bincount(lab, minlength=n_labels)[lab]
    fn_edge = same_total - 1 - tp_count
    comp_sizes = intra_label_components(graph, labels).sizes()
    fn_component = same_total - comp_sizes
    pair_key = lab[src] * n_labels + lab[dst]
    label_weight = np.bincount(
        pair_key, weights=w, minlength=n_labels * n_labels
    ).reshape(n_labels, n_labels)
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
        label_weight=label_weight,
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


def _label_summaries(stats: _GraphStats, precision, recall, fscore,
                     threshold: float) -> dict[str, LabelSummary]:
    out: dict[str, LabelSummary] = {}
    sizes = np.bincount(stats.label_ids)
    for lid, p, r, f in zip(stats.present.tolist(), _label_means(stats, precision),
                            _label_means(stats, recall), _label_means(stats, fscore)):
        row = stats.label_weight[lid]
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
        stats, precision, recall, fscore, config.quadrant_threshold
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
    k: float
    precision: float | None
    recall_a0: float | None
    recall_a1: float | None
    fscore: float | None
    error: str | None = None


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

    A failing build annotates its row instead of aborting the sweep.
    Neighbors are computed once, for the largest count a valid k needs,
    and every build reads its exact prefix; `threads` caps that pass's
    worker threads (see `exact_knn`).
    """
    if method not in ("tsne", "umap"):
        raise MetricsError(f"method must be 'tsne' or 'umap', got {method!r}")
    if method != "tsne" and prune_eps is not None:
        raise MetricsError("prune_eps applies to method 'tsne' only")
    ks = sorted(dict.fromkeys(k_values))
    neighbors = shared_neighbors(method, dataset, ks, threads=threads)
    rows = []
    for k in ks:
        try:
            graph = build_graph(method, dataset, k, prune_eps, neighbors=neighbors)
            stats = _compute_stats(graph, labels)
            precision, _, fscore = _vertex_scores(stats, config.alpha, config.beta)
            recall_a0 = _recall(stats.tp_count, stats.fn_edge, stats.fn_component, 0.0)
            recall_a1 = _recall(stats.tp_count, stats.fn_edge, stats.fn_component, 1.0)
            p, r0, r1, f = (_balanced_mean(_label_means(stats, values))
                            for values in (precision, recall_a0, recall_a1, fscore))
            rows.append(SweepRow(k, p, r0, r1, f))
        except (GraphError, MetricsError) as exc:
            rows.append(SweepRow(k, None, None, None, None, str(exc)))
    return SweepResult(method=method, config=config, rows=tuple(rows))


def write_vertex_csv(rep: MetricReport, path) -> None:
    """Per-vertex scores for external tools (projection coloring etc.)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label", "precision", "recall", "fscore"])
        for vid, name, p, r, f in rep.vertex_rows():
            writer.writerow([vid, name, repr(p), repr(r), repr(f)])


def write_sweep_csv(result: SweepResult, path) -> None:
    """k,precision,recall_a0,recall_a1,fscore; failed rows leave blanks."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "precision", "recall_a0", "recall_a1", "fscore"])
        for row in result.rows:
            if row.error is None:
                writer.writerow([
                    row.k,
                    repr(row.precision),
                    repr(row.recall_a0),
                    repr(row.recall_a1),
                    repr(row.fscore),
                ])
            else:
                writer.writerow([row.k, "", "", "", ""])
