"""Brute-force reference metrics for small graphs.

Everything here is recomputed from scratch: pairwise scans and repeated
BFS: sharing only data types with the fast implementation, so the two
can check each other.  `brute_force_knn` does the same for the exact
neighbor lists, with a per-vertex scalar scan.  Also provides a seeded
random-graph generator for the equivalence tests.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .datasets import Dataset, LabelAssignment
from .graphs import GraphProvenance, RelationshipGraph
from .knn import NeighborLists
from .metrics import LabelSummary, MetricConfig, MetricReport

__all__ = ["OracleError", "MAX_VERTICES", "brute_force_knn", "brute_force_report",
           "random_graph"]


class OracleError(ValueError):
    """Oracle guard violation or invalid generator parameters."""


MAX_VERTICES = 1000

_NOTES = {
    ("low", "low"): "neighborhoods mix labels and same-label vertices stay fragmented",
    ("high", "low"): "neighborhoods match labels but the label splits into several groups",
    ("low", "high"): "the label hangs together but its neighborhoods pull in other labels",
    ("high", "high"): "neighborhoods match labels and the label forms one coherent group",
}


def brute_force_report(graph: RelationshipGraph, labels: LabelAssignment,
                       alpha: float, beta: float,
                       quadrant_threshold: float = 0.5) -> MetricReport:
    """Recompute every metric by exhaustive scans (guarded to N <= 1000)."""
    n = graph.n_vertices
    if n > MAX_VERTICES:
        raise OracleError(f"oracle limited to {MAX_VERTICES} vertices, got {n}")
    if labels.n != n:
        raise OracleError(f"label count {labels.n} != graph vertex count {n}")
    config = MetricConfig(alpha=alpha, beta=beta, quadrant_threshold=quadrant_threshold)
    lab = [int(x) for x in labels.labels]
    vocab = labels.vocabulary

    # weight[v][u]: the weight of edge {v, u}, filed under both endpoints;
    # intra_adj: same-label neighbors, in edge order
    weight: list[dict[int, float]] = [{} for _ in range(n)]
    intra_adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, w in zip(graph.edges_i.tolist(), graph.edges_j.tolist(),
                       graph.weights.tolist()):
        weight[i][j] = w
        weight[j][i] = w
        if lab[i] == lab[j]:
            intra_adj[i].append(j)
            intra_adj[j].append(i)

    # intra-label components by BFS; scanning starts in ascending order, so
    # each component is first discovered from its smallest member
    component = [-1] * n
    for start in range(n):
        if component[start] != -1:
            continue
        component[start] = start
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in intra_adj[v]:
                if component[u] == -1:
                    component[u] = start
                    queue.append(u)

    vertices = list(range(n))  # the scans reuse these ints instead of making new ones
    vertex_precision = []
    vertex_recall = []
    vertex_fscore = []
    for v in vertices:
        tp_ids = []
        fp_ids = []
        fn = 0
        fn_bar = 0
        near = weight[v]
        for u in vertices:
            if u == v:
                continue
            adjacent = u in near
            if lab[u] == lab[v]:
                if adjacent:
                    tp_ids.append(u)
                else:
                    fn += 1
                    if component[u] != component[v]:
                        fn_bar += 1
            elif adjacent:
                fp_ids.append(u)
        tp_w = 0.0
        for u in tp_ids:
            tp_w += near[u]
        fp_w = 0.0
        for u in fp_ids:
            fp_w += near[u]
        if len(tp_ids) + len(fp_ids) > 0:
            p = tp_w / (tp_w + fp_w)
        else:
            p = 1.0
        if len(tp_ids) + fn > 0:
            r = len(tp_ids) / (len(tp_ids) + (alpha * fn + (1.0 - alpha) * fn_bar))
        else:
            r = 1.0
        den = beta * beta * p + r
        f = (beta * beta + 1.0) * p * r / den if den > 0.0 else 0.0
        vertex_precision.append(p)
        vertex_recall.append(r)
        vertex_fscore.append(f)

    present = [lid for lid in range(len(vocab)) if lid in set(lab)]
    per_label: dict[str, LabelSummary] = {}
    label_p = []
    label_r = []
    label_f = []
    for lid in present:
        members = [v for v in range(n) if lab[v] == lid]
        p = sum(vertex_precision[v] for v in members) / len(members)
        r = sum(vertex_recall[v] for v in members) / len(members)
        f = sum(vertex_fscore[v] for v in members) / len(members)
        tp_total = 0.0
        by_other = [0.0] * len(vocab)
        for v in members:
            near = weight[v]
            for u in vertices:
                if u != v and u in near:
                    if lab[u] == lid:
                        tp_total += near[u]
                    else:
                        by_other[lab[u]] += near[u]
        grand = tp_total + sum(by_other)
        if grand > 0.0:
            tp_share = tp_total / grand
            fp_shares = {
                vocab[o]: by_other[o] / grand
                for o in range(len(vocab))
                if o != lid and by_other[o] > 0.0
            }
        else:
            tp_share = 1.0
            fp_shares = {}
        p_side = "high" if p >= quadrant_threshold else "low"
        r_side = "high" if r >= quadrant_threshold else "low"
        per_label[vocab[lid]] = LabelSummary(
            label=vocab[lid],
            size=len(members),
            precision=p,
            recall=r,
            fscore=f,
            tp_weight_share=tp_share,
            fp_weight_shares=fp_shares,
            quadrant=f"precision-{p_side}/recall-{r_side}",
            note=_NOTES[(p_side, r_side)],
        )
        label_p.append(p)
        label_r.append(r)
        label_f.append(f)

    return MetricReport(
        config=config,
        provenance=graph.provenance,
        n_vertices=n,
        n_edges=graph.n_edges,
        labels=labels,
        vertex_precision=np.array(vertex_precision),
        vertex_recall=np.array(vertex_recall),
        vertex_fscore=np.array(vertex_fscore),
        per_label=per_label,
        global_precision=sum(label_p) / len(label_p),
        global_recall=sum(label_r) / len(label_r),
        global_fscore=sum(label_f) / len(label_f),
    )


def brute_force_knn(dataset: Dataset, k: int) -> NeighborLists:
    """Exact k nearest per vertex by scanning every other row (N <= 1000).

    Squared differences are summed feature by feature in float
    arithmetic and candidates sorted by (squared distance, id), so ties
    go to the smaller id.
    """
    n = dataset.n
    if n > MAX_VERTICES:
        raise OracleError(f"oracle limited to {MAX_VERTICES} vertices, got {n}")
    if not 1 <= k <= n - 1:
        raise OracleError(f"k must be in [1, {n - 1}], got {k}")
    rows = dataset.values.tolist()
    indices = []
    distances = []
    for v, a in enumerate(rows):
        scan = []
        for u, b in enumerate(rows):
            if u == v:
                continue
            d2 = 0.0
            for x, y in zip(a, b):
                d2 += (x - y) * (x - y)
            scan.append((d2, u))
        scan.sort()
        indices.append([u for _, u in scan[:k]])
        distances.append([math.sqrt(d2) for d2, _ in scan[:k]])
    return NeighborLists(
        indices=np.array(indices, dtype=np.int64).reshape(n, k),
        distances=np.array(distances, dtype=float).reshape(n, k),
        k=k,
    )


def random_graph(n: int, n_labels: int, edge_prob: float,
                 seed: int) -> tuple[RelationshipGraph, LabelAssignment]:
    """Seeded G(n, p) with weights uniform in (0, 1] and uniform labels."""
    if n < 2:
        raise OracleError(f"n must be at least 2, got {n}")
    if not 1 <= n_labels <= n:
        raise OracleError(f"n_labels must be in [1, {n}], got {n_labels}")
    if not 0.0 <= edge_prob <= 1.0:
        raise OracleError(f"edge_prob must be in [0, 1], got {edge_prob}")
    rng = np.random.Generator(np.random.PCG64(seed))
    lab = rng.integers(0, n_labels, size=n)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < edge_prob
    weights = 1.0 - rng.random(iu.size)  # (0, 1]
    provenance = GraphProvenance(
        "external", None,
        {"generator": "gnp", "seed": int(seed), "edge_prob": float(edge_prob)},
    )
    graph = RelationshipGraph(n, iu[mask], ju[mask], weights[mask], provenance)
    vocabulary = tuple(str(i) for i in range(n_labels))
    return graph, LabelAssignment(lab, vocabulary)
