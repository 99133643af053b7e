"""Neighborhood relationship graphs for t-SNE and UMAP, plus JSON persistence.

Both builders calibrate a per-vertex bandwidth by bisection, turn the
calibrated affinities into symmetric positive edge weights, and record
how they were built.  Only the graph matters downstream: the mapping
(layout) stage is out of scope.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import xlogy

from .datasets import Dataset
from .knn import NeighborLists, check_threads, exact_knn

__all__ = [
    "GraphError",
    "GraphProvenance",
    "RelationshipGraph",
    "BandwidthCalibration",
    "build_tsne_graph",
    "build_umap_graph",
    "build_graph",
    "neighbor_count",
    "shared_neighbors",
    "tsne_calibration",
    "umap_calibration",
    "fuzzy_union",
    "save_graph",
    "load_graph",
    "default_prune_eps",
    "CALIBRATION_TOL",
    "MAX_BISECTIONS",
]


class GraphError(ValueError):
    """Invalid graph construction parameters or malformed graph data."""


GRAPH_METHODS = ("tsne", "umap", "external")

CALIBRATION_TOL = 1e-3
MAX_BISECTIONS = 200
_SIGMA_LOG10_MIN = -20.0
_SIGMA_LOG10_MAX = 20.0
_LN2 = math.log(2.0)
_EDGE_SLICE = 1 << 15  # edges encoded per json.dumps call in save_graph


@dataclass(frozen=True)
class GraphProvenance:
    """How a graph was built: method, neighborhood parameter, options."""

    method: str
    param: float | int | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in GRAPH_METHODS:
            raise GraphError(
                f"method must be one of {GRAPH_METHODS}, got {self.method!r}"
            )
        object.__setattr__(self, "options", dict(self.options))


def _endpoint_array(values, n: int) -> np.ndarray:
    """Endpoints as int64 in 0..n-1; fractional or non-finite values raise, never cast."""
    raw = np.asarray(values).reshape(-1)
    if raw.dtype.kind not in "biu":
        real = raw.astype(float)
        bad = ~np.isfinite(real) | (real != np.trunc(real))
        if bad.any():
            raise GraphError(f"edge endpoint {real[np.argmax(bad)]} is not an integer")
        raw = real
    if raw.size and (raw.min() < 0 or raw.max() >= n):
        raise GraphError(f"edge endpoint outside 0..{n - 1}")
    return raw.astype(np.int64)


@dataclass(frozen=True)
class RelationshipGraph:
    """Simple undirected graph with positive weights, one record per pair.

    Edges are stored as parallel arrays with i < j, sorted lexicographically;
    the constructor sorts and validates.
    """

    n_vertices: int
    edges_i: np.ndarray
    edges_j: np.ndarray
    weights: np.ndarray
    provenance: GraphProvenance

    def __post_init__(self):
        n = int(self.n_vertices)
        if n < 1:
            raise GraphError(f"n_vertices must be positive, got {n}")
        ei = _endpoint_array(self.edges_i, n)
        ej = _endpoint_array(self.edges_j, n)
        w = np.array(self.weights, dtype=float).reshape(-1)
        if not (ei.size == ej.size == w.size):
            raise GraphError("edge arrays must have equal length")
        if ei.size:
            if np.any(ei == ej):
                v = int(ei[np.argmax(ei == ej)])
                raise GraphError(f"self-loop at vertex {v}")
            if np.any(ei > ej):
                raise GraphError("edges must satisfy i < j")
            order = np.lexsort((ej, ei))
            ei, ej, w = ei[order], ej[order], w[order]
            dup = (ei[1:] == ei[:-1]) & (ej[1:] == ej[:-1])
            if np.any(dup):
                at = int(np.argmax(dup))
                raise GraphError(f"duplicate edge ({ei[at]},{ej[at]})")
            if not np.isfinite(w).all() or np.any(w <= 0):
                at = int(np.argmax(~(np.isfinite(w) & (w > 0))))
                raise GraphError(f"edge ({ei[at]},{ej[at]}) has weight {w[at]}")
        for arr in (ei, ej, w):
            arr.setflags(write=False)
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges_i", ei)
        object.__setattr__(self, "edges_j", ej)
        object.__setattr__(self, "weights", w)

    @property
    def n_edges(self) -> int:
        return int(self.edges_i.size)

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style (offsets, neighbors, weights), neighbors ascending."""
        src = np.concatenate([self.edges_i, self.edges_j])
        dst = np.concatenate([self.edges_j, self.edges_i])
        w = np.concatenate([self.weights, self.weights])
        order = np.lexsort((dst, src))
        src, dst, w = src[order], dst[order], w[order]
        offsets = np.searchsorted(src, np.arange(self.n_vertices + 1))
        return offsets, dst, w


@dataclass(frozen=True)
class BandwidthCalibration:
    """Per-vertex bisection outcome: bandwidth, achieved target, converged flag."""

    sigma: np.ndarray
    achieved: np.ndarray
    target: float
    converged: np.ndarray
    tolerance: float = CALIBRATION_TOL

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())


def default_prune_eps(n_vertices: int) -> float:
    """Scale-aware pruning default, 1e-8/N: well under the uniform weight 1/N^2."""
    return 1e-8 / n_vertices


def _bisect_bandwidth(row_objective, n, target, tol, skip=None):
    """Per-row bisection of a monotone-increasing objective over log10(sigma).

    row_objective(rows, sigma) evaluates the target quantity for the given
    row indices at the given bandwidths.  Rows that never reach the
    tolerance get their bandwidth clamped to the search bound on the
    unreachable side and stay flagged as non-converged.
    """
    lo = np.full(n, _SIGMA_LOG10_MIN)
    hi = np.full(n, _SIGMA_LOG10_MAX)
    sigma = np.ones(n)
    achieved = np.full(n, np.nan)
    converged = np.zeros(n, dtype=bool)
    active = np.arange(n)
    if skip is not None:
        active = active[~skip]
    for _ in range(MAX_BISECTIONS):
        if active.size == 0:
            break
        mid = 0.5 * (lo[active] + hi[active])
        s = np.power(10.0, mid)
        got = row_objective(active, s)
        sigma[active] = s
        achieved[active] = got
        done = np.abs(got - target) <= tol
        converged[active[done]] = True
        too_high = got > target
        hi[active[too_high & ~done]] = mid[too_high & ~done]
        lo[active[~too_high & ~done]] = mid[~too_high & ~done]
        active = active[~done]
    if active.size:
        # unreachable target: clamp to the bound on the side the search
        # was pushing toward and report the value actually achieved there
        under = achieved[active] < target
        sigma[active[under]] = 10.0 ** _SIGMA_LOG10_MAX
        sigma[active[~under]] = 10.0 ** _SIGMA_LOG10_MIN
        achieved[active] = row_objective(active, sigma[active])
    return sigma, achieved, converged


def neighbor_count(method: str, n: int, k) -> int:
    """Neighbors per vertex a `method` graph over n vertices reads at size k.

    t-SNE reads min(ceil(3*perplexity), N-1) candidates, UMAP reads
    n_neighbors.  k is validated first, with the builders' messages.
    """
    if method == "tsne":
        _check_perplexity(n, k)
        return min(math.ceil(3.0 * float(k)), n - 1)
    if method == "umap":
        _check_n_neighbors(n, k)
        return int(k)
    raise GraphError(f"method must be 'tsne' or 'umap', got {method!r}")


def shared_neighbors(method: str, dataset: Dataset, ks, *,
                     threads: int | None = None) -> NeighborLists | None:
    """One kNN pass (`threads` workers) deep enough for every valid k; None if none is."""
    check_threads(threads)  # validated even when no pass runs
    counts = []
    for k in ks:
        try:
            counts.append(neighbor_count(method, dataset.n, k))
        except GraphError:
            continue
    return exact_knn(dataset, max(counts), threads=threads) if counts else None


def build_graph(method: str, dataset: Dataset, k, prune_eps: float | None = None, *,
                neighbors: NeighborLists | None = None,
                threads: int | None = None) -> RelationshipGraph:
    """t-SNE graph at perplexity k or UMAP graph at n_neighbors k, picked by `method`."""
    # called through module globals, so a wrapper on graphs.build_*_graph sees every build
    if method == "tsne":
        return build_tsne_graph(dataset, k, prune_eps, neighbors=neighbors,
                                threads=threads)
    if method == "umap":
        if prune_eps is not None:
            raise GraphError("prune_eps applies to method 'tsne' only")
        return build_umap_graph(dataset, k, neighbors=neighbors, threads=threads)
    raise GraphError(f"method must be 'tsne' or 'umap', got {method!r}")


def _neighbor_lists(dataset: Dataset, count: int, neighbors: NeighborLists | None,
                    threads: int | None) -> NeighborLists:
    """The count nearest per vertex: a fresh kNN pass, or a prefix of `neighbors`."""
    check_threads(threads)  # validated even when no pass runs
    if neighbors is None:
        return exact_knn(dataset, count, threads=threads)
    if neighbors.n != dataset.n or neighbors.k < count:
        raise GraphError(
            f"neighbors hold {neighbors.k} per vertex for {neighbors.n} "
            f"vertices, need {count} for {dataset.n}"
        )
    return neighbors.prefix(count)


def _tsne_parts(nbrs: NeighborLists, perplexity: float):
    n = nbrs.n
    d2 = nbrs.distances * nbrs.distances
    d2s = d2 - d2[:, :1]  # shift by the row minimum: conditionals unchanged

    def conditionals(rows, sigma):
        e = np.exp(-d2s[rows] / (2.0 * np.square(sigma))[:, None])
        return e / e.sum(axis=1, keepdims=True)

    def row_objective(rows, sigma):
        p = conditionals(rows, sigma)
        h_bits = -xlogy(p, p).sum(axis=1) / _LN2
        return np.exp2(h_bits)

    sigma, achieved, converged = _bisect_bandwidth(
        row_objective, n, float(perplexity), CALIBRATION_TOL
    )
    cal = BandwidthCalibration(sigma, achieved, float(perplexity), converged)
    return cal, conditionals(np.arange(n), sigma)


def tsne_calibration(dataset: Dataset, perplexity: float) -> BandwidthCalibration:
    """Bandwidths solving 2^H(p_.|i) = perplexity over the candidate neighbors."""
    count = neighbor_count("tsne", dataset.n, perplexity)
    cal, _ = _tsne_parts(exact_knn(dataset, count), perplexity)
    return cal


def _check_perplexity(n, perplexity):
    if not 2.0 <= float(perplexity) <= n - 1:
        raise GraphError(f"perplexity must be in [2, {n - 1}], got {perplexity}")


def build_tsne_graph(dataset: Dataset, perplexity: float,
                     prune_eps: float | None = None, *,
                     neighbors: NeighborLists | None = None,
                     threads: int | None = None) -> RelationshipGraph:
    """Symmetrized conditional-probability graph over candidate neighborhoods.

    Candidates are the min(ceil(3*perplexity), N-1) nearest neighbors.
    Per-vertex bandwidths are bisected until the conditional distribution's
    effective neighborhood size (2^entropy) matches the perplexity; weights
    are (p_{j|i} + p_{i|j}) / (2N) and pairs at or below prune_eps are
    dropped.  Non-converged vertices keep a clamped bandwidth and are
    counted in the provenance options.  Given `neighbors` (lists of at
    least that many per vertex), the candidates are their prefix and no
    kNN pass runs; the graph is the same.  `threads` caps the kNN
    pass's worker threads (see `exact_knn`).
    """
    n = dataset.n
    count = neighbor_count("tsne", n, perplexity)
    if prune_eps is None:
        prune_eps = default_prune_eps(n)
    prune_eps = float(prune_eps)
    if prune_eps < 0:
        raise GraphError(f"prune_eps must be nonnegative, got {prune_eps}")
    nbrs = _neighbor_lists(dataset, count, neighbors, threads)
    cal, p = _tsne_parts(nbrs, perplexity)
    ei, ej, first, second = _pair_groups(n, nbrs.indices, p)
    w = (first + second) / (2.0 * n)
    keep = w > prune_eps
    provenance = GraphProvenance(
        "tsne",
        float(perplexity),
        {
            "prune_eps": prune_eps,
            "candidates": int(nbrs.k),
            "non_converged": int(np.count_nonzero(~cal.converged)),
        },
    )
    return RelationshipGraph(n, ei[keep], ej[keep], w[keep], provenance)


def _pair_groups(n, neighbor_indices, values):
    """Group directed (source, neighbor, value) records by unordered pair.

    Returns (i, j, first, second) with i < j; `second` is 0 where only one
    direction exists.  The direction from the smaller vertex id comes
    first, which pins the grouping order bit-for-bit.
    """
    k = neighbor_indices.shape[1]
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = neighbor_indices.reshape(-1).astype(np.int64)
    val = values.reshape(-1)
    a = np.minimum(src, dst)
    b = np.maximum(src, dst)
    key = a * n + b
    order = np.argsort(key, kind="stable")
    key = key[order]
    val = val[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    counts = np.diff(np.r_[starts, key.size])
    first = val[starts]
    idx2 = np.minimum(starts + 1, key.size - 1)
    second = np.where(counts == 2, val[idx2], 0.0)
    return key[starts] // n, key[starts] % n, first, second


def fuzzy_union(w_a: float, w_b: float):
    """Probabilistic OR of two membership strengths in [0, 1].

    Written as hi + lo*(1-hi) so a full-strength side yields exactly 1.0.
    """
    hi = np.maximum(w_a, w_b)
    lo = np.minimum(w_a, w_b)
    return hi + lo * (1.0 - hi)


def _umap_parts(nbrs: NeighborLists):
    n, n_neighbors = nbrs.n, nbrs.k
    rho = nbrs.distances[:, 0]
    adj = np.maximum(nbrs.distances - rho[:, None], 0.0)
    # all candidates at distance rho: membership sum is k for any sigma
    degenerate = adj.max(axis=1) == 0.0
    target = math.log2(n_neighbors)

    def row_objective(rows, sigma):
        return np.exp(-adj[rows] / sigma[:, None]).sum(axis=1)

    sigma, achieved, converged = _bisect_bandwidth(
        row_objective, n, target, CALIBRATION_TOL, skip=degenerate
    )
    sigma[degenerate] = 1.0
    achieved[degenerate] = float(n_neighbors)
    cal = BandwidthCalibration(sigma, achieved, target, converged)
    return cal, np.exp(-adj / sigma[:, None])


def umap_calibration(dataset: Dataset, n_neighbors: int) -> BandwidthCalibration:
    """Bandwidths solving sum_j exp(-max(0, d_ij - rho_i)/sigma_i) = log2(k)."""
    count = neighbor_count("umap", dataset.n, n_neighbors)
    cal, _ = _umap_parts(exact_knn(dataset, count))
    return cal


def _check_n_neighbors(n, n_neighbors):
    if int(n_neighbors) != n_neighbors:
        raise GraphError(f"n_neighbors must be an integer, got {n_neighbors}")
    if not 2 <= int(n_neighbors) <= n - 1:
        raise GraphError(f"n_neighbors must be in [2, {n - 1}], got {n_neighbors}")


def build_umap_graph(dataset: Dataset, n_neighbors: int, *,
                     neighbors: NeighborLists | None = None,
                     threads: int | None = None) -> RelationshipGraph:
    """Fuzzy-union membership graph over the n_neighbors nearest neighbors.

    rho_i is the distance to the nearest neighbor (zero for duplicates);
    directed memberships exp(-max(0, d - rho_i)/sigma_i) are combined with
    the probabilistic OR; zero-weight pairs are omitted.  Given
    `neighbors` (lists of at least n_neighbors per vertex), their prefix
    is used and no kNN pass runs; the graph is the same.  `threads` caps
    the kNN pass's worker threads (see `exact_knn`).
    """
    n = dataset.n
    count = neighbor_count("umap", n, n_neighbors)
    nbrs = _neighbor_lists(dataset, count, neighbors, threads)
    cal, memberships = _umap_parts(nbrs)
    i, j, first, second = _pair_groups(n, nbrs.indices, memberships)
    w = fuzzy_union(first, second)
    keep = w > 0.0
    provenance = GraphProvenance(
        "umap",
        int(n_neighbors),
        {"non_converged": int(np.count_nonzero(~cal.converged))},
    )
    return RelationshipGraph(n, i[keep], j[keep], w[keep], provenance)


def save_graph(graph: RelationshipGraph, path) -> None:
    """Write `{"n", "method", "param", "edges"}` JSON, edges sorted, full precision.

    The bytes are those of `json.dumps` of that document (plus
    "options" when there are any) and a newline; the edges are encoded
    a slice at a time, so no list of every edge is ever built.
    """
    prov = graph.provenance
    ei, ej, w = graph.edges_i, graph.edges_j, graph.weights
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"n": {json.dumps(graph.n_vertices)}, '
                 f'"method": {json.dumps(prov.method)}, '
                 f'"param": {json.dumps(prov.param)}, "edges": [')
        for start in range(0, graph.n_edges, _EDGE_SLICE):
            part = slice(start, start + _EDGE_SLICE)
            rows = zip(ei[part].tolist(), ej[part].tolist(), w[part].tolist())
            if start:
                fh.write(", ")
            fh.write(json.dumps(list(map(list, rows)))[1:-1])
        fh.write("]")
        if prov.options:
            fh.write(f', "options": {json.dumps(prov.options)}')
        fh.write("}\n")


def load_graph(path) -> RelationshipGraph:
    """Read a graph file, rejecting malformed edges with their location."""
    path = Path(path)
    if not path.is_file():
        raise GraphError(f"no such file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GraphError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphError(f"{path}: top-level value must be an object")
    for key in ("n", "method", "edges"):
        if key not in doc:
            raise GraphError(f"{path}: missing key {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise GraphError(f"{path}: 'n' must be a positive integer, got {n!r}")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise GraphError(f"{path}: 'edges' must be an array")
    seen: set[tuple[int, int]] = set()
    ei = np.empty(len(edges), dtype=np.int64)
    ej = np.empty(len(edges), dtype=np.int64)
    w = np.empty(len(edges))
    for idx, edge in enumerate(edges):
        where = f"{path}: edges[{idx}]"
        if not isinstance(edge, (list, tuple)) or len(edge) != 3:
            raise GraphError(f"{where}: expected [i, j, weight]")
        i, j, weight = edge
        if not isinstance(i, int) or not isinstance(j, int):
            raise GraphError(f"{where}: endpoints must be integers")
        if i == j:
            raise GraphError(f"{where}: self-loop ({i},{j})")
        if i > j:
            raise GraphError(f"{where}: endpoints must satisfy i < j, got ({i},{j})")
        if not 0 <= i < n or not 0 <= j < n:
            raise GraphError(f"{where}: endpoint outside 0..{n - 1}")
        if (i, j) in seen:
            raise GraphError(f"{where}: duplicate edge ({i},{j})")
        seen.add((i, j))
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise GraphError(f"{where}: weight must be a number")
        weight = float(weight)
        if not (weight > 0 and math.isfinite(weight)):
            raise GraphError(f"{where}: weight must be positive and finite, got {weight}")
        ei[idx], ej[idx], w[idx] = i, j, weight
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise GraphError(f"{path}: 'options' must be an object")
    param = doc.get("param")
    if param is not None and (not isinstance(param, (int, float))
                              or isinstance(param, bool)):
        raise GraphError(f"{path}: 'param' must be a number or null")
    provenance = GraphProvenance(doc["method"], param, options)
    return RelationshipGraph(n, ei, ej, w, provenance)
