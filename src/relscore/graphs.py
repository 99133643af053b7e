"""Neighborhood relationship graphs for t-SNE and UMAP, plus JSON persistence.

Both builders calibrate a per-vertex bandwidth by bisection, turn the
calibrated affinities into symmetric positive edge weights, and record
how they were built.  Only the graph matters downstream: the mapping
(layout) stage is out of scope.
"""

from __future__ import annotations

import gc
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from itertools import chain
from pathlib import Path

import numpy as np

from .datasets import Dataset, _file_bytes, _json_object, integer_values
from .knn import (
    NeighborLists, _squared_distances, block_rows, check_threads, exact_knn, run_blocks,
)

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


_BUILD_METHODS = ("tsne", "umap")  # the methods a builder takes
GRAPH_METHODS = _BUILD_METHODS + ("external",)

CALIBRATION_TOL = 1e-3
MAX_BISECTIONS = 200
_SIGMA_LOG10_MIN = -20.0
_SIGMA_LOG10_MAX = 20.0
_LN2 = math.log(2.0)
_EDGE_SLICE = 1 << 14  # edges rendered per write in save_graph
_LOAD_BYTES = 1 << 19  # bytes of edge text parsed at a time in load_graph
_WEIGHT_ROWS = 28  # columns of a weight's text in save_graph (see _weight_rows)
_LOG_CHUNK = 1 << 12  # values per math.log pass in xlogy
_PAIR_CHUNK = 1 << 13  # sorted records combined per slice in _pair_edges
_RULE_EDGES = 1 << 16  # edges per slice of the graph constructor's rule masks
_SPLITTER = 2.0 ** 27 + 1.0  # Veltkamp's constant: halves a double for Dekker's product
_REPR_MARGIN = 2.0 ** -32  # a certified decision's least distance, in last-digit units
_INT64_MAX = int(np.iinfo(np.int64).max)


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
        # JSON has no NaN or Infinity.  A value json cannot write at all
        # passes here (skipkeys, default=repr) and fails only when saved.
        try:
            json.dumps([self.param, self.options], allow_nan=False, skipkeys=True,
                       default=repr)
        except ValueError as exc:  # also a circular reference
            raise GraphError(
                f"param and options must be JSON (no NaN or Infinity): {exc}") from None


def _float_values(values) -> np.ndarray:
    """`values` as a flat float array, not copied if it is one; an integer past
    the double range reads as inf."""
    try:
        return np.asarray(values, dtype=float).reshape(-1)
    except OverflowError:  # via str, as float("1e400") is inf
        return np.array(list(map(str, np.asarray(values, dtype=object).flat)), dtype=float)


@dataclass(frozen=True)
class RelationshipGraph:
    """Simple undirected graph with positive weights, one record per pair.

    Edges are int64/int64/float64 arrays with i < j, sorted lexicographically.
    The constructor checks each rule once per edge and names the first bad
    input edge by the first rule it breaks; of a duplicate pair, the later
    copy breaks it.  The order is checked in one pass and only an
    out-of-order list is sorted, so memory grows with the edge count, not
    with the endpoint ids.  Input arrays that are already int64/float64 are
    read without a copy; the stored arrays are always new.  The builders
    hand over fresh arrays of their own, which a private path takes without
    a copy after the same checks.
    """

    n_vertices: int
    edges_i: np.ndarray
    edges_j: np.ndarray
    weights: np.ndarray
    provenance: GraphProvenance

    def __post_init__(self):
        self._settle(copy=True)

    @classmethod
    def _adopt(cls, n_vertices, edges_i, edges_j, weights, provenance) -> RelationshipGraph:
        """The graph of a builder's fresh edge arrays, which it stores without a copy.

        The constructor's checks run, with its messages; sorted, valid
        int64/float64 arrays become the graph's own and are set read-only.
        """
        graph = object.__new__(cls)
        for name, value in zip((f.name for f in fields(cls)),
                               (n_vertices, edges_i, edges_j, weights, provenance)):
            object.__setattr__(graph, name, value)
        graph._settle(copy=False)
        return graph

    def _settle(self, copy: bool) -> None:
        """Check the fields and store them in canonical form; `copy` says
        whether arrays that may be the caller's are copied."""
        raw, not_int = integer_values(self.n_vertices)
        if raw.ndim or not_int.any():
            raise GraphError(f"n_vertices must be an integer, got {self.n_vertices!r}")
        n = int(raw)
        if n < 1:
            raise GraphError(f"n_vertices must be positive, got {n}")
        if n > _INT64_MAX:
            raise GraphError(f"n_vertices must be at most {_INT64_MAX}, got {n}")
        # integer_values reads the caller's list, so a boolean in it is flagged
        ri, not_int_i = (np.reshape(a, -1) for a in integer_values(self.edges_i))
        rj, not_int = (np.reshape(a, -1) for a in integer_values(self.edges_j))
        w = _float_values(self.weights)
        if not (ri.size == rj.size == w.size):
            raise GraphError("edge arrays must have equal length")
        not_int |= not_int_i
        # an endpoint that is not an integer reads as 0, as its rule ranks first
        ci, cj = (np.where(not_int, 0, r if r.dtype.kind in "iufO" else 0)
                  if not_int.any() else r for r in (ri, rj))

        def outside(s):
            return (ci[s] < 0) | (ci[s] >= n) | (cj[s] < 0) | (cj[s] >= n)

        # the masks are made a slice of edges at a time, so they stay small
        parts = [slice(start, start + _RULE_EDGES) for start in range(0, w.size, _RULE_EDGES)]
        bad = np.empty(w.size, dtype=bool)  # the running mask of every broken rule
        for s in parts:
            bad[s] = outside(s)
        # an edge outside stands in as (0, 0): a self-loop, which ranks before a duplicate
        ei, ej = ((np.where(bad, 0, c) if bad.any() else c).astype(np.int64, copy=False)
                  for c in (ci, cj))
        duplicate = order = None
        # one linear pass: each edge strictly after the one before means sorted, no duplicate
        if not all(_ascending(ei[s.start:s.stop + 1], ej[s.start:s.stop + 1]) for s in parts):
            order = np.lexsort((ej, ei))  # stable: a pair's copies keep input order
            ei, ej = ei[order], ej[order]
            duplicate = np.zeros(w.size, dtype=bool)
            duplicate[order[1:][(ei[1:] == ei[:-1]) & (ej[1:] == ej[:-1])]] = True
        # each rule as the mask of the edges at s that break it, in the order
        # the messages rank them: added to `bad` one at a time, and asked
        # again at the first bad edge only, to name the rule it breaks
        rules = (lambda s: not_int[s], lambda s: ci[s] == cj[s], lambda s: ci[s] > cj[s],
                 outside, lambda s: False if duplicate is None else duplicate[s],
                 lambda s: ~(np.isfinite(w[s]) & (w[s] > 0)))
        for rule in rules:
            if rule is not outside:
                for s in parts:
                    bad[s] |= rule(s)
        if bad.any():
            t = int(np.argmax(bad))
            rule = next(r for r, broken in enumerate(rules) if broken(t))
            i, j = (ri[t], rj[t]) if rule == 0 else (int(ri[t]), int(rj[t]))
            raise GraphError(f"edges[{t}]: " + (
                f"edge endpoint {i if not_int_i[t] else j} is not an integer",
                f"self-loop ({i},{j})", f"endpoints must satisfy i < j, got ({i},{j})",
                f"endpoint outside 0..{n - 1}", f"duplicate edge ({i},{j})",
                f"weight must be positive and finite, got {float(w[t])}")[rule])
        del bad, not_int, not_int_i, duplicate  # freed before w is copied
        if order is not None:
            w = w[order]
        elif copy:  # the stored arrays are new: none of them is the caller's
            ei, ej, w = ei.copy(), ej.copy(), w.copy()
        for arr in (ei, ej, w):
            arr.setflags(write=False)
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges_i", ei)
        object.__setattr__(self, "edges_j", ej)
        object.__setattr__(self, "weights", w)

    @property
    def n_edges(self) -> int:
        return int(self.edges_i.size)


def _ascending(ei: np.ndarray, ej: np.ndarray) -> bool:
    """Whether each (i, j) edge comes strictly after the one before it."""
    return bool(((ei[1:] > ei[:-1]) | (ei[1:] == ei[:-1]) & (ej[1:] > ej[:-1])).all())


@dataclass(frozen=True)
class BandwidthCalibration:
    """Per-vertex bisection outcome: bandwidth, achieved target, converged flag."""

    sigma: np.ndarray
    achieved: np.ndarray
    target: float
    converged: np.ndarray

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())


def default_prune_eps(n_vertices: int) -> float:
    """Scale-aware pruning default, 1e-8/N: well under the uniform weight 1/N^2."""
    return 1e-8 / n_vertices


def _check_real(name: str, value, error=GraphError) -> None:
    """`error` for a `value` that is a boolean or no real number."""
    if isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be a number, got {value}")
    if not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")


def _checked_prune_eps(prune_eps, error=GraphError) -> float:
    """prune_eps as a float if it is finite and nonnegative, else `error`; an
    integer past the double range reads as inf."""
    _check_real("prune_eps", prune_eps, error)
    try:
        value = float(prune_eps)
    except OverflowError:
        value = math.inf
    if not 0.0 <= value < math.inf:
        raise error(f"prune_eps must be nonnegative and finite, got {value}")
    return value


def _check_method(method, prune_eps=None, error=GraphError) -> None:
    """Raise `error` for a method no builder takes, then for a prune_eps
    given with UMAP, then for a bad prune_eps; None is no prune_eps."""
    if method not in _BUILD_METHODS:
        raise error(f"method must be 'tsne' or 'umap', got {method!r}")
    if prune_eps is not None:
        if method != "tsne":
            raise error("prune_eps applies to method 'tsne' only")
        _checked_prune_eps(prune_eps, error)


def _bisect_bandwidth(row_objective, n, target, skip=None, step=None):
    """Per-row bisection of a monotone-increasing objective over log10(sigma).

    row_objective(rows, sigma) evaluates the target quantity for the given
    row indices at the given bandwidths.  Rows that never reach
    CALIBRATION_TOL get their bandwidth clamped to the search bound on the
    unreachable side, with row_objective's value there, and stay flagged
    as non-converged.

    step(rows, sigma), if given, evaluates each step in row_objective's
    place.  Each value it returns must be row_objective's, or lie in the
    same one of three bands as it, clear of the band's edges: below
    target - CALIBRATION_TOL, within CALIBRATION_TOL of target, or above
    target + CALIBRATION_TOL.  Then sigma and converged are the same as
    with row_objective, and so is achieved except where a converged row
    took a step's value.
    """
    lo = np.full(n, _SIGMA_LOG10_MIN)
    hi = np.full(n, _SIGMA_LOG10_MAX)
    sigma = np.ones(n)
    achieved = np.full(n, np.nan)
    converged = np.zeros(n, dtype=bool)
    active = np.arange(n)
    if skip is not None:
        active = active[~skip]
    step = row_objective if step is None else step
    for _ in range(MAX_BISECTIONS):
        if active.size == 0:
            break
        mid = 0.5 * (lo[active] + hi[active])
        s = np.power(10.0, mid)
        got = step(active, s)
        sigma[active] = s
        achieved[active] = got
        done = np.abs(got - target) <= CALIBRATION_TOL
        converged[active[done]] = True
        too_high = got > target
        hi[active[too_high & ~done]] = mid[too_high & ~done]
        lo[active[~too_high & ~done]] = mid[~too_high & ~done]
        active = active[~done]
    if active.size:
        # unreachable target: clamp to the bound on the side the search
        # was pushing toward and report the value actually achieved there
        # (a step's achieved value is on row_objective's side of target)
        under = achieved[active] < target
        sigma[active[under]] = 10.0 ** _SIGMA_LOG10_MAX
        sigma[active[~under]] = 10.0 ** _SIGMA_LOG10_MIN
        achieved[active] = row_objective(active, sigma[active])
    return sigma, achieved, converged


def neighbor_count(method: str, n: int, k) -> int:
    """Neighbors per vertex a `method` graph over n vertices reads at size k.

    t-SNE reads min(ceil(3*perplexity), N-1) candidates, UMAP reads
    n_neighbors.  The method and k are validated first, with the builders'
    messages.
    """
    _check_method(method)
    if method == "tsne":
        _check_real("perplexity", k)
        if not 2.0 <= k <= n - 1:
            raise GraphError(f"perplexity must be in [2, {n - 1}], got {k}")
        return min(math.ceil(3.0 * float(k)), n - 1)
    if not isinstance(k, numbers.Real) or integer_values(k)[1].any():
        # '10', not 10: a value that is no number shows its type, as perplexity's does
        shown = k if isinstance(k, (numbers.Real, np.bool_)) else repr(k)
        raise GraphError(f"n_neighbors must be an integer, got {shown}")
    if not 2 <= k <= n - 1:
        raise GraphError(f"n_neighbors must be in [2, {n - 1}], got {k}")
    return int(k)


def shared_neighbors(method: str, dataset: Dataset, ks, *,
                     threads: int | None = None) -> NeighborLists | None:
    """One kNN pass (`threads` workers) deep enough for every valid k; None if none is."""
    _check_method(method)  # so a GraphError below is an invalid k
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
    # a t-SNE prune_eps is checked by the builder, after the perplexity
    _check_method(method, None if method == "tsne" else prune_eps)
    # called through module globals, so a wrapper on graphs.build_*_graph sees every build
    if method == "tsne":
        return build_tsne_graph(dataset, k, prune_eps, neighbors=neighbors,
                                threads=threads)
    return build_umap_graph(dataset, k, neighbors=neighbors, threads=threads)


def _neighbor_lists(dataset: Dataset, count: int, neighbors: NeighborLists | None,
                    threads: int | None) -> NeighborLists:
    """The count nearest per vertex: a fresh kNN pass, or a prefix of `neighbors`.

    Given lists must be this dataset's: the first and the last column of
    the prefix are recomputed with `_squared_distances`, the accumulation
    behind every `exact_knn` distance, and their square roots must equal
    the listed distances bit for bit.  That costs O(N (k + m)).

    Arrays the build made, a fresh pass's or a prefix's copies of fewer
    columns, come back writable: the build may write over them (see
    `_calibrated` and `_pair_keys`).  A full-width prefix is a view of
    the caller's arrays and stays read-only, so the caller's lists keep
    their bytes.
    """
    if neighbors is None:
        nbrs = exact_knn(dataset, count, threads=threads)
    elif neighbors.n != dataset.n or neighbors.k < count:
        raise GraphError(
            f"neighbors hold {neighbors.k} per vertex for {neighbors.n} "
            f"vertices, need {count} for {dataset.n}"
        )
    else:
        nbrs = neighbors.prefix(count)
        values = dataset.values  # (N, m): one gather of the neighbors' rows per column
        wrong = np.zeros(dataset.n, dtype=bool)
        for column in {0, count - 1}:
            got = np.sqrt(_squared_distances(values.T, values[nbrs.indices[:, column]].T))
            wrong |= got.view(np.int64) != nbrs.distances[:, column].view(np.int64)
        if wrong.any():
            row = int(np.argmax(wrong))
            raise GraphError(f"neighbors row {row}: the listed distances are not this "
                             "dataset's")
    for lists in (nbrs.indices, nbrs.distances):
        if lists.base is None:  # made for this build, not a view of the caller's
            lists.setflags(write=True)
    return nbrs


def _window_exponents(distances: np.ndarray) -> np.ndarray:
    """Per-row power-of-two exponent e that puts 2^-e times the row's middle
    candidate distance in [2^-33, 2^31): 0 for a distance already there,
    else a multiple of 64.  The rows are sorted, so no median pass is needed.
    """
    _, x = np.frexp(distances[:, distances.shape[1] // 2])
    return (x + 32) // 64 * 64


def _calibrated(nbrs: NeighborLists, target: float, solve, threads: int | None):
    """`solve` run over row blocks of the distance lists on the kNN pool.

    solve(distances, target) returns (sigma, achieved, converged, weights)
    for its rows.  A block holds `block_rows(k)` rows, the kNN block
    budget, and writes only its own rows; each row's bisection reads its
    row alone, so neither blocks nor `threads` change a bit.

    Each row is first scaled by the exact power of two 2^-e of
    `_window_exponents`, so the bisection's fixed log10 sigma window fits
    data of any scale: both methods' weights depend on the distances only
    through their ratios to sigma, and sigma is scaled back, exactly, to
    the caller's units.  A block whose rows all have e = 0 is not touched.

    Writable distances are the build's own (see `_neighbor_lists`): each
    block writes its weights over its own rows of them, once `solve` has
    read those rows, and the weights are that array.  Read-only ones are
    the caller's and are left as they are; the weights are then new.
    """
    n, k = nbrs.n, nbrs.k
    chunk = block_rows(k)
    sigma, achieved = np.empty(n), np.empty(n)
    converged = np.empty(n, dtype=bool)
    weights = nbrs.distances if nbrs.distances.flags.writeable else np.empty((n, k))

    def block(start: int) -> None:
        rows = slice(start, start + chunk)
        distances = nbrs.distances[rows]
        exponents = _window_exponents(distances)
        scaled = exponents.any()
        if scaled:
            distances = np.ldexp(distances, -exponents[:, None])
        s, achieved[rows], converged[rows], weights[rows] = solve(distances, target)
        sigma[rows] = np.ldexp(s, exponents) if scaled else s

    run_blocks(block, range(0, n, chunk), threads)
    return BandwidthCalibration(sigma, achieved, target, converged), weights


def _tsne_screen_scale(k: int) -> float:
    """m such that m (got' + target + tol) is the t-SNE screen's margin over k candidates.

    Notation per row (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1): u = 2^-53, gamma_m = m u / (1 - m u), and LIB =
    2^-40, an assumed bound on the relative error of np.exp, np.log,
    np.exp2 and of the libm log inside xlogy for normal results: about
    4096 ulps, against the few ulps these functions promise.  Both paths
    share t_j = -d2s_j / c (c = 2 sigma^2), e_j = exp(t_j) in [0, 1] with
    e_0 = 1, and S, the sum of the e_j.  Take as reference G = -sum q_j
    ln q_j, q_j = e_j / S in exact arithmetic.  The sum of the e_j is
    S (1 + theta), |theta| <= gamma_k, and every entropy below, exact,
    screened or rounded, is at most l = ln k + 1; errors are written to
    first order, the slack of the constants holding the rest.
    - A normal e_j is exp(t_j) (1 + delta), |delta| <= LIB, so ln e_j is
      within 1.01 LIB of t_j, and G = (1 + theta) ln S + T + rho with
      T = -sum e_j t_j / S and |rho| <= 1.02 LIB.
    - The screen's got' = exp(log S - einsum(e, t) / S): the einsum's k
      products and k - 1 adds in any order and the division by S put
      gamma_{k+1} l on T, log puts LIB l on ln S, the subtraction 2 u l,
      exp 1.01 LIB on ln got'.  So |ln got' - G| <= (LIB + 2u + 2
      gamma_{k+1}) l + 2.03 LIB.
    - The exact path rounds p_j = e_j / S by u; its xlogy term p_j log p_j
      is within (LIB + 3u) q_j |ln q_j| + 1.01 u q_j of q_j ln q_j,
      1.02 u + (LIB + 3u) l summed; its pairwise sum adds gamma_k l, the
      division by _LN2 (ln 2 within LIB, then rounded) (LIB + 2u) l and
      exp2 1.01 LIB.  So |ln got - G| <= (2 LIB + 5u + gamma_k) l +
      1.01 LIB + 1.02 u.
    - A term whose e_j or p_j is subnormal or zero falls outside these
      relative bounds.  With e_j = 0 it is 0 on both paths (or NaN for
      t_j = -inf, which the rule sends to the exact path); otherwise
      |t_j| < 746, and each path's term, together with the underflow of a
      product e_j t_j, is below 2^-1011: an absolute floor k 2^-1000 on
      the entropy.
    Their sum, Delta <= (l + 1) (4 LIB + 3 gamma_{k+1}) + k 2^-1000,
    bounds |ln got - ln got'|, so |got - got'| <= 1.01 Delta got'.  The
    factor 2 in m covers that 1.01 and the roundings of m, of the margin
    and of the rule's tests, each below 4u (got' + target + tol).  So the
    same Delta settles both edges of the tolerance band:
    - outer edge: where |got' - target| > tol + margin, got lies on the
      same side of target and the exact path's own test sees |got -
      target| above tol by more than its rounding;
    - inner edge: where |got' - target| <= tol - margin, that test sees
      |got - target| at or below tol - (margin - 1.01 Delta got'), below
      tol by more than its rounding, so the row converges there too.
    """
    lib = 2.0 ** -40
    ku = (k + 1) * 2.0 ** -53
    return 2.0 * ((math.log(k) + 2.0) * (4.0 * lib + 3.0 * ku / (1.0 - ku)) + k * 2.0 ** -1000)


def xlogy(x, y):
    """x log(y), and 0 where x == 0 and y is not NaN, without scipy.

    The log is libm's, which math.log wraps and scipy.special.xlogy
    calls, so the bits are scipy's wherever y is not negative or NaN
    (there both give a NaN); numpy's own log rounds differently.
    math.log takes positive y only: y = 0 gets -inf and a negative or NaN
    y gets NaN here.  The values pass through math.log _LOG_CHUNK at a
    time, so the temporaries stay small.  `_perplexities` looks the name
    up in this module at each call, so a test can patch it.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.empty(x.shape)
    flat_x, flat_y, flat_out = x.ravel(), y.ravel(), out.reshape(-1)
    for start in range(0, out.size, _LOG_CHUNK):
        part = slice(start, start + _LOG_CHUNK)
        xs, ys, logs = flat_x[part], flat_y[part], flat_out[part]
        inside = ys > 0.0
        logs[:] = list(map(math.log, np.where(inside, ys, 1.0).tolist()))
        logs[~inside] = np.where(ys[~inside] == 0.0, -math.inf, math.nan)
        zero = (xs == 0.0) & ~np.isnan(ys)
        np.multiply(logs, xs, out=logs, where=~zero)  # 0 * -inf would warn
        logs[zero] = 0.0
    return out


def _perplexities(p):
    """2 to the entropy in bits of each row of conditionals p."""
    return np.exp2(-xlogy(p, p).sum(axis=1) / _LN2)


def _tsne_rows(distances: np.ndarray, target: float):
    """`_calibrated`'s t-SNE solve over rows of ascending distances.

    A converged row's achieved value may be the screen's, within the
    same band as the exact one; `tsne_calibration` restores the exact one.

    The screen's margin assumes e_j <= 1, that is no distance below the
    row's first: `NeighborLists` holds rows ascending and `_calibrated`
    scales each by one exact power of two, which keeps them so.
    """
    d2 = distances * distances
    nd2s = d2 - d2[:, :1]  # shift by the row minimum: conditionals unchanged
    del d2
    np.negative(nd2s, out=nd2s)  # once here, not in every evaluation
    scale = _tsne_screen_scale(nd2s.shape[1])

    def exponents(rows, sigma, out=None):  # a new array unless `out` is given
        c = (2.0 * np.square(sigma))[:, None]
        if rows.size == nd2s.shape[0]:  # every row, in order: no gather
            return np.divide(nd2s, c, out=out)
        # ids from the bisection's `active` are in range; mode="raise" would
        # buffer a copy of the gather
        t = np.take(nd2s, rows, axis=0, out=out, mode="clip")
        t /= c
        return t

    def conditionals(rows, sigma, out=None):
        e = exponents(rows, sigma, out)
        np.exp(e, out=e)
        e /= e.sum(axis=1, keepdims=True)
        return e

    def row_objective(rows, sigma):
        return _perplexities(conditionals(rows, sigma))

    # the screen's t and e, reused by every step: fresh arrays of a new
    # size each step raised peak RSS by about 3.5 MB on 3000 points, 2 threads
    buffers = np.empty((2, *nd2s.shape))

    def step(rows, sigma):
        # Hbeta of van der Maaten & Hinton (2008): H = ln S + sum e_j d_j / (2 sigma^2 S)
        t = exponents(rows, sigma, out=buffers[0, :rows.size])
        e = np.exp(t, out=buffers[1, :rows.size])
        total = e.sum(axis=1)
        got = np.einsum("ij,ij->i", e, t)
        got /= total
        np.subtract(np.log(total), got, out=got)
        np.exp(got, out=got)
        # the screen's value, kept outside `close`, and the exact one lie in
        # one band: both within tol of target, or both beyond it on one side
        # (see _tsne_screen_scale).  A NaN screen value is close.
        margin = scale * (got + (target + CALIBRATION_TOL))
        off = np.abs(got - target)
        close = ~((off <= CALIBRATION_TOL - margin) | (off > CALIBRATION_TOL + margin))
        if close.any():
            p = e[close]
            p /= total[close, None]
            got[close] = _perplexities(p)
        return got

    n = nd2s.shape[0]
    sigma, achieved, converged = _bisect_bandwidth(row_objective, n, target, step=step)
    # the weights go into the screen's spent buffer: one block fewer per worker
    return sigma, achieved, converged, conditionals(np.arange(n), sigma, buffers[0])


def _parts(method: str, nbrs: NeighborLists, k, threads: int | None):
    """Calibration and directed weights over the neighbor lists: t-SNE's
    conditionals p_{j|i} at perplexity k, or UMAP's memberships."""
    if method == "tsne":
        return _calibrated(nbrs, float(k), _tsne_rows, threads)
    return _calibrated(nbrs, math.log2(nbrs.k), _umap_rows, threads)


def tsne_calibration(dataset: Dataset, perplexity: float) -> BandwidthCalibration:
    """Bandwidths solving 2^H(p_.|i) = perplexity over the candidate neighbors.

    The kNN pass and the calibration run on the usable cores.
    """
    count = neighbor_count("tsne", dataset.n, perplexity)
    cal, conditionals = _parts("tsne", exact_knn(dataset, count), perplexity, None)
    # a converged row's bisection may end on the screen's value; its exact
    # value is that of its conditionals, the p of its last step
    cal.achieved[cal.converged] = _perplexities(conditionals[cal.converged])
    return cal


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
    kNN pass runs; the graph is the same.  `threads` caps the worker
    threads of the kNN pass and of the calibration (see `run_blocks`);
    it never changes a byte.
    """
    return _build("tsne", dataset, perplexity, prune_eps, neighbors, threads)


def _build(method: str, dataset: Dataset, k, prune_eps, neighbors: NeighborLists | None,
           threads: int | None) -> RelationshipGraph:
    """The `method` graph at size k: the body of both builders.

    A record-sized array the build made is written over once read: the
    weights over a fresh pass's (or a prefix copy's) distances, the pair
    keys over its ids, each kept pair's key over the sorted record keys
    and its j over that key.  The graph takes the edge arrays without a
    copy, so its j, and its weights where pairs were pruned, are the
    start of the larger arrays they were made in.
    """
    n = dataset.n
    count = neighbor_count(method, n, k)
    _check_key_room(n, count)  # before the kNN pass
    if method == "tsne":
        floor = default_prune_eps(n) if prune_eps is None else _checked_prune_eps(prune_eps)

        def combine(first, second):  # (p_{j|i} + p_{i|j}) / (2N), in place
            first += second
            first /= 2.0 * n
            return first

        param, options = float(k), {"prune_eps": floor, "candidates": count}
    else:
        floor, combine, param, options = 0.0, fuzzy_union, int(k), {}
    nbrs = _neighbor_lists(dataset, count, neighbors, threads)
    cal, values = _parts(method, nbrs, k, threads)
    key = _pair_keys(nbrs.indices)
    del nbrs  # the lists: freed unless they hold the keys or the weights
    key, w = _pair_edges(n, key, values, combine, floor)
    del values  # freed before the keys are split into the endpoints
    i, j = np.divmod(key, n, out=(np.empty_like(key), key))  # j over the keys
    del key
    options["non_converged"] = int(np.count_nonzero(~cal.converged))
    return RelationshipGraph._adopt(n, i, j, w, GraphProvenance(method, param, options))


def _check_key_room(n: int, k: int) -> None:
    """GraphError unless `_pair_keys` of n vertices with k neighbors each
    fit int64, that is 2k n^2 < 2^63."""
    if 2 * k * n * n > _INT64_MAX:
        raise GraphError(f"{n} vertices with {k} neighbors each are too many: the "
                         "pair keys need 2*k*n^2 below 2^63")


def _pair_keys(ids: np.ndarray) -> np.ndarray:
    """The key (min*n + max)*2k + side*k + slot of each record of the (n, k)
    neighbor `ids`, as an (n, k) int64 array.

    A record's side is 1 where its source is the pair's larger end, its
    slot its column, so sorted keys group each pair's records and every
    key names its record.  Writable ids are the build's own (see
    `_neighbor_lists`) and get the keys written over them, a block of
    `block_rows(k)` rows at a time; read-only ones are left as they are.
    The keys fit int64 where `_check_key_room` passes.
    """
    n, k = ids.shape
    key = ids if ids.flags.writeable else np.empty_like(ids)
    slots = np.arange(k, dtype=np.int64)
    chunk = block_rows(k)
    for start in range(0, n, chunk):
        ends = ids[start:start + chunk]
        sources = np.arange(start, start + ends.shape[0], dtype=np.int64)[:, None]
        packed = np.minimum(ends, sources)
        packed *= n - 1
        packed += ends
        packed += sources  # min*n + max, as min + max = i + j
        packed *= 2 * k
        packed += slots
        np.add(packed, k, out=packed, where=ends < sources)
        key[start:start + chunk] = packed
    return key


def _pair_edges(n, key, values, combine, floor):
    """The unordered pairs of directed (source, neighbor, value) records, as
    (pair keys, weights).

    `key` holds `_pair_keys` of the (n, k) neighbor lists and `values`
    the records' (n, k) values; no row repeats a neighbor, so a pair has
    one or two records.  Returns each kept pair's int64 min*n + max key,
    ascending, and its float64 w = combine(first, second) of the pair's
    two values, second 0 where only one direction exists; pairs with
    w <= floor are dropped.  Which direction comes first is not pinned,
    so `combine` must be symmetric; it may overwrite its arguments.

    `key` is sorted in place, and the kept pairs' keys are written over
    its start: the keys returned are a view of it, and the weights one of
    an array sized for every pair.  A sorted key names its record, so no
    permutation is made: the records are combined in slices of about
    `_PAIR_CHUNK`, each decoding its own keys, gathering its values and
    flagging its pairs' first records, after one pass that counts the
    pairs.  Besides the inputs only the pair weights are record-sized;
    `values` is only read.
    """
    k = values.shape[1]
    width = 2 * k  # key // width is the record's pair, min*n + max
    key = key.reshape(-1)
    key.sort()
    records = key.size
    count = min(records, 1)  # pairs: the first record's, then one per change of pair
    for start in range(1, records, _PAIR_CHUNK):
        group = key[start - 1:start + _PAIR_CHUNK] // width
        count += np.count_nonzero(group[1:] != group[:-1])
    w = np.empty(count)
    values = values.reshape(-1)
    start = pairs = 0
    while start < records:
        stop = min(start + _PAIR_CHUNK, records)
        if stop < records and key[stop] // width == key[stop - 1] // width:
            stop += 1  # a pair's second record stays with its first: a slice starts a pair
        sided, slot = np.divmod(key[start:stop], k)  # sided = 2*pair + side
        group = sided >> 1
        lo, hi = np.divmod(group, n)
        vals = values[np.where(sided & 1, hi, lo) * k + slot]  # source*k + slot
        new = np.empty(group.size + 1, dtype=bool)  # new[r]: record r starts a pair
        new[0] = new[-1] = True
        np.not_equal(group[1:], group[:-1], out=new[1:-1])
        at = np.flatnonzero(new[:-1])  # each pair's first record
        # a pair's second record, if it has one, follows its first
        second = np.where(new[at + 1], 0.0, vals.take(at + 1, mode="clip"))
        got = combine(vals[at], second)
        keep = got > floor
        kept = group[at]
        if not keep.all():
            got, kept = got[keep], kept[keep]
        # the writes end by `stop`: they reach only records already decoded
        w[pairs:pairs + got.size] = got
        key[pairs:pairs + got.size] = kept
        pairs += got.size
        start = stop
    return key[:pairs], w[:pairs]


def fuzzy_union(w_a: float, w_b: float):
    """Probabilistic OR of two membership strengths in [0, 1].

    Written as hi + lo*(1-hi) so a full-strength side yields exactly 1.0.
    """
    hi = np.maximum(w_a, w_b)
    lo = np.minimum(w_a, w_b)
    lo *= 1.0 - hi
    hi += lo
    return hi


def _umap_rows(distances: np.ndarray, target: float):
    n, n_neighbors = distances.shape
    rho = distances[:, 0]
    adj = np.maximum(distances - rho[:, None], 0.0)
    # all candidates at distance rho: membership sum is k for any sigma
    degenerate = adj.max(axis=1) == 0.0

    def row_objective(rows, sigma):
        return np.exp(-adj[rows] / sigma[:, None]).sum(axis=1)

    sigma, achieved, converged = _bisect_bandwidth(row_objective, n, target, skip=degenerate)
    sigma[degenerate] = 1.0
    achieved[degenerate] = float(n_neighbors)
    return sigma, achieved, converged, np.exp(-adj / sigma[:, None])


def umap_calibration(dataset: Dataset, n_neighbors: int) -> BandwidthCalibration:
    """Bandwidths solving sum_j exp(-max(0, d_ij - rho_i)/sigma_i) = log2(k).

    The kNN pass and the calibration run on the usable cores.
    """
    count = neighbor_count("umap", dataset.n, n_neighbors)
    return _parts("umap", exact_knn(dataset, count), n_neighbors, None)[0]


def build_umap_graph(dataset: Dataset, n_neighbors: int, *,
                     neighbors: NeighborLists | None = None,
                     threads: int | None = None) -> RelationshipGraph:
    """Fuzzy-union membership graph over the n_neighbors nearest neighbors.

    rho_i is the distance to the nearest neighbor (zero for duplicates);
    directed memberships exp(-max(0, d - rho_i)/sigma_i) are combined with
    the probabilistic OR; zero-weight pairs are omitted.  Given
    `neighbors` (lists of at least n_neighbors per vertex), their prefix
    is used and no kNN pass runs; the graph is the same.  `threads` caps
    the worker threads of the kNN pass and of the calibration (see
    `run_blocks`); it never changes a byte.
    """
    return _build("umap", dataset, n_neighbors, None, neighbors, threads)


def save_graph(graph: RelationshipGraph, path) -> None:
    """Write `{"n", "method", "param", "edges"}` JSON, edges sorted, full precision.

    The bytes are those of `json.dumps` of that document (plus
    "options" when there are any) and a newline: json writes ints with
    `int.__repr__` and finite floats with `float.__repr__`.  The head and
    tail are encoded once; the edges are rendered a slice at a time into
    one byte array (`_edge_bytes`).  A weight's shortest round-trip digits
    come from a certified computation in integers and double-doubles
    (`_shortest_digits`).  `float.__repr__` runs only for a weight that the
    certificate cannot vouch for, so the bytes never depend on the path.
    """
    prov = graph.provenance
    ei, ej, w = graph.edges_i, graph.edges_j, graph.weights
    # encoded before the file is opened: a value json cannot write leaves no file behind
    head, tail = _head_tail(graph.n_vertices, prov.method, prov.param, prov.options)
    decades = np.zeros((5, 2047))  # one column per biased exponent, see _fill_decades
    with open(path, "wb") as fh:
        fh.write(head)
        for start in range(0, graph.n_edges, _EDGE_SLICE):
            part = slice(start, start + _EDGE_SLICE)
            if start:
                fh.write(b", ")
            fh.write(_edge_bytes(ei[part], ej[part], w[part], decades)[:-2])
        fh.write(tail)


def _head_tail(n, method, param, options) -> tuple[bytes, bytes]:
    """The bytes of a graph file before and after its edges' text: the one
    definition of save_graph's layout, which _saved_edges also reads by."""
    head = (f'{{"n": {json.dumps(n)}, "method": {json.dumps(method)}, '
            f'"param": {json.dumps(param)}, "edges": [').encode()
    tail = ("]" + (f', "options": {json.dumps(options)}' if options else "") + "}\n").encode()
    return head, tail


def _edge_bytes(ei: np.ndarray, ej: np.ndarray, w: np.ndarray, decades: np.ndarray) -> np.ndarray:
    """The text "[i, j, w], " of every edge, as one uint8 array.

    Every edge gets the same columns: "[", the ids' digits right-aligned
    in as many columns as the slice's largest id needs, ", " twice, the
    weight's `_WEIGHT_ROWS` columns (`_weight_rows`) and "], ".  A column
    an edge's text does not use holds 0, and one boolean compress drops
    those.  The columns are filled as rows of a transposed array, so
    every write is contiguous.
    """
    width = len(str(max(ei.max(), ej.max())))
    rows = np.empty((2 * width + 8 + _WEIGHT_ROWS, w.size), dtype=np.uint8)
    rows[:] = np.frombuffer(b"".join((b"[", bytes(width), b", ", bytes(width), b", ",
                                      bytes(_WEIGHT_ROWS), b"], ")), np.uint8)[:, None]
    _id_rows(ei, rows[1:1 + width])
    _id_rows(ej, rows[3 + width:3 + 2 * width])
    _weight_rows(*_shortest_digits(w, decades), rows[5 + 2 * width:-3])
    table = np.ascontiguousarray(rows.T)
    return table[table != 0]


def _digit_rows(values: np.ndarray, rows: np.ndarray) -> None:
    """The last len(rows) decimal digits of nonnegative `values` as ASCII, one row each."""
    x = values.astype(np.uint32 if len(rows) <= 9 else np.uint64)
    for row in rows[::-1]:
        q = x // 10
        np.subtract(x, q * 10, out=row, casting="unsafe")
        row += 48
        x = q


def _id_rows(ids: np.ndarray, rows: np.ndarray) -> None:
    """`ids` in decimal, right-aligned in `rows`, leading zeros as 0 bytes."""
    _digit_rows(ids, rows)
    for k, row in enumerate(rows[:-1]):
        row *= ids >= 10 ** (len(rows) - 1 - k)


def _weight_rows(digits: np.ndarray, point: np.ndarray, rows: np.ndarray) -> None:
    """`float.__repr__` of 0.d1d2...d17 * 10**point in the `_WEIGHT_ROWS` rows of `rows`.

    `digits` holds d1...d17 (d1 > 0) as an int.  Rows: "0", ".", three
    zeros, 18 rows of the digits with a "." after the digits before the
    point, then "e", the exponent's sign and three digits; a row an
    element's text does not use holds 0.  Python writes 1e-4 <= w < 1e16
    in positional notation ("0.000ddd", "ddd.ddd", "ddd00.0") and any
    other value as "d.ddde-XX", with no "." for one digit and at least
    two exponent digits.
    """
    figures = np.zeros((18, point.size), dtype=np.uint8)  # row 17 is never read
    top = digits // 10 ** 8
    _digit_rows(top, figures[:9])
    _digit_rows(digits - top * 10 ** 8, figures[9:17])
    point = point.astype(np.int16)
    count = np.full(point.size, 17, dtype=np.int16)  # significant digits
    zeros = np.ones(point.size, dtype=bool)
    for row in figures[16:0:-1]:
        zeros &= row == 48
        count -= zeros
    sci = (point < -3) | (point > 16)
    small = ~sci & (point <= 0)  # "0.000ddd": no "." among the digits
    lead = np.where(sci, 1, np.where(small, 17, point))  # digits before the "."
    end = np.where(sci, count, np.maximum(count, point + 1))  # digits written
    k = np.arange(18, dtype=np.int16)[:, None]
    body = rows[5:23]
    body[0] = figures[0]
    body[1:] = np.where(k[1:] < lead, figures[1:], np.where(k[1:] == lead, 46, figures[:17]))
    body *= k < end + (end > lead)
    rows[0] = small
    rows[1] = small
    rows[2:5] = small & (point < -k[:3])
    rows[0:5] *= np.array([48, 46, 48, 48, 48], dtype=np.uint8)[:, None]
    exp = rows[23:]
    exp[0] = 101
    exp[1] = np.where(point > 0, 43, 45)  # "+" or "-"
    exponent = np.abs(point - 1)
    _digit_rows(exponent, exp[2:])
    exp[2] *= exponent >= 100
    exp *= sci


def _fill_decades(decades: np.ndarray, biased: np.ndarray) -> None:
    """Fill the columns of `decades` for the biased exponents in `biased` still empty.

    Column b holds p, then C = 10**p * 2**e in [1e16, 1e17), e = b - 1023,
    as the double-double hi + lo (hi = fl(C)), then hi's Veltkamp halves.
    The columns are made with exact integer arithmetic, for the
    exponents met only, so importing the module costs nothing.  Column 0
    (subnormals) stays empty.
    """
    wanted = (np.bincount(biased, minlength=decades.shape[1]) > 0) & (decades[1] == 0)
    wanted[0] = False
    for b in np.flatnonzero(wanted).tolist():
        e = b - 1023
        p = 16 - math.floor(e * math.log10(2.0))
        while True:
            num, den = 10 ** max(p, 0) << max(e, 0), 10 ** max(-p, 0) << max(-e, 0)
            if num < 10 ** 16 * den:
                p += 1
            elif num >= 10 ** 17 * den:
                p -= 1
            else:
                break
        hi = num / den  # int true division rounds correctly
        a, scale = hi.as_integer_ratio()
        split = hi * _SPLITTER
        hi_h = split - (split - hi)
        decades[:, b] = p, hi, (num * scale - a * den) / (den * scale), hi_h, hi - hi_h


def _shortest_digits(w: np.ndarray, decades: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits and point of `float.__repr__` of positive finite `w` (see `_weight_rows`).

    For a normal w = m * 2**e, V = m * C (C from `_fill_decades`) is w
    in units of its 17th significant digit.  m * hi is an exact Dekker
    two-product, so V is held as the int64 floor(V) plus a fraction, to
    within 1e-14.  The values that read back as w lie within half an ulp,
    C * 2**-53 units (a quarter below a power of two): an interval 1.6
    to 22.3 units wide.  The shortest digits are a multiple of the
    largest power of ten in it.  At most one multiple of 100 fits, and it
    is the answer when there is one; otherwise the multiple of 10, or
    else of 1, nearest V is taken, clamped into the interval.  A value
    whose interval reaches 1e17 gets 18 digits, the last a zero; that
    seam is read from the chosen integer, never from a rounded product.
    Every decision compares a fraction with an integer or with one half.
    An element with one of them within `_REPR_MARGIN`, or a subnormal,
    gets its digits from `float.__repr__` instead (`_repr_digits`).
    """
    bits = w.view(np.int64)
    biased = bits >> 52
    fraction = bits & ((1 << 52) - 1)
    _fill_decades(decades, biased)
    p, hi, lo, hi_h, hi_l = decades[:, biased]
    m = (fraction | (1023 << 52)).view(np.float64)
    split = m * _SPLITTER
    m_h = split - (split - m)
    m_l = m - m_h
    head = m * hi  # an integer, as it is at least 1e16 > 2**53
    tail = ((m_h * hi_h - head) + m_h * hi_l + m_l * hi_h) + m_l * hi_l + m * lo
    whole = np.floor(tail)
    floor_v = head.astype(np.int64) + whole.astype(np.int64)
    frac = tail - whole
    gap = hi * 2.0 ** -53
    below = frac - np.where((fraction == 0) & (biased > 1), 0.5 * gap, gap)
    above = frac + gap
    first, last = np.ceil(below), np.floor(above)
    certain = (biased > 0) & _clear(first - below) & _clear(above - last)
    low = floor_v + first.astype(np.int64)
    high = floor_v + last.astype(np.int64)
    span = high - low
    tenth = high // 10  # numpy's % by a constant is several times slower than //
    tens, hundreds = high - 10 * tenth, high - 100 * (tenth // 10)
    units = floor_v - 10 * (floor_v // 10)
    off = units + frac  # V above the multiple of 10 at or below it
    nearest = floor_v - units + 10 * (off > 5)
    nearest += 10 * ((nearest < low).astype(np.int64) - (nearest > high))
    digits = np.where(hundreds <= span, high - hundreds,
                      np.where(tens <= span, nearest, np.clip(floor_v + (frac > 0.5), low, high)))
    halfway = np.where(tens <= span, off - 5, frac - 0.5)
    certain &= (hundreds <= span) | (np.abs(halfway) > _REPR_MARGIN)
    over = digits >= 10 ** 17
    digits = np.where(over, digits // 10, digits)
    point = 17 + over - p.astype(np.int64)
    if not certain.all():
        miss = np.flatnonzero(~certain)
        digits[miss], point[miss] = _repr_digits(w[miss])
    return digits, point


def _clear(distance: np.ndarray) -> np.ndarray:
    """Whether each `distance` to the integer below is more than `_REPR_MARGIN` from both ends."""
    return (distance > _REPR_MARGIN) & (distance < 1.0 - _REPR_MARGIN)


def _repr_digits(values: np.ndarray) -> tuple[list, list]:
    """The digits and point (see `_weight_rows`) of `float.__repr__` of `values`."""
    digits, points = [], []
    for text in map(float.__repr__, values.tolist()):
        mantissa, _, exponent = text.partition("e")
        whole, _, fraction = mantissa.partition(".")
        figures = (whole + fraction).lstrip("0")
        digits.append(int(figures.rstrip("0").ljust(17, "0")))
        points.append(len(figures) - len(fraction) + int(exponent or 0))
    return digits, points


def _json_edges(edges: list):
    """(i, j, weight) arrays of parsed JSON edges, and the first type fault or None.

    An edge is [int, int, number], booleans excluded.  The arrays stop
    before the first edge that is not, so a rule an earlier edge breaks
    is named first.
    """
    if set(map(type, edges)) <= {list} and set(map(len, edges)) <= {3}:
        flat = list(chain.from_iterable(edges))
        fi, fj, fw = flat[0::3], flat[1::3], flat[2::3]
        weight_types = set(map(type, fw))
        if set(map(type, fi)) | set(map(type, fj)) <= {int} and weight_types <= {int, float}:
            w = _float_values(fw)
            try:
                return np.array(fi, dtype=np.int64), np.array(fj, dtype=np.int64), w, None
            except OverflowError:  # past int64: exact objects, so a broken rule shows the value
                return np.array(fi, dtype=object), np.array(fj, dtype=object), w, None
    for t, edge in enumerate(edges):
        if type(edge) is not list or len(edge) != 3:
            fault = "expected [i, j, weight]"
        elif type(edge[0]) is not int or type(edge[1]) is not int:
            fault = "endpoints must be integers"
        elif type(edge[2]) not in (int, float):
            fault = "weight must be a number"
        else:
            continue
        return (*_json_edges(edges[:t])[:3], f"edges[{t}]: {fault}")


def _read_graph(path) -> RelationshipGraph:
    """The graph of the JSON file at `path`, parsed as one document."""
    path = Path(path)
    return _graph(path, _json_object(path, GraphError))


def _graph(path: Path, doc: dict, *edges) -> RelationshipGraph:
    """The graph of `doc`, the parsed file at `path`: its header checks and constructor.

    `edges` are the (i, j, weight) arrays of its edge list when they were
    read apart from `doc`; otherwise `doc["edges"]` holds the list.
    """
    for key in ("n", "method", "edges"):
        if key not in doc:
            raise GraphError(f"{path}: missing key {key!r}")
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise GraphError(f"{path}: 'n' must be a positive integer, got {n!r}")
    if not isinstance(doc["edges"], list):
        raise GraphError(f"{path}: 'edges' must be an array")
    ei, ej, w, fault = (*edges, None) if edges else _json_edges(doc["edges"])
    options, param = doc.get("options", {}), doc.get("param")
    provenance = GraphProvenance("external")  # stands in while a fault waits
    if fault is None and not isinstance(options, dict):
        fault = "'options' must be an object"
    elif fault is None and param is not None and type(param) not in (int, float):
        fault = "'param' must be a number or null"
    elif fault is None:
        try:
            provenance = GraphProvenance(doc["method"], param, options)
        except GraphError as exc:
            fault = str(exc)
    try:
        # the edges before a waiting fault go first, as they are read in order
        graph = RelationshipGraph(n, ei, ej, w, provenance)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None
    if fault is not None:
        raise GraphError(f"{path}: {fault}")
    return graph


def _saved_edges(path: Path):
    """(document, i, j, weights) of the graph file at `path` if it holds
    exactly the bytes save_graph writes, else None.

    The document with its edge list emptied is parsed once and must
    render back, through `_head_tail`, to the bytes before and after the
    list.  The list is parsed about `_LOAD_BYTES` at a time, each chunk
    cut at a "], [" and read as one JSON array of edges, which is copied
    into the edge arrays before the next chunk is parsed.  None means
    these bytes are not vouched for: any other layout, spelling or
    encoding, a chunk that is not JSON, or an edge that `_json_edges`
    faults or whose id is past int64.  The whole-document reader then
    reads the file.
    """
    data = _file_bytes(path, GraphError)
    marker = b'"edges": ['
    start = data.find(marker) + len(marker)
    if start < len(marker) or data[start:start + 1] not in (b"[", b"]"):
        return None
    end = start if data[start] == ord("]") else data.find(b"]]", start) + 1
    if end == 0:
        return None
    try:
        doc = json.loads(data[:start] + data[end:])
    except (ValueError, RecursionError):
        return None
    if not (isinstance(doc, dict) and _head_tail(
            doc.get("n"), doc.get("method"), doc.get("param"), doc.get("options"))
            == (data[:start], data[end:])):
        return None
    count = data.count(b"[", start, end)  # one per edge, once every chunk reads as numeric edges
    ei, ej, w = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64), np.empty(count)
    view, filled = memoryview(data), 0
    while start < end:
        cut = data.find(b"], [", start + _LOAD_BYTES, end)
        stop = end if cut < 0 else cut + 1
        try:
            edges = json.loads(b"".join((b"[", view[start:stop], b"]")))
        except (ValueError, RecursionError):
            return None
        i, j, weights, fault = _json_edges(edges)
        del edges  # freed before the next chunk is parsed
        if fault is not None or i.dtype != np.int64:  # an id past int64 is an object
            return None
        done = filled + weights.size
        ei[filled:done], ej[filled:done], w[filled:done] = i, j, weights
        start, filled = stop + 2, done
    return doc, ei, ej, w


def load_graph(path) -> RelationshipGraph:
    """Read a graph file; errors name it, and a bad edge's index and broken rule.

    A file that holds exactly the bytes `save_graph` writes is parsed a
    chunk of its edge list at a time (`_saved_edges`), so that only one
    chunk's Python lists are alive at once: the peak is about the file's
    size, plus 24 bytes per edge, plus one chunk.  Any other layout
    (reordered or repeated keys, other whitespace or number spellings, a
    byte-order mark) and any edge of the wrong type is read as one
    document, at about 246 bytes per edge.  Both readers give the same
    graph and the same messages.  The cyclic collector is paused while the
    file is read: json's lists hold no cycles, yet every collection they
    set off would walk them all.  The collector's state is restored on
    every exit, so one the caller switched off stays off.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        path = Path(path)
        saved = _saved_edges(path)
        return _read_graph(path) if saved is None else _graph(path, *saved)
    finally:
        if collecting:
            gc.enable()
