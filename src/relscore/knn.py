"""Exact k-nearest-neighbor lists under the Euclidean metric.

Exact on purpose: neighborhood correctness is the whole point
downstream, so no approximate index is used.  Every returned distance
is the square root of a squared distance D of `_squared_distances`,
accumulated feature by feature (subtract, square, add) in feature
order, and the lists are those of a full O(N^2 m) pass over every pair.

Rows are processed one block at a time.  A block holds at most
2**16 // N rows, so each N-wide temporary stays at or under 512 KiB
whatever N is.  Each block is first screened: A = |y_i|^2 + |y_j|^2 -
2 y_i.y_j, one einsum product on a copy y of the data, centred on the
per-feature midrange and scaled by an exact power of two.  A bound eps_i
on the gap between A and D, in y's units, for every j of row i
(rounding of the product, the norms, the centring and of D itself,
underflow included; derived in `exact_knn`) makes the candidates
{j : A_ij <= A_(k) + 2 eps_i} hold every vertex at or below the k-th
smallest D, ties included.  Only those candidates get D computed, and a
stable sort by (D, id) picks the k.  A block falls back to the
full-row path, D for every pair, when a row has more than 4k candidates
(tie-heavy data such as integer grids) or when a threshold, taken back
to D's units and doubled twice, is not finite (squared distances near
overflow).  The screen uses `np.einsum`, not a BLAS
matrix product: BLAS would start its own threads inside each
`run_blocks` worker and oversubscribe the cores, and the bound holds
for any summation order, so einsum's order is as good as any.

Blocks run on `run_blocks`, the one pool of worker threads in relscore
(numpy releases the GIL), which bandwidth calibration in `graphs`
shares; each block writes only its own rows of the result.  Both paths
give a row the same bits, computed from that row alone, so neither the
block size nor the number of workers changes a bit of the result.
`threads` caps the workers of both the kNN pass and calibration, and
never changes a byte.

In the full-row path, selection avoids a full-row sort: `np.partition`
finds the k-th smallest squared distance of each row, every column
strictly below it is kept, ties at it are kept in ascending id up to k,
and only the k kept values are stably sorted.  The lists therefore
equal the first k columns of a stable full-row argsort, ordered by
(distance, id), and the top-k lists are exact prefixes of the top-K
lists for every k <= K.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset

__all__ = [
    "NeighborLists", "KnnError", "block_rows", "check_threads", "euclidean",
    "exact_knn", "run_blocks", "usable_cores",
]

_BLOCK_DOUBLES = 1 << 16  # per block temporary, kNN and calibration: 512 KiB
_CANDIDATES_PER_K = 4  # a block with a row of more screen candidates falls back


class KnnError(ValueError):
    """Invalid neighbor-query parameters."""


@dataclass(frozen=True)
class NeighborLists:
    """Per-vertex neighbor ids and distances, ascending by (distance, id).

    Self is never listed.  indices and distances are (N, k) arrays.
    """

    indices: np.ndarray
    distances: np.ndarray
    k: int

    def __post_init__(self):
        self.indices.setflags(write=False)
        self.distances.setflags(write=False)

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    def prefix(self, k: int) -> NeighborLists:
        """The k nearest per vertex, as contiguous copies of the first k columns.

        Lists ordered by (distance, id) make this exactly what a k-query
        would return.
        """
        k = int(k)
        if not 1 <= k <= self.k:
            raise KnnError(f"prefix k must be in [1, {self.k}], got {k}")
        return NeighborLists(
            indices=np.ascontiguousarray(self.indices[:, :k]),
            distances=np.ascontiguousarray(self.distances[:, :k]),
            k=k,
        )


def euclidean(a, b) -> float:
    """Euclidean norm of a - b; the vectors must share one dimension."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise KnnError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.sqrt(np.sum(d * d)))


def usable_cores() -> int:
    """CPUs this process may run on; os.cpu_count() where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def check_threads(threads: int | None) -> int:
    """The worker-thread cap `threads` stands for: None means the usable cores."""
    if threads is None:
        return usable_cores()
    if threads < 1:
        raise KnnError(f"threads must be positive, got {threads}")
    return threads


def block_rows(width: int) -> int:
    """Rows per block of `width`-wide temporaries: max(1, 2**16 // width)."""
    return max(1, _BLOCK_DOUBLES // width)


def run_blocks(fn, starts, threads: int | None) -> None:
    """Call fn(start) for every start on min(threads, usable cores, blocks) workers.

    `threads` is checked by `check_threads`.  Each call must write only
    its own block's part of a result; the first error a block raised is
    raised here.
    """
    workers = min(check_threads(threads), usable_cores(), len(starts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(fn, starts):  # re-raises a block's error
            pass


def _squared_distances(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sum over features f of (left[f] - right[f])**2, broadcast, in feature order.

    The one accumulation behind every distance `exact_knn` returns, for
    the full rows of the fallback and the screened candidates alike.
    Accumulating (a-b)^2 feature by feature keeps peak memory at two
    result-sized temporaries and makes d2[i,j] == d2[j,i] exactly, since
    both sides sum identical squares in the same feature order.
    """
    d2 = np.zeros(np.broadcast_shapes(left.shape[1:], right.shape[1:]))
    diff = np.empty_like(d2)
    for f in range(left.shape[0]):
        np.subtract(left[f], right[f], out=diff)
        np.multiply(diff, diff, out=diff)
        d2 += diff
    return d2


def _screen_frame(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The screen's copy of the (m, N) columns: (y, squared norms, eps, e).

    y = (x - c) * 2**-e, with c the per-feature midrange and e the
    exponent of max|x - c|, so every |y| < 1 and the scaling is exact.
    eps[i] bounds |A[i, j] - D[i, j] * 4**-e| over every j, where A is
    the screen value of `_screen_block` and D the squared distance of
    `_squared_distances` (bound derived in `exact_knn`).
    """
    m = columns.shape[0]
    low, high = columns.min(axis=1), columns.max(axis=1)
    centre = 0.5 * low + 0.5 * high
    # rounding is monotone, so the extremes of each column give max|x - c|
    _, e = np.frexp(np.max(np.maximum(high - centre, centre - low)))
    e = int(e)
    y = columns - centre[:, None]
    np.ldexp(y, -e, out=y)
    norms = np.einsum("fj,fj->j", y, y)
    lengths = np.sqrt(norms)
    with np.errstate(over="ignore"):
        floor = np.ldexp(float(m), -1070) + np.ldexp(float(m), -1070 - 2 * e)
    eps = (m + 3) * 2.0**-50 * (lengths + lengths.max()) ** 2 + floor
    return y, norms, eps, e


def _screen_block(y: np.ndarray, norms: np.ndarray, rows: slice) -> np.ndarray:
    """A[i, j] = |y_i|^2 + |y_j|^2 - 2 y_i.y_j for the rows i of the block, every j.

    One einsum product, which numpy computes without BLAS, so the
    `run_blocks` workers start no BLAS threads of their own.
    """
    a = np.einsum("fi,fj->ij", -2.0 * y[:, rows], y)
    a += norms[rows, None]
    a += norms
    return a


def _smallest_stable(d2: np.ndarray, k: int) -> np.ndarray:
    """Column ids of the k smallest entries per row, ordered by (value, id).

    Equal to np.argsort(d2, axis=1, kind="stable")[:, :k]; d2 must hold
    no NaN.
    """
    if k >= d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1, None]
    keep = d2 <= kth
    tied = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if tied.size:
        # more than k entries at or below the k-th value: keep those
        # strictly below, then the smallest ids among those equal to it
        rows, at_kth = d2[tied], kth[tied]
        below = rows < at_kth
        at = rows == at_kth
        room = k - np.count_nonzero(below, axis=1)
        keep[tied] = below | (at & (np.cumsum(at, axis=1) <= room[:, None]))
    cols = np.nonzero(keep)[1].reshape(-1, k)  # ascending id per row
    order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def exact_knn(dataset: Dataset, k: int, *, threads: int | None = None) -> NeighborLists:
    """The k nearest other vertices per vertex, ties broken by smaller id.

    Distances are computed `block_rows(N)` rows at a time.  `threads`
    caps the worker threads of `run_blocks` (default and upper limit:
    the usable cores; never more than there are blocks); it never
    changes the result.
    """
    n = dataset.n
    k = int(k)
    if not 1 <= k <= n - 1:
        raise KnnError(f"k must be in [1, {n - 1}], got {k}")
    chunk = block_rows(n)
    columns = np.ascontiguousarray(dataset.values.T)
    y, norms, eps, e = _screen_frame(columns)
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))

    def screened(rows: slice) -> tuple[np.ndarray, np.ndarray] | None:
        # Why the candidates hold the k nearest.  With u = 2**-53,
        # T = |x_i - x_j|^2 4**-e exactly and b = (|y_i| + max_j |y_j|)^2:
        # - A expands into 3m products of entries of y; each passes at
        #   most m + 2 roundings (its product, m - 1 adds of its einsum
        #   sum in any order, the two adds of the norms), so
        #   |A - |y_i - y_j|^2| <= gamma_{m+2} b, gamma_n = n u / (1 - n u)
        #   (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
        # - Centring rounds each entry of y by at most u|y|, so
        #   ||y_i - y_j| - sqrt(T)| <= u sqrt(b) and
        #   ||y_i - y_j|^2 - T| <= (2u + u^2) b.
        # - D passes m differences, m squares and m - 1 adds in feature
        #   order: |D 4**-e - T| <= gamma_{m+2} T, with T <= (1 + u)^2 b.
        # The sum, about 2 (m + 4) u b, is below eps's 8 (m + 3) u b,
        # whose slack also covers the rounding of the norms, of eps and
        # of the threshold below.  Underflow adds at most 2**-1075 per
        # product or scaled entry: eps's floor holds it, in y's units for
        # the screen and 4**-e times that for D.  So |A - D 4**-e| <= eps
        # for every j whose D is finite.  The k smallest A then have
        # D 4**-e <= A_(k) + eps, so the k-th smallest D is at most that
        # too, and every j with D at or below it has A <= A_(k) + 2 eps:
        # ties included, the candidates hold the k nearest by (D, id).
        # Every candidate has D below 4 thr 4**e; a threshold for which
        # that bound is not finite could let D overflow, so it falls back.
        a = _screen_block(y, norms, rows)
        own = np.arange(rows.stop - rows.start)
        a[own, own + rows.start] = np.inf  # exclude self
        thr = np.partition(a, k - 1, axis=1)[:, k - 1] + 2 * eps[rows]
        with np.errstate(over="ignore"):
            if not np.isfinite(np.ldexp(thr, 2 * e + 2)).all():
                return None
        # ascending id within each row; flatnonzero is faster than nonzero
        row, cand = np.divmod(np.flatnonzero(a <= thr[:, None]), n)
        counts = np.bincount(row, minlength=thr.size)
        if counts.max() > _CANDIDATES_PER_K * k:
            return None
        d2 = _squared_distances(columns[:, row + rows.start], columns[:, cand])
        slot = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
        padded = np.full((counts.size, counts.max()), np.inf)
        padded[row, slot] = d2
        ids = np.zeros(padded.shape, dtype=np.int64)
        ids[row, slot] = cand
        order = np.argsort(padded, axis=1, kind="stable")[:, :k]  # by (D, id)
        return np.take_along_axis(ids, order, axis=1), np.take_along_axis(padded, order, axis=1)

    def block(start: int) -> None:
        rows = slice(start, min(start + chunk, n))
        found = screened(rows)
        if found is None:
            d2 = _squared_distances(columns[:, rows, None], columns[:, None, :])
            own = np.arange(rows.stop - rows.start)
            d2[own, own + start] = np.inf  # exclude self (duplicates keep 0)
            order = _smallest_stable(d2, k)
            found = order, np.take_along_axis(d2, order, axis=1)
        indices[rows], d2 = found
        distances[rows] = np.sqrt(d2)

    run_blocks(block, range(0, n, chunk), threads)
    return NeighborLists(indices=indices, distances=distances, k=k)
