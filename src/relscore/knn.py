"""Exact k-nearest-neighbor lists under the Euclidean metric.

Exact on purpose: neighborhood correctness is the whole point
downstream, so no approximate index is used.  Every returned distance
is the square root of a squared distance D of `_squared_distances`,
accumulated in float64 feature by feature (subtract, square, add) in
feature order, and the lists are those of a full O(N^2 m) pass over
every pair.

Each block of rows is first screened in float32: A = |y_i|^2 + |y_j|^2
- 2 y_i.y_j on a float32 copy y of the data, centred on the per-feature
midrange and scaled by an exact power of two.  A bound eps_i on the gap
between A and D, in y's units, for every j of row i (float32 rounding
of the product and the norms in any summation order, with or without
FMA, rounding of the centred copy to float32, D's own rounding, and
underflow; derived in `exact_knn`) makes the candidates
{j : A_ij <= A_(k) + 2 eps_i} hold every vertex at or below the k-th
smallest D, ties included.  Only those candidates get D computed, and a
stable sort by (D, id) picks the k.  A block falls back to the
full-row path, D for every pair, when a row has more than 4k candidates
(tie-heavy data such as integer grids, or clusters narrower than
float32 can resolve) or when a threshold, taken back to D's units and
doubled twice, is not finite (squared distances near overflow).

Every temporary of a block stays at or under 512 KiB (`_BLOCK_DOUBLES`
doubles) for N up to 2**16: a screen block holds max(1, 2**17 // N)
rows of float32, the candidates' D is computed in pieces of at most
2**16 // m pairs, and the full-row path works through the block in
sub-blocks of `block_rows(N)` rows of float64.  The product -2 y_i.y_j
is a BLAS float32 GEMM cut into column slices of at most
2**18 // (rows * m) columns: OpenBLAS runs a GEMM of M*N*K <= 2**18 on
the calling thread, so the `run_blocks` workers start no BLAS threads
of their own and do not oversubscribe the cores, which a full-width
GEMM did.  The bound holds for any summation order, so the GEMM
kernel's order is as good as any.

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
(D, id), and the top-k lists are exact prefixes of the top-K lists for
every k <= K.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, _shown, integer_values

__all__ = [
    "NeighborLists", "KnnError", "block_rows", "check_threads", "euclidean",
    "exact_knn", "run_blocks", "usable_cores",
]

_BLOCK_DOUBLES = 1 << 16  # per block temporary, kNN and calibration: 512 KiB
_CANDIDATES_PER_K = 4  # a block with a row of more screen candidates falls back
_GEMM_MNK = 1 << 18  # OpenBLAS runs a GEMM of M*N*K up to this on the calling thread
_SCREEN_FEATURES = 1 << 20  # the screen's bound (see `exact_knn`) needs m below this


class KnnError(ValueError):
    """Invalid neighbor-query parameters or neighbor lists."""


@dataclass(frozen=True)
class NeighborLists:
    """Per-vertex neighbor ids and distances, ascending by distance.

    indices (int64) and distances (float64) are (N, k) arrays, 1 <= k <
    N; every id is in 0..N-1 and no row lists its own vertex.  The
    constructor checks all of this and names the first bad row.  Lists
    from `exact_knn` are ordered by (squared distance, id): two squared
    distances an ulp apart can share a square root, so equal distances
    may come in either id order.
    """

    indices: np.ndarray
    distances: np.ndarray
    k: int

    def __post_init__(self):
        _check_lists(self.indices, self.distances, self.k)
        self.indices.setflags(write=False)
        self.distances.setflags(write=False)

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    def prefix(self, k: int) -> NeighborLists:
        """The k nearest per vertex: read-only contiguous copies of the first
        k columns, or at full width read-only views of these lists' arrays.

        Lists ordered by (squared distance, id) make this exactly what a
        k-query would return.
        """
        k = _integer(k, "prefix k")
        if not 1 <= k <= self.k:
            raise KnnError(f"prefix k must be in [1, {self.k}], got {k}")
        # columns of checked lists pass every check: build without re-checking
        part = object.__new__(NeighborLists)
        for name, value in (("indices", self.indices), ("distances", self.distances)):
            value = np.ascontiguousarray(value[:, :k])
            value.setflags(write=False)
            object.__setattr__(part, name, value)
        object.__setattr__(part, "k", k)
        return part


def _check_lists(indices, distances, k) -> None:
    """Raise KnnError unless the arrays are valid lists of k neighbors per vertex."""
    if not (isinstance(indices, np.ndarray) and indices.dtype == np.int64
            and isinstance(distances, np.ndarray) and distances.dtype == np.float64):
        raise KnnError("neighbor indices must be an int64 array and distances a "
                       "float64 array")
    n = indices.shape[0] if indices.ndim == 2 else 0
    if not (indices.ndim == 2 and distances.shape == indices.shape
            and isinstance(k, (int, np.integer)) and not isinstance(k, bool)
            and 1 <= k == indices.shape[1] < n):
        raise KnnError(f"neighbor arrays must both be (N, k) with 1 <= k < N, got "
                       f"{indices.shape} and {distances.shape} for k={k!r}")
    # per rule, the entries that keep it, in the order the messages rank
    # them; built one at a time, so one (N, k) mask is alive at once
    rules = (
        (lambda: indices.view(np.uint64) < n, f"an id outside 0..{n - 1}"),  # negative ids wrap
        (lambda: indices != np.arange(n)[:, None], "its own vertex"),
        (lambda: (distances[:, :1] >= 0.0) & (distances[:, -1:] < np.inf),
         "a negative, NaN or infinite distance"),
        (lambda: distances[:, 1:] >= distances[:, :-1], "distances not ascending"),
    )
    broken = []
    for kept, what in rules:
        entries = kept()
        if not entries.all():
            broken.append((int(np.argmin(entries.all(axis=1))), what))
        del entries
    if broken:
        row, what = min(broken, key=lambda fault: fault[0])  # the first rule of a row
        raise KnnError(f"neighbor lists row {row}: {what}")


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
    count = _integer(threads, "threads")
    if count < 1:
        raise KnnError(f"threads must be positive, got {threads}")
    return count


def _integer(value, name: str) -> int:
    """Scalar integer `value` as an int; else a KnnError that names it."""
    raw, not_int = integer_values(value)
    if raw.ndim or not_int.any():
        raise KnnError(f"{name} must be an integer, got {_shown(value)}")
    return int(raw)


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
    """The screen's float32 copy of the (m, N) columns: (y, squared norms, eps, e).

    y rounds (x - c) * 2**-e to float32, with c the per-feature midrange
    and e the exponent of max|x - c|, so every |y| <= 1 and the scaling
    is exact.  eps[i] (float64) bounds |A[i, j] - D[i, j] * 4**-e| over
    every j, where A is the screen value of `_screen_block` and D the
    squared distance of `_squared_distances` (bound derived in
    `exact_knn`); it is infinite, so every block falls back, for m of
    `_SCREEN_FEATURES` or more.
    """
    m = columns.shape[0]
    low, high = columns.min(axis=1), columns.max(axis=1)
    centre = 0.5 * low + 0.5 * high
    # rounding is monotone, so the extremes of each column give max|x - c|
    _, e = np.frexp(np.max(np.maximum(high - centre, centre - low)))
    e = int(e)
    centred = columns - centre[:, None]
    np.ldexp(centred, -e, out=centred)
    y = centred.astype(np.float32)
    del centred
    norms = np.einsum("fj,fj->j", y, y)
    if m >= _SCREEN_FEATURES:
        return y, norms, np.full(y.shape[1], np.inf), e
    lengths = np.sqrt(norms, dtype=np.float64)
    with np.errstate(over="ignore"):
        floor = np.ldexp(float(m), -120) + np.ldexp(float(m), -1070 - 2 * e)
    eps = (m + 3) * 2.0**-23 * (lengths + lengths.max()) ** 2 + floor
    return y, norms, eps, e


def _screen_block(y: np.ndarray, norms: np.ndarray, rows: slice) -> np.ndarray:
    """A[i, j] = |y_i|^2 + |y_j|^2 - 2 y_i.y_j in float32, for the rows i of the block.

    The product is one BLAS GEMM per slice of at most 2**18 // (rows *
    m) columns, a size OpenBLAS runs on the calling thread: a
    `run_blocks` worker starts no BLAS threads of its own.
    """
    m, n = y.shape
    left = (-2.0 * y[:, rows]).T  # exact: a power of two
    a = np.empty((left.shape[0], n), dtype=np.float32)
    step = max(1, _GEMM_MNK // (left.shape[0] * m))
    for start in range(0, n, step):
        np.matmul(left, y[:, start:start + step], out=a[:, start:start + step])
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

    Rows are screened max(1, 2**17 // N) at a time, in float32, and
    squared distances computed in float64.  `threads` caps the worker
    threads of `run_blocks` (default and upper limit: the usable cores;
    never more than there are blocks); it never changes the result.
    """
    n = dataset.n
    k = _integer(k, "k")
    if not 1 <= k <= n - 1:
        raise KnnError(f"k must be in [1, {n - 1}], got {k}")
    chunk = max(1, 2 * _BLOCK_DOUBLES // n)  # a float32 is half a double
    columns = np.ascontiguousarray(dataset.values.T)
    pairs = max(1, _BLOCK_DOUBLES // columns.shape[0])
    y, norms, eps, e = _screen_frame(columns)
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))

    def screened(rows: slice) -> tuple[np.ndarray, np.ndarray] | None:
        # Why the candidates hold the k nearest.  With u = 2**-24 and
        # v = 2**-53, T = |x_i - x_j|^2 4**-e exactly, z the float32 copy y
        # and b = (|z_i| + max_j |z_j|)^2, in exact arithmetic:
        # - A expands into 3m products of entries of z; each passes at
        #   most m + 2 float32 roundings (its product, m - 1 adds of its
        #   sum, whatever the order and with or without FMA, and the two
        #   adds of the norms), so |A - |z_i - z_j|^2| <= gamma_{m+2} b,
        #   gamma_n = n u / (1 - n u) (Higham, Accuracy and Stability of
        #   Numerical Algorithms, 3.1).
        # - Centring in float64 and rounding to float32 put each entry of
        #   z within w = u + v + uv of its exact value, relatively, so
        #   ||z_i - z_j| - sqrt(T)| <= r = w sqrt(b) / (1 - w) and
        #   ||z_i - z_j|^2 - T| <= r (2 sqrt(T) + r) <= (2u + 6u^2) b.
        # - D passes m differences, m squares and m - 1 adds in feature
        #   order, in float64: |D 4**-e - T| <= gamma'_{m+2} T, with
        #   gamma' for v and T <= (1 + 3u) b.
        # The sum, (m + 4) u b to first order, is at least 0.6 of itself
        # below eps's 2 (m + 3) u b for m >= 1.  For m below
        # _SCREEN_FEATURES = 2**20, (m + 4) u < 0.07 and that slack covers
        # the second-order terms, the terms in v, and the rounding of the
        # float32 norms (b in eps comes from them, at most gamma_m low),
        # of eps and of the threshold below, which is rounded to float32,
        # A's type, by less than 1.4 u b (|A_(k)| <= 1.08 b, eps < 0.14 b).
        # Underflow, flush to zero included, moves each product or entry
        # of z by less than 2**-126 in y's units, less than 12 m 2**-126
        # in all: eps's floor m 2**-120 holds it.  D's underflow, at most
        # m 2**-1070 in D's units, is 4**-e times that in y's: the
        # floor's second term.
        # So |A - D 4**-e| <= eps for every j whose D is finite.  The k
        # smallest A then have D 4**-e <= A_(k) + eps, so the k-th
        # smallest D is at most that too, and every j with D at or below
        # it has A <= A_(k) + 2 eps: ties included, the candidates hold
        # the k nearest by (D, id).
        # Every candidate has D below 4 thr 4**e; a threshold for which
        # that bound is not finite could let D overflow, so it falls back.
        a = _screen_block(y, norms, rows)
        own = np.arange(rows.stop - rows.start)
        a[own, own + rows.start] = np.inf  # exclude self
        thr = np.partition(a, k - 1, axis=1)[:, k - 1] + 2 * eps[rows]
        with np.errstate(over="ignore"):
            if not np.isfinite(np.ldexp(thr, 2 * e + 2)).all():
                return None
            cut = thr.astype(np.float32)  # compared in A's type, at half the cost
        # ascending id within each row; flatnonzero is faster than nonzero
        row, cand = np.divmod(np.flatnonzero(a <= cut[:, None]), n)
        counts = np.bincount(row, minlength=thr.size)
        if counts.max() > _CANDIDATES_PER_K * k:
            return None
        # D by pieces whose (m, pairs) gathers keep the byte budget
        d2 = np.concatenate([
            _squared_distances(columns[:, row[s:s + pairs] + rows.start],
                               columns[:, cand[s:s + pairs]])
            for s in range(0, row.size, pairs)])
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
        if found is not None:
            indices[rows], d2 = found
            distances[rows] = np.sqrt(d2)
            return
        sub = block_rows(n)  # float64 rows, half the screen's under the same budget
        for first in range(start, rows.stop, sub):
            part = slice(first, min(first + sub, rows.stop))
            d2 = _squared_distances(columns[:, part, None], columns[:, None, :])
            own = np.arange(part.stop - first)
            d2[own, own + first] = np.inf  # exclude self (duplicates keep 0)
            order = _smallest_stable(d2, k)
            indices[part] = order
            distances[part] = np.sqrt(np.take_along_axis(d2, order, axis=1))

    run_blocks(block, range(0, n, chunk), threads)
    return NeighborLists(indices=indices, distances=distances, k=k)
