"""Exact k-nearest-neighbor lists under the Euclidean metric.

Brute force O(N^2 m) on purpose: neighborhood correctness is the whole
point downstream, so no approximate index is used.

Squared distances are computed one block of rows at a time.  A block
holds at most 2**16 // N rows, so each N-wide temporary stays at or
under 512 KiB whatever N is, and a block's two temporaries fit in a
core's L2 cache.  The feature columns are copied once into a
contiguous (m, N) array, so each feature's subtraction reads
contiguous memory.  Blocks run on a pool of worker threads (numpy
releases the GIL); each block writes only its own rows of the result.
Each row is accumulated independently of its block, in the same
feature order, so neither the block size nor the number of workers
changes a bit of the result.

Selection avoids a full-row sort: `np.partition` finds the k-th
smallest squared distance of each row, every column strictly below it
is kept, ties at it are kept in ascending id up to k, and only the k
kept values are stably sorted.  The lists therefore equal the first k
columns of a stable full-row argsort, ordered by (distance, id), and
the top-k lists are exact prefixes of the top-K lists for every k <= K.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset

__all__ = [
    "NeighborLists", "KnnError", "check_threads", "euclidean", "exact_knn",
    "usable_cores",
]

_BLOCK_DOUBLES = 1 << 16  # per N-wide block temporary: 512 KiB


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
    metric: str = "euclidean"

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
            metric=self.metric,
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


def _squared_distance_block(columns: np.ndarray, rows: slice) -> np.ndarray:
    # columns is the (m, N) transpose of the data.  Accumulate (a-b)^2
    # feature by feature: keeps peak memory at two chunk*N temporaries
    # and makes d2[i,j] == d2[j,i] exactly, since both sides sum
    # identical squares in the same feature order.
    block = columns[:, rows]
    d2 = np.zeros((block.shape[1], columns.shape[1]))
    diff = np.empty_like(d2)
    for f in range(columns.shape[0]):
        np.subtract(block[f, :, None], columns[f, None, :], out=diff)
        np.multiply(diff, diff, out=diff)
        d2 += diff
    return d2


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


def exact_knn(dataset: Dataset, k: int, chunk: int | None = None, *,
              threads: int | None = None) -> NeighborLists:
    """The k nearest other vertices per vertex, ties broken by smaller id.

    `chunk` overrides the number of rows per distance block (default
    2**16 // N, at least 1).  `threads` caps the worker threads (default
    and upper limit: the usable cores; never more than there are
    blocks).  Neither changes the result.
    """
    n = dataset.n
    k = int(k)
    if not 1 <= k <= n - 1:
        raise KnnError(f"k must be in [1, {n - 1}], got {k}")
    if chunk is None:
        chunk = max(1, _BLOCK_DOUBLES // n)
    if chunk < 1:
        raise KnnError(f"chunk must be positive, got {chunk}")
    threads = check_threads(threads)
    columns = np.ascontiguousarray(dataset.values.T)
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))

    def block(start: int) -> None:
        stop = min(start + chunk, n)
        d2 = _squared_distance_block(columns, slice(start, stop))
        rows = np.arange(start, stop)
        d2[rows - start, rows] = np.inf  # exclude self (duplicates keep 0)
        order = _smallest_stable(d2, k)
        indices[start:stop] = order
        distances[start:stop] = np.sqrt(np.take_along_axis(d2, order, axis=1))

    starts = range(0, n, chunk)
    workers = min(threads, usable_cores(), len(starts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(block, starts):  # re-raises a block's error
            pass
    return NeighborLists(indices=indices, distances=distances, k=k)
