import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relscore import knn as knn_module
from relscore.datasets import Dataset, preset
from relscore.knn import (
    KnnError, _smallest_stable, _squared_distances, euclidean, exact_knn,
)
from relscore.oracle import MAX_VERTICES, OracleError, brute_force_knn


class TestEuclidean:
    def test_zero_for_equal(self):
        assert euclidean([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_three_four_five(self):
        assert euclidean([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_symmetry_exact(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(50):
            a = rng.random(6) * 10 - 5
            b = rng.random(6) * 10 - 5
            assert euclidean(a, b) == euclidean(b, a)

    def test_matches_naive_loop(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(25):
            a = rng.random(9) * 4 - 2
            b = rng.random(9) * 4 - 2
            acc = 0.0
            for x, y in zip(a, b):
                acc += (x - y) * (x - y)
            assert euclidean(a, b) == pytest.approx(math.sqrt(acc), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(KnnError, match="dimension mismatch"):
            euclidean([1.0], [1.0, 2.0])


class TestExactKnn:
    def test_collinear_three_points(self):
        data = Dataset(np.array([[0.0], [1.0], [3.0]]))
        nbrs = exact_knn(data, 1)
        assert nbrs.indices[:, 0].tolist() == [1, 0, 1]

    def test_full_k_lists_everyone(self):
        rng = np.random.Generator(np.random.PCG64(4))
        data = Dataset(rng.random((12, 3)))
        nbrs = exact_knn(data, 11)
        for v in range(12):
            assert sorted(nbrs.indices[v].tolist()) == [
                u for u in range(12) if u != v
            ]
            assert np.all(np.diff(nbrs.distances[v]) >= 0)

    def test_duplicate_pair_hand_enumeration(self):
        # line positions 0, 0, 1, 3: all pairwise distances enumerable
        data = Dataset(np.array([[0.0], [0.0], [1.0], [3.0]]))
        nbrs = exact_knn(data, 2)
        assert nbrs.indices.tolist() == [[1, 2], [0, 2], [0, 1], [2, 0]]
        assert nbrs.distances[0, 0] == 0.0
        assert nbrs.distances[1, 0] == 0.0
        assert nbrs.distances[2].tolist() == [1.0, 1.0]  # tie broken by id
        assert nbrs.distances[3].tolist() == [2.0, 3.0]

    def test_self_never_listed(self):
        rng = np.random.Generator(np.random.PCG64(5))
        data = Dataset(rng.random((30, 2)))
        nbrs = exact_knn(data, 7)
        for v in range(30):
            assert v not in nbrs.indices[v]

    def test_kth_neighbor_beats_unlisted(self):
        # brute-force check on a batch of random datasets
        rng = np.random.Generator(np.random.PCG64(6))
        for n, k in [(40, 5), (80, 11), (200, 3)]:
            data = Dataset(rng.random((n, 4)))
            nbrs = exact_knn(data, k)
            for v in range(n):
                listed = set(nbrs.indices[v].tolist())
                worst = nbrs.distances[v, -1]
                for u in range(n):
                    if u == v or u in listed:
                        continue
                    assert euclidean(data.values[v], data.values[u]) >= worst

    def test_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(7))
        data = Dataset(rng.random((50, 3)))
        a = exact_knn(data, 9)
        b = exact_knn(data, 9)
        assert np.array_equal(a.indices, b.indices)
        assert a.distances.tobytes() == b.distances.tobytes()

    def test_chunking_agrees(self, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(9))
        data = Dataset(rng.random((40, 3)))
        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", 7 * data.n)  # 7 rows per block
        a = exact_knn(data, 6)
        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", 512 * data.n)
        b = exact_knn(data, 6)
        assert np.array_equal(a.indices, b.indices)
        assert a.distances.tobytes() == b.distances.tobytes()

    @pytest.mark.parametrize("k", [0, -1, 5, 99])
    def test_k_out_of_range(self, k):
        data = Dataset(np.array([[0.0], [1.0], [2.0], [4.0], [8.0]]))
        with pytest.raises(KnnError, match="k must be in"):
            exact_knn(data, k)


class TestSelectionKernel:
    def test_matches_full_stable_argsort_with_ties_and_inf(self):
        # few distinct values plus inf: most rows tie at their k-th value
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(200):
            rows, cols = rng.integers(1, 12), rng.integers(1, 30)
            d2 = rng.integers(0, 4, size=(rows, cols)).astype(float)
            d2[rng.random((rows, cols)) < 0.25] = np.inf
            full = np.argsort(d2, axis=1, kind="stable")
            for k in range(1, cols + 2):
                assert np.array_equal(_smallest_stable(d2, k), full[:, :k])

    def test_all_equal_rows_keep_smallest_ids(self):
        d2 = np.zeros((3, 9))
        d2[1] = np.inf
        assert _smallest_stable(d2, 4).tolist() == [[0, 1, 2, 3]] * 3


class TestPrefix:
    @pytest.mark.parametrize("values", [
        preset("three-blobs", seed=7)[0].values,
        np.array([[0.0], [0.0], [1.0], [1.0], [1.0], [3.0], [0.0], [2.0]]),
    ])
    def test_prefix_equals_direct_query(self, values):
        data = Dataset(values)
        big = data.n - 1
        full = exact_knn(data, big)
        for k in range(1, big + 1):
            direct = exact_knn(data, k)
            part = full.prefix(k)
            assert part.k == k
            assert part.indices.tobytes() == direct.indices.tobytes()
            assert part.distances.tobytes() == direct.distances.tobytes()

    def test_prefix_is_contiguous_and_read_only(self):
        rng = np.random.Generator(np.random.PCG64(12))
        part = exact_knn(Dataset(rng.random((20, 2))), 9).prefix(4)
        for arr in (part.indices, part.distances):
            assert arr.flags.c_contiguous and not arr.flags.writeable

    @pytest.mark.parametrize("k", [0, 6])
    def test_prefix_out_of_range(self, k):
        rng = np.random.Generator(np.random.PCG64(13))
        nbrs = exact_knn(Dataset(rng.random((10, 2))), 5)
        with pytest.raises(KnnError, match="prefix k must be in"):
            nbrs.prefix(k)


@st.composite
def grid_datasets(draw):
    """Integer-grid coordinates: duplicate rows and equal distances abound."""
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, 3))
    cells = draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                          min_size=n, max_size=n))
    return Dataset(np.array(cells, dtype=float))


class TestAgainstOracle:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(grid_datasets())
    @example(Dataset(np.zeros((6, 2))))
    def test_exact_knn_matches_brute_force(self, data):
        with pytest.MonkeyPatch.context() as mp:
            # three usable cores: threads=2 runs two workers on any machine
            mp.setattr(knn_module, "usable_cores", lambda: 3)
            blocks = (knn_module._BLOCK_DOUBLES, data.n, 4 * data.n)  # default, 1, 4 rows
            for k in range(1, data.n):
                expected = brute_force_knn(data, k)
                for block in blocks:
                    mp.setattr(knn_module, "_BLOCK_DOUBLES", block)
                    for threads in (1, 2):
                        got = exact_knn(data, k, threads=threads)
                        assert got.indices.tobytes() == expected.indices.tobytes()
                        assert got.distances.tobytes() == expected.distances.tobytes()

    def test_oracle_guards(self):
        with pytest.raises(OracleError, match="k must be in"):
            brute_force_knn(Dataset(np.zeros((3, 1))), 3)
        with pytest.raises(OracleError, match="limited to"):
            brute_force_knn(Dataset(np.zeros((MAX_VERTICES + 1, 1))), 1)


def full_row_knn(data, k):
    """The full-row path on the whole matrix: every distance, then selection."""
    columns = np.ascontiguousarray(data.values.T)
    d2 = _squared_distances(columns[:, :, None], columns[:, None, :])
    np.fill_diagonal(d2, np.inf)
    order = _smallest_stable(d2, k)
    return order, np.sqrt(np.take_along_axis(d2, order, axis=1))


@st.composite
def screen_cases(draw):
    """Continuous blobs, shifted, scaled by 2**s, with some rows duplicated; and k.

    Blobs 1e-9 wide put distances far below the screen's rounding, so
    the screen alone cannot order them.
    """
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 4))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    centers = rng.random((draw(st.integers(1, 4)), m)) * 6 - 3
    width = draw(st.sampled_from([1.0, 1e-9]))
    values = centers[rng.integers(0, len(centers), n)] + width * rng.normal(size=(n, m))
    copies = draw(st.integers(0, n // 3))
    values[rng.integers(0, n, copies)] = values[rng.integers(0, n, copies)]
    offset = draw(st.sampled_from([0.0, -1e3, 1e8]))
    # 1e-9-wide blobs at 2**-500 would underflow, which Dataset rejects
    scale = draw(st.integers(-500 if width == 1.0 else -450, 500))
    k = draw(st.integers(1, n - 1))
    return np.ldexp(values + offset, scale), k


def near_overflow():
    """Values near 1e200 whose squared distances reach 8.1e307.

    A Dataset rejects data whose squared distances overflow; these come
    within a factor four of it, where the screen's threshold check must
    send the block to the full-row path.
    """
    return np.column_stack([np.full(10, 1e200), np.arange(10.0) * 1e153])


class TestScreen:
    def test_screen_matches_full_row_path(self, monkeypatch):
        ran = Counter()
        real_screen, real_select = knn_module._screen_block, knn_module._smallest_stable

        def screen_spy(*args):
            ran["block"] += 1
            return real_screen(*args)

        def select_spy(*args):
            ran["fallback"] += 1
            return real_select(*args)

        @settings(derandomize=True, database=None, deadline=None, max_examples=150)
        @given(screen_cases())
        @example((np.array([[0.0, 1.0], [2.0, 0.5], [0.0, 1.0], [0.0, 1.0]]), 3))
        @example((np.ldexp(np.array([[0.0], [0.25], [1.5], [2.0]]) + 1e8, 500), 2))
        @example((np.ldexp(np.array([[0.0, 1.0], [0.5, 0.75], [3.0, 1.0]]), -500), 1))
        @example((near_overflow(), 9))
        def check(case):
            values, k = case
            data = Dataset(values)
            want_indices, want_distances = full_row_knn(data, k)
            monkeypatch.setattr(knn_module, "_screen_block", screen_spy)
            monkeypatch.setattr(knn_module, "_smallest_stable", select_spy)
            got = exact_knn(data, k, threads=1)
            monkeypatch.undo()
            assert got.indices.tobytes() == want_indices.tobytes()
            assert got.distances.tobytes() == want_distances.tobytes()

        check()
        assert ran["fallback"] >= 1  # the full-row path ran
        assert ran["block"] > ran["fallback"]  # the screen path ran

    def test_near_overflow_falls_back(self, monkeypatch):
        fallback = []
        real = knn_module._smallest_stable

        def spy(*args):
            fallback.append(1)
            return real(*args)

        monkeypatch.setattr(knn_module, "_smallest_stable", spy)
        data = Dataset(near_overflow())
        for k in range(1, data.n):
            got = exact_knn(data, k)
            assert got.indices.tobytes() == brute_force_knn(data, k).indices.tobytes()
        assert len(fallback) == 3  # k = 7, 8, 9: 4 * (k-th squared distance) overflows


class TestBlockBound:
    def test_default_block_is_byte_bounded(self, monkeypatch):
        seen = []
        real = knn_module._screen_block

        def spy(*args):
            a = real(*args)
            seen.append(a.nbytes)
            return a

        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", 64)
        monkeypatch.setattr(knn_module, "_screen_block", spy)
        rng = np.random.Generator(np.random.PCG64(14))
        data = Dataset(rng.random((30, 2)))
        got = exact_knn(data, 5)
        assert max(seen) <= 64 * 8 and len(seen) == 15  # 2 rows per block
        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", 30 * data.n)  # one block
        want = exact_knn(data, 5)
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.distances.tobytes() == want.distances.tobytes()


class TestThreads:
    @pytest.mark.parametrize("chunk", [1, 4, None])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_any_thread_count_is_bitwise_serial(self, threads, chunk, monkeypatch):
        # integer grid: duplicate rows and tied distances across blocks;
        # three usable cores, so `threads` workers run whatever the machine
        monkeypatch.setattr(knn_module, "usable_cores", lambda: 3)
        rng = np.random.Generator(np.random.PCG64(15))
        data = Dataset(rng.integers(-3, 4, size=(45, 2)).astype(float))
        want = exact_knn(data, 12, threads=1)
        if chunk is not None:  # rows per block; None keeps the default
            monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", chunk * data.n)
        got = exact_knn(data, 12, threads=threads)
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.distances.tobytes() == want.distances.tobytes()

    def test_workers_capped_by_cores_and_blocks(self, monkeypatch):
        started = []
        real = knn_module.ThreadPoolExecutor

        def spy(max_workers):
            started.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(knn_module, "ThreadPoolExecutor", spy)
        monkeypatch.setattr(knn_module, "usable_cores", lambda: 3)
        rng = np.random.Generator(np.random.PCG64(16))
        data = Dataset(rng.random((30, 2)))
        default = knn_module._BLOCK_DOUBLES
        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", data.n)  # 1 row per block
        want = exact_knn(data, 5, threads=1)  # 30 blocks
        assert started == [1]
        got = exact_knn(data, 5, threads=10**9)
        assert started == [1, 3]
        assert got.indices.tobytes() == want.indices.tobytes()
        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", 15 * data.n)
        exact_knn(data, 5, threads=3)  # 2 blocks
        assert started == [1, 3, 2]
        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", default)
        exact_knn(data, 5, threads=None)  # 1 block
        assert started == [1, 3, 2, 1]

    def test_run_blocks_raises_a_blocks_error(self):
        def block(start):
            if start == 2:
                raise KnnError("block 2 failed")

        with pytest.raises(KnnError, match="block 2 failed"):
            knn_module.run_blocks(block, range(4), 2)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_rejects_nonpositive_threads(self, threads):
        with pytest.raises(KnnError, match="threads must be positive"):
            exact_knn(Dataset(np.zeros((3, 1))), 1, threads=threads)
