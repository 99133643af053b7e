import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relscore import knn as knn_module
from relscore.datasets import Dataset, preset
from relscore.knn import KnnError, _smallest_stable, euclidean, exact_knn
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

    def test_chunking_agrees(self):
        rng = np.random.Generator(np.random.PCG64(9))
        data = Dataset(rng.random((40, 3)))
        a = exact_knn(data, 6, chunk=7)
        b = exact_knn(data, 6, chunk=512)
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
            for k in range(1, data.n):
                expected = brute_force_knn(data, k)
                for chunk in (None, 1, 4):
                    for threads in (1, 2):
                        got = exact_knn(data, k, chunk=chunk, threads=threads)
                        assert got.indices.tobytes() == expected.indices.tobytes()
                        assert got.distances.tobytes() == expected.distances.tobytes()

    def test_oracle_guards(self):
        with pytest.raises(OracleError, match="k must be in"):
            brute_force_knn(Dataset(np.zeros((3, 1))), 3)
        with pytest.raises(OracleError, match="limited to"):
            brute_force_knn(Dataset(np.zeros((MAX_VERTICES + 1, 1))), 1)


class TestBlockBound:
    def test_default_block_is_byte_bounded(self, monkeypatch):
        seen = []
        real = knn_module._squared_distance_block

        def spy(*args):
            d2 = real(*args)
            seen.append(d2.nbytes)
            return d2

        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", 64)
        monkeypatch.setattr(knn_module, "_squared_distance_block", spy)
        rng = np.random.Generator(np.random.PCG64(14))
        data = Dataset(rng.random((30, 2)))
        got = exact_knn(data, 5)
        assert max(seen) <= 64 * 8 and len(seen) == 15  # 2 rows per block
        want = exact_knn(data, 5, chunk=30)
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.distances.tobytes() == want.distances.tobytes()

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(KnnError, match="chunk must be positive"):
            exact_knn(Dataset(np.zeros((3, 1))), 1, chunk=0)


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
        got = exact_knn(data, 12, chunk=chunk, threads=threads)
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
        want = exact_knn(data, 5, chunk=1, threads=1)  # 30 blocks
        assert started == [1]
        got = exact_knn(data, 5, chunk=1, threads=10**9)
        assert started == [1, 3]
        assert got.indices.tobytes() == want.indices.tobytes()
        exact_knn(data, 5, chunk=15, threads=3)  # 2 blocks
        assert started == [1, 3, 2]
        exact_knn(data, 5, threads=None)  # 1 block
        assert started == [1, 3, 2, 1]

    @pytest.mark.parametrize("threads", [0, -2])
    def test_rejects_nonpositive_threads(self, threads):
        with pytest.raises(KnnError, match="threads must be positive"):
            exact_knn(Dataset(np.zeros((3, 1))), 1, threads=threads)
