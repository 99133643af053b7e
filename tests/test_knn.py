import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relscore import knn as knn_module
from relscore.datasets import Dataset, preset
from relscore.knn import (
    KnnError, NeighborLists, _smallest_stable, _squared_distances, euclidean, exact_knn,
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


def narrow_clusters(n):
    """Two clusters at distance 1, each 2**-14 wide: too narrow for float32 to order."""
    rng = np.random.Generator(np.random.PCG64(17))
    values = np.ldexp(rng.random((n, 2)), -14)
    values[n // 2:, 0] += 1.0
    return Dataset(values)


def count_fallbacks(monkeypatch):
    """Record the rows each call of the full-row selection gets."""
    rows = []
    real = knn_module._smallest_stable

    def spy(d2, k):
        rows.append(d2.shape[0])
        return real(d2, k)

    monkeypatch.setattr(knn_module, "_smallest_stable", spy)
    return rows


class TestFloat32Screen:
    def test_clusters_below_float32_resolution_fall_back(self, monkeypatch):
        # within a cluster every squared distance is about 2**-28, below the
        # screen's rounding, so a row keeps all 29 cluster mates: over 4k
        data = narrow_clusters(60)
        fallbacks = count_fallbacks(monkeypatch)
        for k in (1, 3, 7):
            got = exact_knn(data, k)
            want_indices, want_distances = full_row_knn(data, k)
            assert got.indices.tobytes() == want_indices.tobytes()
            assert got.distances.tobytes() == want_distances.tobytes()
        assert fallbacks == [60] * 3

    @pytest.mark.parametrize("data, k, falls", [
        (narrow_clusters(1500), 5, True),  # every block takes the full-row path
        (Dataset(np.random.Generator(np.random.PCG64(25)).random((1500, 20))), 100, False),
    ], ids=["full-row", "screened"])
    def test_block_temporaries_within_512_kib(self, data, k, falls, monkeypatch):
        n, budget = data.n, 512 * 1024
        screens, gathers = [], []
        real_screen, real_distances = knn_module._screen_block, knn_module._squared_distances

        def screen_spy(*args):
            a = real_screen(*args)
            screens.append((a.dtype, a.shape, a.nbytes))
            return a

        def distances_spy(left, right):
            d2 = real_distances(left, right)
            gathers.append(max(left.nbytes, right.nbytes, d2.nbytes))
            return d2

        monkeypatch.setattr(knn_module, "_screen_block", screen_spy)
        monkeypatch.setattr(knn_module, "_squared_distances", distances_spy)
        fallbacks = count_fallbacks(monkeypatch)
        got = exact_knn(data, k)
        rows = 2**17 // n  # 87 float32 rows; the full-row path takes 43 of float64
        assert screens[0] == (np.float32, (rows, n), rows * n * 4)
        assert max(nbytes for *_, nbytes in screens) <= budget
        assert max(gathers) <= budget
        if falls:
            assert max(fallbacks) == 2**16 // n and sum(fallbacks) == n
        else:  # the candidates' D came in pieces of at most 2**16 // 20 pairs
            assert fallbacks == [] and len(gathers) > len(screens)
        want_indices, want_distances = full_row_knn(data, k)
        assert got.indices.tobytes() == want_indices.tobytes()
        assert got.distances.tobytes() == want_distances.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("k", [1, 3])
    def test_candidates_hold_under_errors_of_the_bound(self, m, k, monkeypatch):
        # A replaced by D 4**-e moved by the first-order error sum of the
        # derivation in exact_knn, (m + 4) 2**-24 b, the worst way: up for
        # the k nearest, down for every other vertex.  A tight cluster of
        # 3k + 1 puts every mate within that error, so only eps decides
        rng = np.random.Generator(np.random.PCG64(18))
        cluster = 1.0 + 1e-9 * rng.random((3 * k + 1, m))
        data = Dataset(np.vstack([cluster, np.full((1, m), -0.25), -np.ones((1, m))]))
        columns = np.ascontiguousarray(data.values.T)
        y, _, _, e = knn_module._screen_frame(columns)
        lengths = np.sqrt(np.sum(y.astype(float) ** 2, axis=0))
        error = (m + 4) * 2.0**-24 * (lengths + lengths.max()) ** 2
        want_indices, want_distances = full_row_knn(data, k)
        push = np.full((data.n, data.n), -1.0)
        np.put_along_axis(push, want_indices, 1.0, axis=1)
        worst = np.ldexp(_squared_distances(columns[:, :, None], columns[:, None, :]), -2 * e)
        worst += push * error[:, None]
        monkeypatch.setattr(knn_module, "_screen_block", lambda y, norms, rows: worst[rows])
        fallbacks = count_fallbacks(monkeypatch)
        got = exact_knn(data, k)
        assert got.indices.tobytes() == want_indices.tobytes()
        assert got.distances.tobytes() == want_distances.tobytes()
        assert fallbacks == []  # the screen decided

    def test_too_many_features_fall_back(self, monkeypatch):
        monkeypatch.setattr(knn_module, "_SCREEN_FEATURES", 3)
        fallbacks = count_fallbacks(monkeypatch)
        rng = np.random.Generator(np.random.PCG64(19))
        for m, falls in ((2, []), (3, [20])):
            data = Dataset(rng.random((20, m)))
            got = exact_knn(data, 4)
            assert fallbacks == falls
            assert got.indices.tobytes() == full_row_knn(data, 4)[0].tobytes()


class TestNeighborListChecks:
    @pytest.fixture(scope="class")
    def lists(self):
        rng = np.random.Generator(np.random.PCG64(20))
        nbrs = exact_knn(Dataset(rng.random((30, 2))), 6)
        return nbrs.indices.copy(), nbrs.distances.copy()

    @pytest.mark.parametrize("row, field, column, value, message", [
        (4, "indices", 2, 4, "row 4: its own vertex"),
        (9, "indices", 0, 30, r"row 9: an id outside 0\.\.29"),
        (11, "indices", 5, -1, r"row 11: an id outside 0\.\.29"),
        (0, "distances", 0, -0.5, "row 0: a negative, NaN or infinite distance"),
        (3, "distances", 5, np.inf, "row 3: a negative, NaN or infinite distance"),
        (8, "distances", 2, np.nan, "row 8: distances not ascending"),
        (17, "distances", 1, 0.0, "row 17: distances not ascending"),
    ])
    def test_first_bad_row_named(self, lists, row, field, column, value, message):
        arrays = {"indices": lists[0].copy(), "distances": lists[1].copy()}
        arrays[field][row, column] = value
        arrays["indices"][29, 0] = 29  # a later bad row
        with pytest.raises(KnnError, match=message):
            NeighborLists(arrays["indices"], arrays["distances"], 6)

    def test_shapes_and_dtypes_checked(self, lists):
        indices, distances = lists
        for args, message in (
            ((indices.astype(np.int32), distances, 6), "int64 array"),
            ((indices, distances.astype(np.float32), 6), "float64 array"),
            ((indices.tolist(), distances, 6), "int64 array"),
            ((indices, distances, 5), r"\(N, k\) with 1 <= k < N"),
            ((indices, distances[:, :5], 6), r"\(N, k\) with 1 <= k < N"),
            ((indices[:, :0], distances[:, :0], 0), r"\(N, k\) with 1 <= k < N"),
            ((indices[:6], distances[:6], 6), r"\(N, k\) with 1 <= k < N"),
            ((indices[0], distances[0], 6), r"\(N, k\) with 1 <= k < N"),
            ((indices, distances, 6.0), r"\(N, k\) with 1 <= k < N"),
        ):
            with pytest.raises(KnnError, match=message):
                NeighborLists(*args)

    def test_equal_distances_in_either_id_order_pass(self):
        # squared distances an ulp apart (0.05 and 0.049999999999999996
        # here) share a square root, so (D, id) order need not be (distance,
        # id) order: the check asks for ascending distances only
        values = np.random.Generator(np.random.PCG64(21)).integers(0, 30, (400, 2)) / 10.0
        nbrs = exact_knn(Dataset(values), 20)
        d, i = nbrs.distances, nbrs.indices
        assert ((d[:, 1:] == d[:, :-1]) & (i[:, 1:] < i[:, :-1])).any()


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
        assert max(seen) <= 64 * 8 and len(seen) == 8  # 4 float32 rows per block
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
        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", data.n)  # 2 float32 rows per block
        want = exact_knn(data, 5, threads=1)  # 15 blocks
        assert started == [1]
        got = exact_knn(data, 5, threads=10**9)
        assert started == [1, 3]
        assert got.indices.tobytes() == want.indices.tobytes()
        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", 8 * data.n)
        exact_knn(data, 5, threads=3)  # 2 blocks of 16 and 14 float32 rows
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
