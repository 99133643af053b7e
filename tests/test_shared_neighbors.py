"""One kNN pass shared as exact prefixes gives the same graphs and results.

Builders given `neighbors=` must return what a fresh per-build kNN pass
returns, bit for bit; `sweep` and `estimate` must run at most one pass
and produce the rows and traces of independent per-k builds.  The pass
runs in `graphs.shared_neighbors`, so `graphs.exact_knn` counts it.
"""

import json
import re

import numpy as np
import pytest

from relscore import graphs, metrics, optimizer
from relscore.datasets import Dataset, LabelAssignment, preset
from relscore.graphs import (
    GraphError,
    build_graph,
    build_tsne_graph,
    build_umap_graph,
    neighbor_count,
    shared_neighbors,
)
from relscore.knn import KnnError, NeighborLists, exact_knn
from relscore.metrics import MetricsError, sweep
from relscore.optimizer import OptimizerConfig, OptimizerError, estimate
from relscore.oracle import brute_force_knn


@pytest.fixture(scope="module")
def blobs():
    return preset("three-blobs", seed=7)


@pytest.fixture(scope="module")
def duplicates():
    # repeated rows and equal distances: ties at every list boundary
    rng = np.random.Generator(np.random.PCG64(21))
    return Dataset(rng.integers(0, 3, size=(40, 2)).astype(float))


def assert_same_graph(a, b):
    assert a.n_vertices == b.n_vertices
    assert a.edges_i.tobytes() == b.edges_i.tobytes()
    assert a.edges_j.tobytes() == b.edges_j.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.provenance == b.provenance


def count_calls(monkeypatch, *modules):
    """Replace exact_knn in each module with a counting wrapper."""
    calls = {module.__name__: 0 for module in modules}
    for module in modules:
        def counted(*args, _name=module.__name__, **kwargs):
            calls[_name] += 1
            return exact_knn(*args, **kwargs)
        monkeypatch.setattr(module, "exact_knn", counted)
    return calls


def dumps(obj):
    return json.dumps(obj, sort_keys=True)  # repr-exact floats


class TestNeighborCount:
    def test_tsne_is_three_perplexity_clamped(self):
        assert neighbor_count("tsne", 150, 2) == 6
        assert neighbor_count("tsne", 150, 10.5) == 32
        assert neighbor_count("tsne", 150, 60) == 149

    def test_umap_is_n_neighbors(self):
        assert neighbor_count("umap", 150, 15.0) == 15

    @pytest.mark.parametrize("method, k, message", [
        ("tsne", 1, "perplexity must be in"),
        ("umap", 2.5, "n_neighbors must be an integer"),
        ("umap", 150, "n_neighbors must be in"),
        ("pca", 5, "method must be"),
    ])
    def test_validates_with_builder_messages(self, method, k, message):
        with pytest.raises(GraphError, match=message):
            neighbor_count(method, 150, k)

    # refused before float() reads them: '10' and b'10' would parse as 10
    @pytest.mark.parametrize("k, shown", [
        ("10", "'10'"), (b"10", "b'10'"), (None, "None"), ([10], "[10]"),
        (True, "True"), (np.True_, "True"),
    ])
    def test_perplexity_that_is_no_number_refused(self, blobs, k, shown):
        message = f"^perplexity must be a number, got {re.escape(shown)}$"
        with pytest.raises(GraphError, match=message):
            neighbor_count("tsne", 60, k)
        with pytest.raises(GraphError, match=message):
            build_tsne_graph(blobs[0], k)

    @pytest.mark.parametrize("k, shown", [
        ("10", "'10'"), (b"10", "b'10'"), (None, "None"), ([10], "[10]"),
        (10.5, "10.5"), (np.float64(10.5), "10.5"), (True, "True"), (np.True_, "True"),
    ])
    def test_n_neighbors_that_is_no_integer_refused(self, blobs, k, shown):
        message = f"^n_neighbors must be an integer, got {re.escape(shown)}$"
        with pytest.raises(GraphError, match=message):
            neighbor_count("umap", 60, k)
        with pytest.raises(GraphError, match=message):
            build_umap_graph(blobs[0], k)

    @pytest.mark.parametrize("prune_eps, shown", [
        ("0.001", "'0.001'"), (b"0.001", "b'0.001'"), ([0.001], "[0.001]"),
    ])
    def test_prune_eps_that_is_no_number_refused(self, blobs, prune_eps, shown):
        with pytest.raises(GraphError, match=f"^prune_eps must be a number, got "
                                             f"{re.escape(shown)}$"):
            build_tsne_graph(blobs[0], 10.0, prune_eps=prune_eps)

    def test_shared_neighbors_skips_a_perplexity_that_is_no_number(self, blobs):
        data = blobs[0]
        assert shared_neighbors("tsne", data, ["10", True, b"10"]) is None
        nbrs = shared_neighbors("tsne", data, ["40", 5, True])
        assert nbrs.k == neighbor_count("tsne", data.n, 5)


class TestBuildGraph:
    @pytest.mark.parametrize("k", [30, 30.0])
    def test_tsne_is_the_direct_builder(self, blobs, k):
        data = blobs[0]
        assert_same_graph(build_graph("tsne", data, k), build_tsne_graph(data, k))
        assert_same_graph(build_graph("tsne", data, k, 1e-4),
                          build_tsne_graph(data, k, 1e-4))

    @pytest.mark.parametrize("k", [15, 15.0])
    def test_umap_is_the_direct_builder(self, blobs, k):
        data = blobs[0]
        assert_same_graph(build_graph("umap", data, k), build_umap_graph(data, k))

    def test_unknown_method_and_umap_prune_eps_rejected(self, blobs):
        data = blobs[0]
        with pytest.raises(GraphError, match="method must be 'tsne' or 'umap'"):
            build_graph("pca", data, 15)
        with pytest.raises(GraphError, match="prune_eps applies to method 'tsne' only"):
            build_graph("umap", data, 15, 0.5)

    def test_umap_non_integer_k_message(self, blobs):
        with pytest.raises(GraphError, match="n_neighbors must be an integer, got 7.5"):
            build_graph("umap", blobs[0], 7.5)


METHOD = "method must be 'tsne' or 'umap', got 'pca'"
UMAP_EPS = "prune_eps applies to method 'tsne' only"
RULE_ENTRIES = ("neighbor_count", "shared_neighbors", "build_graph", "sweep", "estimate")
RULE_CASES = [
    ("pca", 10, None, METHOD),
    ("pca", 150, -1.0, METHOD),  # the method before prune_eps and the size
    ("umap", 10, 0.5, UMAP_EPS),
    ("umap", 10, -1.0, UMAP_EPS),  # UMAP's refusal before the value
    ("umap", 150, 0.5, UMAP_EPS),  # and before n_neighbors
    ("umap", 10, True, UMAP_EPS),
    ("tsne", 10, True, "prune_eps must be a number, got True"),
    ("tsne", 10, np.False_, "prune_eps must be a number, got False"),
    ("tsne", 10, float("nan"), "prune_eps must be nonnegative and finite, got nan"),
    ("tsne", 10, 10 ** 400, "prune_eps must be nonnegative and finite, got inf"),
]


class TestOneMethodRule:
    """Every entry point takes the method rule from `graphs`: its own error
    type, the same text, the same order, and no kNN pass before it."""

    @staticmethod
    def call(entry, blobs, method, k, prune_eps):
        """(error type, thunk) of `entry` at size k; estimate's k is k_max."""
        data, labels = blobs
        return {
            "neighbor_count": (GraphError, lambda: neighbor_count(method, data.n, k)),
            "shared_neighbors": (GraphError, lambda: shared_neighbors(method, data, [k])),
            "build_graph": (GraphError, lambda: build_graph(method, data, k, prune_eps)),
            "sweep": (MetricsError, lambda: sweep(data, labels, method, [k],
                                                  prune_eps=prune_eps)),
            "estimate": (OptimizerError, lambda: estimate(
                data, labels, method, OptimizerConfig(k_min=2, k_max=k, n_init=2, budget=3),
                prune_eps=prune_eps)),
        }[entry]

    @pytest.mark.parametrize("entry, method, k, prune_eps, message", [
        (entry, *case) for case in RULE_CASES for entry in RULE_ENTRIES
        # neighbor_count and shared_neighbors take no prune_eps
        if case[2] is None or entry not in RULE_ENTRIES[:2]
    ])
    def test_same_text_before_any_pass(self, blobs, monkeypatch, entry, method, k,
                                       prune_eps, message):
        error, thunk = self.call(entry, blobs, method, k, prune_eps)
        calls = count_calls(monkeypatch, graphs)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            thunk()
        assert calls == {"relscore.graphs": 0}

    @pytest.mark.parametrize("entry, message", [
        # a builder checks a t-SNE prune_eps after the perplexity; sweep and
        # estimate check it before any k, as a bad k fails only its own trial
        ("build_graph", "perplexity must be in [2, 149], got 150"),
        ("sweep", "prune_eps must be nonnegative and finite, got -1.0"),
        ("estimate", "prune_eps must be nonnegative and finite, got -1.0"),
    ])
    def test_bad_perplexity_and_bad_prune_eps(self, blobs, monkeypatch, entry, message):
        error, thunk = self.call(entry, blobs, "tsne", 150, -1.0)
        calls = count_calls(monkeypatch, graphs)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            thunk()
        assert calls == {"relscore.graphs": 0}

    def test_shared_neighbors_names_an_unknown_method(self, blobs, monkeypatch):
        calls = count_calls(monkeypatch, graphs)
        for threads in (None, 0):  # the method is checked first
            with pytest.raises(GraphError, match="got 'pca'"):
                shared_neighbors("pca", blobs[0], [10, 20], threads=threads)
        assert calls == {"relscore.graphs": 0}

    @pytest.mark.parametrize("prune_eps", [True, False, np.True_])
    def test_boolean_prune_eps_rejected_by_the_builder(self, blobs, prune_eps):
        with pytest.raises(GraphError, match=f"^prune_eps must be a number, got "
                                             f"{prune_eps}$"):
            build_tsne_graph(blobs[0], 10.0, prune_eps=prune_eps)


class TestThreadsMustBeIntegers:
    @pytest.mark.parametrize("threads", [2.5, True, np.True_, [2]])
    def test_rejected_by_knn_builders_and_sweep(self, blobs, threads):
        data, labels = blobs
        message = f"^{re.escape(f'threads must be an integer, got {threads}')}$"
        with pytest.raises(KnnError, match=message):
            exact_knn(data, 10, threads=threads)
        for build in (build_tsne_graph, build_umap_graph):
            with pytest.raises(KnnError, match=message):
                build(data, 10, threads=threads)
        with pytest.raises(KnnError, match=message):
            sweep(data, labels, "umap", [10, 20], threads=threads)

    def test_integral_values_are_threads(self, blobs):
        data = blobs[0]
        want = exact_knn(data, 10, threads=1)
        for threads in (2.0, np.int64(2)):
            got = exact_knn(data, 10, threads=threads)
            assert got.indices.tobytes() == want.indices.tobytes()


class TestBuildersOnSharedLists:
    @pytest.mark.parametrize("perplexity", [2, 5, 10.5, 30, 49.5])
    def test_tsne_prefix_equals_fresh_pass(self, blobs, duplicates, perplexity):
        for data in (blobs[0], duplicates):
            if perplexity > data.n - 1:
                continue
            shared = exact_knn(data, data.n - 1)
            assert_same_graph(build_tsne_graph(data, perplexity, neighbors=shared),
                              build_tsne_graph(data, perplexity))

    @pytest.mark.parametrize("n_neighbors", [2, 5, 15, 39])
    def test_umap_prefix_equals_fresh_pass(self, blobs, duplicates, n_neighbors):
        for data in (blobs[0], duplicates):
            shared = exact_knn(data, data.n - 1)
            assert_same_graph(build_umap_graph(data, n_neighbors, neighbors=shared),
                              build_umap_graph(data, n_neighbors))

    def test_given_lists_skip_the_knn_pass(self, blobs, monkeypatch):
        data = blobs[0]
        shared = exact_knn(data, 60)
        calls = count_calls(monkeypatch, graphs)
        build_tsne_graph(data, 20, neighbors=shared)
        build_umap_graph(data, 60, neighbors=shared)
        assert calls == {"relscore.graphs": 0}

    def test_short_or_foreign_lists_rejected(self, blobs, duplicates):
        data = blobs[0]
        with pytest.raises(GraphError, match="need 30 for 150"):
            build_tsne_graph(data, 10, neighbors=exact_knn(data, 29))
        with pytest.raises(GraphError, match="need 15 for 150"):
            build_umap_graph(data, 15, neighbors=exact_knn(duplicates, 20))

    def test_parameters_validated_before_lists(self, blobs):
        data = blobs[0]
        short = exact_knn(data, 3)
        with pytest.raises(GraphError, match="perplexity must be in"):
            build_tsne_graph(data, 1, neighbors=short)
        with pytest.raises(GraphError, match="prune_eps must be nonnegative"):
            build_tsne_graph(data, 10, -1.0, neighbors=short)
        with pytest.raises(GraphError, match="n_neighbors must be an integer"):
            build_umap_graph(data, 2.5, neighbors=short)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_checked_when_no_pass_runs(self, blobs, threads):
        data = blobs[0]
        shared = exact_knn(data, 60)
        with pytest.raises(KnnError, match="threads must be positive"):
            build_tsne_graph(data, 20, neighbors=shared, threads=threads)
        with pytest.raises(KnnError, match="threads must be positive"):
            build_umap_graph(data, 15, neighbors=shared, threads=threads)


class TestGivenListsChecked:
    """Lists passed as `neighbors=` must be valid lists, and this dataset's."""

    @pytest.fixture(scope="class")
    def lists(self, blobs):
        nbrs = exact_knn(blobs[0], 45)
        return nbrs.indices.copy(), nbrs.distances.copy()

    def test_reversed_rows_rejected(self, blobs, lists):
        indices, distances = lists
        with pytest.raises(KnnError, match="neighbor lists row 0: distances not ascending"):
            build_umap_graph(blobs[0], 15, neighbors=NeighborLists(
                indices[:, ::-1].copy(), distances[:, ::-1].copy(), 45))

    def test_shuffled_rows_rejected(self, blobs, lists):
        indices, distances = (a.copy() for a in lists)
        order = np.random.Generator(np.random.PCG64(22)).permutation(45)
        indices[12], distances[12] = indices[12, order], distances[12, order]
        with pytest.raises(KnnError, match="neighbor lists row 12: distances not ascending"):
            NeighborLists(indices, distances, 45)
        # whole rows of other vertices: ascending, but not these vertices' lists
        indices, distances = (a.copy() for a in lists)
        indices[[5, 140]], distances[[5, 140]] = indices[[140, 5]], distances[[140, 5]]
        for build in (build_umap_graph, build_tsne_graph):
            with pytest.raises(GraphError, match="neighbors row 5: the listed distances "
                                                 "are not this dataset's"):
                build(blobs[0], 15, neighbors=NeighborLists(indices, distances, 45))

    def test_foreign_lists_rejected(self, blobs):
        # the lists of another draw of the same preset: valid lists, equal N
        foreign = exact_knn(preset("three-blobs", seed=8)[0], 45)
        with pytest.raises(GraphError, match="neighbors row 0: the listed distances "
                                             "are not this dataset's"):
            build_umap_graph(blobs[0], 15, neighbors=foreign)

    def test_last_prefix_column_one_ulp_off_rejected(self, blobs, lists):
        indices, distances = (a.copy() for a in lists)
        distances[77, 14:] = np.nextafter(distances[77, 14:], np.inf)  # still ascending
        nbrs = NeighborLists(indices, distances, 45)
        with pytest.raises(GraphError, match="neighbors row 77"):
            build_umap_graph(blobs[0], 15, neighbors=nbrs)
        build_umap_graph(blobs[0], 14, neighbors=nbrs)  # columns 0 and 13 are intact

    def test_self_entry_rejected(self, blobs, lists):
        indices, distances = (a.copy() for a in lists)
        indices[4, 3] = 4
        with pytest.raises(KnnError, match="neighbor lists row 4: its own vertex"):
            build_umap_graph(blobs[0], 15, neighbors=NeighborLists(indices, distances, 45))

    def test_out_of_range_id_rejected(self, blobs, lists):
        indices, distances = (a.copy() for a in lists)
        indices[9, 44] = 150
        with pytest.raises(KnnError, match=r"neighbor lists row 9: an id outside 0\.\.149"):
            build_umap_graph(blobs[0], 15, neighbors=NeighborLists(indices, distances, 45))

    def test_oracle_lists_build_the_same_graphs(self, blobs):
        # an independent producer passes the bitwise check; a decimal grid
        # has distances equal in either id order (see NeighborLists)
        grid = Dataset(np.random.Generator(np.random.PCG64(23))
                       .integers(0, 30, size=(150, 2)) / 10.0)
        for data in (blobs[0], grid):
            oracle = brute_force_knn(data, 45)
            assert oracle.indices.tobytes() == exact_knn(data, 45).indices.tobytes()
            assert_same_graph(build_umap_graph(data, 15, neighbors=oracle),
                              build_umap_graph(data, 15))
            assert_same_graph(build_tsne_graph(data, 15, neighbors=oracle),
                              build_tsne_graph(data, 15))


class TestSweepSharesOnePass:
    CASES = [
        ("umap", [5, 10, 15, 20, 40]),
        ("umap", [1, 5, 7.5, 30, 149, 150, 400]),
        ("tsne", [1, 2, 5, 17.5, 30, 60, 149, 150]),
    ]

    @pytest.mark.parametrize("method, ks", CASES)
    def test_rows_equal_per_k_builds(self, blobs, monkeypatch, method, ks):
        data, labels = blobs
        calls = count_calls(monkeypatch, graphs)
        shared = sweep(data, labels, method, ks)
        assert calls == {"relscore.graphs": 1}
        # per-k builds: no shared lists, each build runs its own pass
        monkeypatch.setattr(metrics, "shared_neighbors", lambda *args, **kwargs: None)
        per_k = sweep(data, labels, method, ks)
        assert calls["relscore.graphs"] == 1 + len(
            [row for row in per_k.rows if row.error is None])
        assert dumps(shared.to_dict()) == dumps(per_k.to_dict())

    def test_mixed_invalid_rows_keep_their_text(self, blobs):
        data, labels = blobs
        rows = {row.k: row.error for row in sweep(data, labels, "umap",
                                                  [1, 7.5, 10, 150]).rows}
        assert rows == {
            1: "n_neighbors must be in [2, 149], got 1",
            7.5: "n_neighbors must be an integer, got 7.5",
            10: None,
            150: "n_neighbors must be in [2, 149], got 150",
        }

    @pytest.mark.parametrize("method, ks", [
        ("umap", [1, 2.5, 150]),
        ("tsne", [0.5, 1, 150]),
    ])
    def test_all_invalid_runs_no_pass(self, blobs, monkeypatch, method, ks):
        data, labels = blobs
        calls = count_calls(monkeypatch, graphs)
        result = sweep(data, labels, method, ks)
        assert all(row.error is not None for row in result.rows)
        assert calls == {"relscore.graphs": 0}
        with pytest.raises(KnnError, match="threads must be positive"):
            sweep(data, labels, method, ks, threads=0)

    def test_umap_prune_eps_rejected_before_the_pass(self, blobs, monkeypatch):
        data, labels = blobs
        calls = count_calls(monkeypatch, graphs)
        with pytest.raises(MetricsError, match="prune_eps applies to method 'tsne' only"):
            sweep(data, labels, "umap", [10], prune_eps=0.5)
        assert calls == {"relscore.graphs": 0}


    def test_wrong_label_count_rejected_before_the_pass(self, blobs, monkeypatch):
        data, labels = blobs
        calls = count_calls(monkeypatch, graphs)
        builds = []
        monkeypatch.setattr(metrics, "build_graph", lambda *args, **kwargs: builds.append(1))
        short = LabelAssignment(labels.labels[:149], labels.vocabulary)
        with pytest.raises(MetricsError) as exc:
            sweep(data, short, "umap", [5, 10, 15])
        assert str(exc.value) == "label count 149 != dataset row count 150"
        assert calls == {"relscore.graphs": 0} and builds == []

    @pytest.mark.parametrize("prune_eps", [float("nan"), float("inf"), -1.0])
    def test_bad_prune_eps_rejected_before_the_pass(self, blobs, monkeypatch, prune_eps):
        data, labels = blobs
        calls = count_calls(monkeypatch, graphs)
        with pytest.raises(MetricsError,
                           match="prune_eps must be nonnegative and finite, got"):
            sweep(data, labels, "tsne", [10, 20], prune_eps=prune_eps)
        assert calls == {"relscore.graphs": 0}


class TestEstimateSharesOnePass:
    @pytest.mark.parametrize("method, k_max", [("umap", 40), ("tsne", 60)])
    def test_trace_equals_per_k_builds(self, blobs, monkeypatch, method, k_max):
        data, labels = blobs
        config = OptimizerConfig(k_min=2, k_max=k_max, n_init=3, budget=8, seed=4)
        calls = count_calls(monkeypatch, graphs)
        k_shared, shared = estimate(data, labels, method, config)
        assert calls == {"relscore.graphs": 1}
        # per-k builds: no shared lists, each build runs its own pass
        monkeypatch.setattr(optimizer, "shared_neighbors", lambda *args, **kwargs: None)
        k_per, per_k = estimate(data, labels, method, config)
        assert calls["relscore.graphs"] == 1 + 8
        assert k_shared == k_per
        assert dumps(shared.to_dict()) == dumps(per_k.to_dict())

    def test_umap_prune_eps_rejected_before_the_pass(self, blobs, monkeypatch):
        data, labels = blobs
        config = OptimizerConfig(k_min=2, k_max=20, n_init=2, budget=3)
        calls = count_calls(monkeypatch, graphs)
        with pytest.raises(OptimizerError,
                           match="prune_eps applies to method 'tsne' only"):
            estimate(data, labels, "umap", config, prune_eps=0.5)
        assert calls == {"relscore.graphs": 0}

    @pytest.mark.parametrize("prune_eps", [float("nan"), float("inf"), -1.0])
    def test_bad_prune_eps_rejected_before_the_pass(self, blobs, monkeypatch, prune_eps):
        data, labels = blobs
        config = OptimizerConfig(k_min=2, k_max=20, n_init=2, budget=3)
        calls = count_calls(monkeypatch, graphs)
        with pytest.raises(OptimizerError,
                           match="prune_eps must be nonnegative and finite, got"):
            estimate(data, labels, "tsne", config, prune_eps=prune_eps)
        assert calls == {"relscore.graphs": 0}
