"""One kNN pass shared as exact prefixes gives the same graphs and results.

Builders given `neighbors=` must return what a fresh per-build kNN pass
returns, bit for bit; `sweep` and `estimate` must run at most one pass
and produce the rows and traces of independent per-k builds.  The pass
runs in `graphs.shared_neighbors`, so `graphs.exact_knn` counts it.
"""

import json

import numpy as np
import pytest

from relscore import graphs, metrics, optimizer
from relscore.datasets import Dataset, preset
from relscore.graphs import (
    GraphError,
    build_graph,
    build_tsne_graph,
    build_umap_graph,
    neighbor_count,
)
from relscore.knn import KnnError, exact_knn
from relscore.metrics import MetricsError, sweep
from relscore.optimizer import OptimizerConfig, OptimizerError, estimate


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
