import tracemalloc

import numpy as np
import pytest

from relscore.datasets import Dataset, LabelAssignment
from relscore.graphs import build_tsne_graph
from relscore.metrics import MetricConfig, report
from relscore.oracle import OracleError, brute_force_report, random_graph

from conftest import make_graph, make_labels


class TestBruteForce:
    def test_two_white_components(self, two_group_graph):
        graph, labels = two_group_graph
        rep = brute_force_report(graph, labels, 0.0, 1.0)
        # vertex 0: one white neighbor, whites 3,4 outside its component
        assert rep.vertex_recall[0] == pytest.approx(1.0 / 3.0)
        # vertex 3: one white neighbor, whites 0,1,2 outside its component
        assert rep.vertex_recall[3] == pytest.approx(1.0 / 4.0)

    def test_bridge_restores_recall(self, bridged_group_graph):
        graph, labels = bridged_group_graph
        rep = brute_force_report(graph, labels, 0.0, 1.0)
        assert np.all(rep.vertex_recall[:5] == 1.0)

    def test_six_vertex_precision(self, six_vertex_graph):
        graph, labels = six_vertex_graph
        rep = brute_force_report(graph, labels, 1.0, 1.0)
        assert rep.vertex_precision[0] == 0.75

    def test_guard_on_large_n(self):
        big = make_graph(1001, [(0, 1, 1.0)])
        labels = make_labels([0] * 1001, ("a",))
        with pytest.raises(OracleError, match="1000"):
            brute_force_report(big, labels, 1.0, 1.0)

    def test_matches_fast_path_spot(self):
        for seed in (0, 1, 2):
            graph, labels = random_graph(18, 3, 0.3, seed)
            fast = report(graph, labels, MetricConfig(alpha=0.5, beta=1.0))
            slow = brute_force_report(graph, labels, 0.5, 1.0)
            assert np.abs(fast.vertex_fscore - slow.vertex_fscore).max() <= 1e-12
            assert abs(fast.global_fscore - slow.global_fscore) <= 1e-12


    def test_peak_bytes_per_edge(self):
        # a verify-sized t-SNE graph: N=1000, perplexity 30, about 60,000 edges
        rng = np.random.Generator(np.random.PCG64(3))
        graph = build_tsne_graph(Dataset(rng.random((1000, 5))), 30.0)
        labels = LabelAssignment(rng.integers(0, 4, size=1000), ("a", "b", "c", "d"))
        tracemalloc.start()
        try:
            brute_force_report(graph, labels, 0.5, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 192 bytes per edge with one dict per vertex; 306 keyed by pairs
        assert peak < 250 * graph.n_edges


class TestRandomGraph:
    def test_edge_prob_zero_is_edgeless(self):
        graph, _ = random_graph(10, 2, 0.0, 3)
        assert graph.n_edges == 0

    def test_edge_prob_one_is_complete(self):
        graph, _ = random_graph(10, 2, 1.0, 3)
        assert graph.n_edges == 45

    def test_deterministic(self):
        a, la = random_graph(30, 4, 0.2, 1)
        b, lb = random_graph(30, 4, 0.2, 1)
        assert a.n_edges == b.n_edges
        assert np.array_equal(a.edges_i, b.edges_i)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert np.array_equal(la.labels, lb.labels)

    def test_weights_in_half_open_unit(self):
        graph, _ = random_graph(30, 2, 0.5, 9)
        assert np.all(graph.weights > 0.0)
        assert np.all(graph.weights <= 1.0)

    @pytest.mark.parametrize("bad", [
        {"n": 1, "n_labels": 1, "edge_prob": 0.5, "seed": 0},
        {"n": 5, "n_labels": 0, "edge_prob": 0.5, "seed": 0},
        {"n": 5, "n_labels": 6, "edge_prob": 0.5, "seed": 0},
        {"n": 5, "n_labels": 2, "edge_prob": 1.5, "seed": 0},
    ])
    def test_invalid_params(self, bad):
        with pytest.raises(OracleError):
            random_graph(**bad)
