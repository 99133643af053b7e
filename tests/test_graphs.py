import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relscore import graphs as graphs_module
from relscore.datasets import Dataset, preset
from relscore.graphs import (
    GraphError,
    GraphProvenance,
    RelationshipGraph,
    build_tsne_graph,
    build_umap_graph,
    default_prune_eps,
    fuzzy_union,
    load_graph,
    save_graph,
    tsne_calibration,
    umap_calibration,
)
from relscore.metrics import MetricConfig, report

from conftest import make_graph, make_labels


@pytest.fixture(scope="module")
def blobs():
    return preset("three-blobs", seed=7)


@pytest.fixture(scope="module")
def small_random():
    rng = np.random.Generator(np.random.PCG64(21))
    return Dataset(rng.random((40, 3)) * 4)


def star_dataset():
    """Center plus four points at distance 1: equidistant candidates."""
    return Dataset(np.array([
        [0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
    ]))


class TestTsneGraph:
    def test_directed_weight_normalization(self, small_random):
        # pre-pruning the symmetrized weights sum to 1 over ordered pairs
        graph = build_tsne_graph(small_random, 8.0, prune_eps=0.0)
        assert 2.0 * graph.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_equidistant_candidates_give_uniform_conditionals(self):
        cal = tsne_calibration(star_dataset(), 2.0)
        # center vertex: 4 candidates all at distance 1 -> achieved
        # effective size is the candidate count whatever sigma is
        assert cal.achieved[0] == pytest.approx(4.0, abs=1e-9)
        assert not cal.converged[0]
        assert bool(cal.converged[1:].all())

    def test_calibration_hits_target(self, blobs):
        data, _ = blobs
        for perplexity in (5.0, 20.0, 50.0):
            cal = tsne_calibration(data, perplexity)
            assert cal.all_converged
            assert np.abs(cal.achieved - perplexity).max() <= 1e-3

    def test_prune_monotone_nonincreasing(self, small_random):
        prev = None
        for eps in (0.0, 1e-9, 1e-6, 1e-4, 1e-3):
            graph = build_tsne_graph(small_random, 6.0, prune_eps=eps)
            pairs = set(zip(graph.edges_i.tolist(), graph.edges_j.tolist()))
            if prev is not None:
                assert pairs <= prev
            prev = pairs

    def test_edges_come_from_candidate_lists(self, small_random):
        from relscore.knn import exact_knn

        perplexity = 6.0
        k = min(math.ceil(3 * perplexity), small_random.n - 1)
        nbrs = exact_knn(small_random, k)
        cand = {(v, int(u)) for v in range(small_random.n) for u in nbrs.indices[v]}
        graph = build_tsne_graph(small_random, perplexity)
        for i, j in zip(graph.edges_i.tolist(), graph.edges_j.tolist()):
            assert (i, j) in cand or (j, i) in cand

    def test_deterministic(self, small_random):
        a = build_tsne_graph(small_random, 9.0)
        b = build_tsne_graph(small_random, 9.0)
        assert np.array_equal(a.edges_i, b.edges_i)
        assert np.array_equal(a.edges_j, b.edges_j)
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_default_prune_scale(self, small_random):
        graph = build_tsne_graph(small_random, 6.0)
        assert graph.provenance.options["prune_eps"] == default_prune_eps(40)

    @pytest.mark.parametrize("perplexity", [1.0, 1.9, 40.0, 500.0])
    def test_perplexity_out_of_range(self, small_random, perplexity):
        with pytest.raises(GraphError, match="perplexity"):
            build_tsne_graph(small_random, perplexity)

    def test_negative_prune_rejected(self, small_random):
        with pytest.raises(GraphError, match="prune_eps"):
            build_tsne_graph(small_random, 5.0, prune_eps=-1.0)


class TestUmapGraph:
    def test_mutual_nearest_pair_weight_is_one(self):
        data = Dataset(np.array([
            [0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.2, 0.0], [20.0, 5.0],
        ]))
        graph = build_umap_graph(data, 2)
        weights = {
            (i, j): w for i, j, w in
            zip(graph.edges_i.tolist(), graph.edges_j.tolist(), graph.weights.tolist())
        }
        assert weights[(0, 1)] == 1.0
        assert weights[(2, 3)] == 1.0

    def test_fuzzy_union_values(self):
        assert fuzzy_union(1.0, 0.0) == 1.0
        assert fuzzy_union(0.0, 1.0) == 1.0
        assert fuzzy_union(0.5, 0.5) == 0.75
        assert fuzzy_union(1.0, 1.0) == 1.0
        assert fuzzy_union(0.0, 0.0) == 0.0
        assert fuzzy_union(1.0, 0.3) == 1.0

    def test_membership_sum_hits_target(self, blobs):
        data, _ = blobs
        for k in (5, 15, 30):
            cal = umap_calibration(data, k)
            assert cal.all_converged
            assert np.abs(cal.achieved - math.log2(k)).max() <= 1e-3

    def test_degenerate_equidistant_candidates(self):
        cal = umap_calibration(star_dataset(), 4)
        # center vertex: all adjusted distances zero, sum is constant 4
        assert not cal.converged[0]
        assert cal.sigma[0] == 1.0
        assert cal.achieved[0] == 4.0

    def test_duplicate_points_flagged_not_fatal(self):
        # three coincident points: targets unreachable, vertices get a
        # clamped bandwidth and the build still returns a scorable graph
        data = Dataset(np.array([
            [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
            [5.0, 5.0], [5.1, 5.0], [9.0, 1.0],
        ]))
        graph = build_umap_graph(data, 3)
        assert graph.provenance.options["non_converged"] == 3
        assert graph.n_edges > 0
        tsne = build_tsne_graph(data, 2.0)
        assert tsne.n_edges > 0

    def test_weights_in_unit_interval(self, small_random):
        graph = build_umap_graph(small_random, 10)
        assert np.all(graph.weights > 0)
        assert np.all(graph.weights <= 1.0)

    def test_every_vertex_touches_a_full_strength_edge(self, small_random):
        # each vertex's nearest neighbor gets membership exp(0) = 1 from
        # it, and the union keeps a full-strength side at exactly 1
        graph = build_umap_graph(small_random, 6)
        best = np.zeros(small_random.n)
        for i, j, w in zip(graph.edges_i.tolist(), graph.edges_j.tolist(),
                           graph.weights.tolist()):
            best[i] = max(best[i], w)
            best[j] = max(best[j], w)
        assert np.all(best == 1.0)

    def test_deterministic(self, small_random):
        a = build_umap_graph(small_random, 8)
        b = build_umap_graph(small_random, 8)
        assert np.array_equal(a.edges_i, b.edges_i)
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_edges_come_from_knn_lists(self, small_random):
        from relscore.knn import exact_knn

        nbrs = exact_knn(small_random, 8)
        cand = {(v, int(u)) for v in range(small_random.n) for u in nbrs.indices[v]}
        graph = build_umap_graph(small_random, 8)
        for i, j in zip(graph.edges_i.tolist(), graph.edges_j.tolist()):
            assert (i, j) in cand or (j, i) in cand

    @pytest.mark.parametrize("k", [0, 1, 40, 2.5])
    def test_n_neighbors_out_of_range(self, small_random, k):
        with pytest.raises(GraphError, match="n_neighbors"):
            build_umap_graph(small_random, k)


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            RelationshipGraph(4, [1], [1], [0.5], GraphProvenance("external"))

    def test_rejects_duplicates(self):
        with pytest.raises(GraphError, match="duplicate"):
            RelationshipGraph(4, [0, 0], [1, 1], [0.5, 0.2],
                              GraphProvenance("external"))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphError, match="weight"):
            RelationshipGraph(4, [0], [1], [0.0], GraphProvenance("external"))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="outside"):
            RelationshipGraph(4, [0], [7], [0.5], GraphProvenance("external"))

    @pytest.mark.parametrize("edges_i, edges_j, shown", [
        ([0.7], [1.9], "0.7"),
        ([0], [1.5], "1.5"),
        ([float("nan")], [1], "nan"),
        ([0], [float("inf")], "inf"),
    ], ids=["both-fractional", "one-fractional", "nan", "inf"])
    def test_rejects_fractional_or_nonfinite_endpoints(self, edges_i, edges_j, shown):
        with pytest.raises(GraphError, match=f"edge endpoint {shown} is not an integer"):
            RelationshipGraph(4, edges_i, edges_j, [0.5], GraphProvenance("external"))

    def test_integral_float_endpoints_kept(self):
        graph = RelationshipGraph(4, [0.0, 1.0], [3.0, 2.0], [0.5, 0.25],
                                  GraphProvenance("external"))
        assert graph.edges_i.dtype == np.int64
        assert (graph.edges_i.tolist(), graph.edges_j.tolist()) == ([0, 1], [3, 2])
        with pytest.raises(GraphError, match="outside"):
            RelationshipGraph(4, [0.0], [1e30], [0.5], GraphProvenance("external"))

    def test_sorts_edges(self):
        graph = RelationshipGraph(4, [2, 0], [3, 1], [0.1, 0.2],
                                  GraphProvenance("external"))
        assert graph.edges_i.tolist() == [0, 2]
        assert graph.weights.tolist() == [0.2, 0.1]

    def test_adjacency_ascending(self):
        graph = RelationshipGraph(4, [0, 0, 1], [3, 1, 2], [0.3, 0.1, 0.2],
                                  GraphProvenance("external"))
        offsets, neighbors, weights = graph.adjacency()
        assert neighbors[offsets[0]:offsets[1]].tolist() == [1, 3]
        assert weights[offsets[0]:offsets[1]].tolist() == [0.1, 0.3]
        assert neighbors[offsets[1]:offsets[2]].tolist() == [0, 2]


class TestPersistence:
    def test_roundtrip_exact(self, small_random, tmp_path):
        for graph in (build_tsne_graph(small_random, 6.0),
                      build_umap_graph(small_random, 6)):
            path = tmp_path / "g.json"
            save_graph(graph, path)
            back = load_graph(path)
            assert back.n_vertices == graph.n_vertices
            assert np.array_equal(back.edges_i, graph.edges_i)
            assert np.array_equal(back.edges_j, graph.edges_j)
            assert back.weights.tobytes() == graph.weights.tobytes()
            assert back.provenance.method == graph.provenance.method
            assert back.provenance.param == graph.provenance.param
            assert back.provenance.options == graph.provenance.options

    def test_self_loop_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 5, "method": "external", "param": None,
             "edges": [[0, 1, 0.5], [3, 3, 0.5]]}
        ))
        with pytest.raises(GraphError, match=r"edges\[1\].*self-loop"):
            load_graph(path)

    def test_duplicate_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 5, "method": "external",
             "edges": [[0, 1, 0.5], [0, 1, 0.25]]}
        ))
        with pytest.raises(GraphError, match=r"edges\[1\].*duplicate"):
            load_graph(path)

    def test_bad_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 5, "method": "external", "edges": [[0, 1, -2.0]]}
        ))
        with pytest.raises(GraphError, match=r"edges\[0\].*weight"):
            load_graph(path)

    def test_misordered_endpoints_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 5, "method": "external", "edges": [[2, 1, 0.5]]}
        ))
        with pytest.raises(GraphError, match=r"i < j"):
            load_graph(path)

    def test_bad_param_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 5, "method": "external", "param": "thirty", "edges": []}
        ))
        with pytest.raises(GraphError, match="param"):
            load_graph(path)

    def test_unknown_method_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 5, "method": "isomap", "edges": []}
        ))
        with pytest.raises(GraphError, match="method"):
            load_graph(path)

    def test_external_file_scores(self, tmp_path):
        path = tmp_path / "ext.json"
        path.write_text(json.dumps({
            "n": 5,
            "method": "external",
            "param": None,
            "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 0.25],
                      [3, 4, 1.0], [0, 4, 0.125]],
        }))
        graph = load_graph(path)
        assert graph.provenance.method == "external"
        labels = make_labels([0, 0, 0, 1, 1], ("x", "y"))
        rep = report(graph, labels, MetricConfig())
        assert 0.0 <= rep.global_fscore <= 1.0


def reference_bytes(graph):
    """The file as one json.dumps of the whole document."""
    doc = {
        "n": graph.n_vertices,
        "method": graph.provenance.method,
        "param": graph.provenance.param,
        "edges": [[int(i), int(j), float(w)] for i, j, w in
                  zip(graph.edges_i, graph.edges_j, graph.weights)],
    }
    if graph.provenance.options:
        doc["options"] = graph.provenance.options
    return (json.dumps(doc) + "\n").encode("utf-8")


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    method = draw(st.sampled_from(("tsne", "umap", "external")))
    param = draw(st.one_of(st.none(), st.integers(2, 500),
                           st.floats(allow_nan=False, allow_infinity=False)))
    options = draw(st.dictionaries(
        st.text(max_size=4),
        st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=4)),
        max_size=3,
    ))
    return RelationshipGraph(n, [i for i, _ in chosen], [j for _, j in chosen],
                             [draw(weights) for _ in chosen],
                             GraphProvenance(method, param, options))


class TestGraphWriter:
    def test_edgeless_graph(self, tmp_path):
        graph = make_graph(3, [], method="tsne", param=2.5)
        save_graph(graph, tmp_path / "g.json")
        assert (tmp_path / "g.json").read_bytes() == reference_bytes(graph)

    def test_external_graph_without_param_or_options(self, tmp_path):
        graph = make_graph(4, [(0, 3, 0.1), (1, 2, 1e-300), (0, 1, 7.0)])
        assert graph.provenance.param is None and not graph.provenance.options
        save_graph(graph, tmp_path / "g.json")
        assert (tmp_path / "g.json").read_bytes() == reference_bytes(graph)

    @pytest.mark.parametrize("slice_edges", [1, 7, 1000])
    def test_edges_across_write_slices(self, small_random, tmp_path,
                                       monkeypatch, slice_edges):
        monkeypatch.setattr(graphs_module, "_EDGE_SLICE", slice_edges)
        for graph in (build_tsne_graph(small_random, 5.0),
                      build_umap_graph(small_random, 6)):
            assert graph.n_edges > 7
            save_graph(graph, tmp_path / "g.json")
            assert (tmp_path / "g.json").read_bytes() == reference_bytes(graph)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(graphs(), st.integers(1, 5))
    def test_save_load_save_round_trip(self, tmp_path_factory, graph, slice_edges):
        path = tmp_path_factory.mktemp("roundtrip") / "g.json"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs_module, "_EDGE_SLICE", slice_edges)
            save_graph(graph, path)
            first = path.read_bytes()
            back = load_graph(path)
            save_graph(back, path)
        assert path.read_bytes() == first == reference_bytes(graph)
        assert back.n_vertices == graph.n_vertices
        assert back.edges_i.tobytes() == graph.edges_i.tobytes()
        assert back.edges_j.tobytes() == graph.edges_j.tobytes()
        assert back.weights.tobytes() == graph.weights.tobytes()
        assert back.provenance == graph.provenance
