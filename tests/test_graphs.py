import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from relscore import graphs as graphs_module
from relscore import knn as knn_module
from relscore.datasets import Dataset, preset
from relscore.graphs import (
    CALIBRATION_TOL,
    BandwidthCalibration,
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
from relscore.knn import NeighborLists, exact_knn
from relscore.metrics import MetricConfig, classify_neighbors, report, sweep
from relscore.optimizer import OptimizerConfig, estimate

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
        from relscore.knn import NeighborLists, exact_knn

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

    @pytest.mark.parametrize("prune_eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_prune_rejected(self, small_random, prune_eps):
        with pytest.raises(GraphError) as exc:
            build_tsne_graph(small_random, 5.0, prune_eps=prune_eps)
        assert str(exc.value) == f"prune_eps must be nonnegative and finite, got {prune_eps}"


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
        from relscore.knn import NeighborLists, exact_knn

        nbrs = exact_knn(small_random, 8)
        cand = {(v, int(u)) for v in range(small_random.n) for u in nbrs.indices[v]}
        graph = build_umap_graph(small_random, 8)
        for i, j in zip(graph.edges_i.tolist(), graph.edges_j.tolist()):
            assert (i, j) in cand or (j, i) in cand

    @pytest.mark.parametrize("k", [0, 1, 40, 2.5, math.nan, math.inf])
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

    @pytest.mark.parametrize("edges_i, edges_j, weights, message", [
        ([0, 2, 0], [1, 3, 1], [0.5, 0.5, 0.5], "edges[2]: duplicate edge (0,1)"),
        ([0, 3], [1, 3], [0.5, 0.5], "edges[1]: self-loop (3,3)"),
        ([0, 2], [1, 1], [0.5, 0.5], "edges[1]: endpoints must satisfy i < j, got (2,1)"),
        ([0, 1], [1, 2], [0.5, -2.0], "edges[1]: weight must be positive and finite, got -2.0"),
        ([0, 0.5], [1, 2], [0.5, 0.5], "edges[1]: edge endpoint 0.5 is not an integer"),
        ([1, 0], [9, 0], [-1.0, 0.5], "edges[0]: endpoint outside 0..3"),
        ([1, 0], [2, 0], [-1.0, 0.5], "edges[0]: weight must be positive and finite, got -1.0"),
        ([5, 0], [5, 1], [0.5, 0.5], "edges[0]: self-loop (5,5)"),
        ([10 ** 30], [2], [0.5], f"edges[0]: endpoints must satisfy i < j, got ({10 ** 30},2)"),
        ([0], [1], [10 ** 400], "edges[0]: weight must be positive and finite, got inf"),
        ([10 ** 400, 0.5], [10 ** 401, 2], [0.5, 0.5], "edges[0]: endpoint outside 0..3"),
    ], ids=["duplicate", "self-loop", "order", "weight", "fractional", "first-rule",
            "first-edge", "loop-before-range", "huge", "weight-past-double-range",
            "huge-beside-float"])
    def test_error_names_first_input_edge_and_rule(self, edges_i, edges_j, weights, message):
        with pytest.raises(GraphError) as exc:
            RelationshipGraph(4, edges_i, edges_j, weights, GraphProvenance("external"))
        assert str(exc.value) == message

    @pytest.mark.parametrize("as_array", [
        lambda v: np.array(v, dtype=float),
        lambda v: np.array(v, dtype=object),
        lambda v: np.array(v, dtype=float).astype(object),
    ], ids=["float", "object-ints", "object-floats"])
    @pytest.mark.parametrize("edges_i, edges_j, weights, message", [
        ([0, 0.5], [1, 2], [0.5, 0.5], "edges[1]: edge endpoint 0.5 is not an integer"),
        ([0, 3], [1, 3], [0.5, 0.5], "edges[1]: self-loop (3,3)"),
        ([0, 2], [1, 1], [0.5, 0.5], "edges[1]: endpoints must satisfy i < j, got (2,1)"),
        ([0, 1], [1, 9], [0.5, 0.5], "edges[1]: endpoint outside 0..3"),
        ([0, 2, 0], [1, 3, 1], [0.5, 0.5, 0.5], "edges[2]: duplicate edge (0,1)"),
        ([0, 1], [1, 2], [0.5, -2.0], "edges[1]: weight must be positive and finite, got -2.0"),
    ], ids=["not-integer", "self-loop", "order", "outside", "duplicate", "weight"])
    def test_float_and_object_endpoints_name_each_rule(self, as_array, edges_i, edges_j,
                                                       weights, message):
        with pytest.raises(GraphError) as exc:
            RelationshipGraph(4, as_array(edges_i), as_array(edges_j), weights,
                              GraphProvenance("external"))
        assert str(exc.value) == message

    @pytest.mark.parametrize("edges_i, edges_j, message", [
        (np.array([False]), np.array([True]), "edges[0]: edge endpoint False is not an integer"),
        (np.array([0, 1], dtype=object), np.array([True, 2], dtype=object),
         "edges[0]: edge endpoint True is not an integer"),
        (np.array(["a"]), [1], "edges[0]: edge endpoint a is not an integer"),
        ([0, None], [1, 2], "edges[1]: edge endpoint None is not an integer"),
        ([0, False], (True, 2), "edges[0]: edge endpoint True is not an integer"),
    ], ids=["boolean", "boolean-object", "text", "none", "boolean-in-list"])
    def test_rejects_endpoints_that_are_not_numbers(self, edges_i, edges_j, message):
        with pytest.raises(GraphError) as exc:
            RelationshipGraph(3, edges_i, edges_j, [1.0] * len(edges_j),
                              GraphProvenance("external"))
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [4.5, float("nan"), float("inf"), True, np.float64(2.5),
                                   "4", [4]],
                             ids=["fractional", "nan", "inf", "boolean", "numpy-fractional",
                                  "text", "list"])
    def test_rejects_non_integer_vertex_count(self, n):
        with pytest.raises(GraphError) as exc:
            RelationshipGraph(n, [0], [1], [1.0], GraphProvenance("external"))
        assert str(exc.value) == f"n_vertices must be an integer, got {n!r}"

    def test_integral_vertex_count_kept(self):
        for n in (4.0, np.int64(4), np.float64(4.0)):
            graph = RelationshipGraph(n, [0], [1], [1.0], GraphProvenance("external"))
            assert type(graph.n_vertices) is int and graph.n_vertices == 4
        with pytest.raises(GraphError, match="n_vertices must be positive, got 0"):
            RelationshipGraph(0.0, [], [], [], GraphProvenance("external"))

    @pytest.mark.parametrize("n", [2 ** 63, 10 ** 30, np.uint64(2 ** 63), float(2 ** 64)])
    def test_rejects_vertex_count_past_int64(self, n):
        with pytest.raises(GraphError) as exc:
            RelationshipGraph(n, [0], [1], [1.0], GraphProvenance("external"))
        assert str(exc.value) == f"n_vertices must be at most {2 ** 63 - 1}, got {int(n)}"
        graph = RelationshipGraph(2 ** 63 - 1, [0], [1], [1.0], GraphProvenance("external"))
        assert graph.n_vertices == 2 ** 63 - 1

    def test_stored_arrays_never_alias_the_input(self):
        ei, ej, w = np.array([0, 1]), np.array([2, 2]), np.array([0.5, 1.5])
        graph = RelationshipGraph(3, ei, ej, w, GraphProvenance("external"))
        for stored, given in zip((graph.edges_i, graph.edges_j, graph.weights), (ei, ej, w)):
            assert not np.shares_memory(stored, given) and not stored.flags.writeable
            assert given.flags.writeable
        ei[0], w[0] = 1, 9.0
        assert graph.edges_i.tolist() == [0, 1] and graph.weights.tolist() == [0.5, 1.5]

    def test_builders_hand_over_without_a_copy(self):
        ei, ej, w = np.array([0, 1]), np.array([2, 2]), np.array([0.5, 1.5])
        graph = RelationshipGraph._adopt(3, ei, ej, w, GraphProvenance("external"))
        for stored, given in zip((graph.edges_i, graph.edges_j, graph.weights), (ei, ej, w)):
            assert np.shares_memory(stored, given) and not stored.flags.writeable
        copied = RelationshipGraph(3, ei, ej, w, GraphProvenance("external"))
        same_arrays((graph.edges_i, graph.edges_j, graph.weights),
                    (copied.edges_i, copied.edges_j, copied.weights))

    @pytest.mark.parametrize("ei, ej, w", [
        ([0, 1], [1, 1], [1.0, 1.0]), ([0, 2], [1, 1], [1.0, 1.0]), ([0, 1], [1, 7], [1.0, 1.0]),
        ([0, 1, 0], [1, 2, 1], [1.0, 1.0, 1.0]), ([0, 1], [1, 2], [1.0, 0.0]),
        ([0, 1], [1, 2], [np.nan, 1.0]), ([-1, 0], [2, 1], [1.0, 1.0]),
        ([1, 0], [2, 1], [0.25, 0.5]),
    ])
    def test_hand_over_runs_the_constructor_checks(self, ei, ej, w):
        arrays = np.array(ei, dtype=np.int64), np.array(ej, dtype=np.int64), np.array(w)
        outcomes = []
        for make in (RelationshipGraph, RelationshipGraph._adopt):
            try:
                graph = make(4, *(a.copy() for a in arrays), GraphProvenance("external"))
                outcomes.append((graph.edges_i.tolist(), graph.edges_j.tolist(),
                                 graph.weights.tolist()))
            except GraphError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_sorts_edges(self):
        graph = RelationshipGraph(4, [2, 0], [3, 1], [0.1, 0.2],
                                  GraphProvenance("external"))
        assert graph.edges_i.tolist() == [0, 2]
        assert graph.weights.tolist() == [0.2, 0.1]

    def test_shuffled_edges_store_the_sorted_bytes(self, small_random):
        graph = build_tsne_graph(small_random, 5.0)
        perm = np.random.Generator(np.random.PCG64(3)).permutation(graph.n_edges)
        for order in (perm, np.arange(graph.n_edges)[::-1]):
            shuffled = RelationshipGraph(graph.n_vertices, graph.edges_i[order],
                                         graph.edges_j[order], graph.weights[order],
                                         graph.provenance)
            same_arrays((shuffled.edges_i, shuffled.edges_j, shuffled.weights),
                        (graph.edges_i, graph.edges_j, graph.weights))

    def test_neighbors_ascending(self):
        graph = RelationshipGraph(4, [0, 0, 1], [3, 1, 2], [0.3, 0.1, 0.2],
                                  GraphProvenance("external"))
        labels = make_labels([0, 0, 0, 0])
        assert classify_neighbors(graph, labels, 0).tp_ids == (1, 3)
        assert classify_neighbors(graph, labels, 1).tp_ids == (0, 2)


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

    def test_endpoint_ids_near_two_to_the_62(self, tmp_path):
        # memory grows with the edge count, not with the endpoint ids
        n = 2 ** 62
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": n, "method": "external",
                                    "edges": [[n - 2, n - 1, 1.0]]}))
        graph = load_graph(path)
        assert graph.n_vertices == n
        assert (graph.edges_i.tolist(), graph.edges_j.tolist()) == ([n - 2], [n - 1])
        assert graph.weights.tolist() == [1.0]

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

    def write(self, tmp_path, text):
        path = tmp_path / "g.json"
        path.write_text(text)
        return path

    def test_boolean_endpoints_rejected(self, tmp_path):
        path = self.write(tmp_path, '{"n": 5, "method": "external", '
                                    '"edges": [[false, true, 0.5]]}')
        with pytest.raises(GraphError) as exc:
            load_graph(path)
        assert str(exc.value) == f"{path}: edges[0]: endpoints must be integers"

    def test_boolean_n_rejected(self, tmp_path):
        path = self.write(tmp_path, '{"n": true, "method": "external", "edges": []}')
        with pytest.raises(GraphError) as exc:
            load_graph(path)
        assert str(exc.value) == f"{path}: 'n' must be a positive integer, got True"

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_weight_past_double_range_is_infinite(self, tmp_path, sign):
        path = self.write(tmp_path, '{"n": 5, "method": "external", '
                                    f'"edges": [[0, 1, 0.5], [1, 2, {sign}{"9" * 400}]]}}')
        with pytest.raises(GraphError) as exc:
            load_graph(path)
        assert str(exc.value) == (
            f"{path}: edges[1]: weight must be positive and finite, got {sign}inf")

    @pytest.mark.parametrize("endpoint", [10 ** 30, 2 ** 63, -(10 ** 30)])
    def test_huge_endpoint_outside_range(self, tmp_path, endpoint):
        i, j = sorted([1, endpoint]) if endpoint > 0 else (endpoint, 1)
        path = self.write(tmp_path, json.dumps(
            {"n": 5, "method": "external", "edges": [[0, 1, 0.5], [i, j, 0.5]]}))
        with pytest.raises(GraphError) as exc:
            load_graph(path)
        assert str(exc.value) == f"{path}: edges[1]: endpoint outside 0..4"

    @pytest.mark.parametrize("raw", [
        b'{"n": 5, "method": "external", "edges": [[0, 1, ' + b"1" * 5000 + b"]]}",
        b'{"n": 5, "method": "\xff", "edges": []}',
    ], ids=["integer-past-digit-limit", "not-utf8"])
    def test_unreadable_json_is_a_graph_error(self, tmp_path, raw):
        path = tmp_path / "g.json"
        path.write_bytes(raw)
        with pytest.raises(GraphError, match="invalid JSON"):
            load_graph(path)

    def test_provenance_error_names_the_file(self, tmp_path):
        path = self.write(tmp_path, '{"n": 5, "method": ["x"], "edges": []}')
        with pytest.raises(GraphError) as exc:
            load_graph(path)
        assert str(exc.value).startswith(f"{path}: method must be one of")

    @pytest.mark.parametrize("header", [
        '"param": NaN', '"param": -Infinity', '"options": {"note": Infinity}',
        '"param": NaN, "options": {"note": Infinity}',
        '"param": 30, "options": {"bounds": [0, {"low": -Infinity}]}',
    ])
    def test_non_finite_provenance_names_the_file(self, tmp_path, header):
        path = self.write(tmp_path, '{"n": 3, "method": "tsne", ' + header
                          + ', "edges": [[0, 1, 0.5]]}')
        with pytest.raises(GraphError) as exc:
            load_graph(path)
        assert str(exc.value).startswith(
            f"{path}: param and options must be JSON (no NaN or Infinity): ")

    def test_bad_edge_named_before_non_finite_provenance(self, tmp_path):
        path = self.write(tmp_path, '{"n": 3, "method": "tsne", "param": NaN, '
                                    '"edges": [[0, 1, 0.5], [2, 2, 0.5]]}')
        with pytest.raises(GraphError) as exc:
            load_graph(path)
        assert str(exc.value) == f"{path}: edges[1]: self-loop (2,2)"

    def test_edges_in_any_order_sorted_on_load(self, tmp_path):
        path = self.write(tmp_path, '{"n": 4, "method": "external", '
                                    '"edges": [[2, 3, 0.25], [0, 3, 1], [0, 1, 0.5]]}')
        graph = load_graph(path)
        assert graph.edges_i.tolist() == [0, 0, 2]
        assert graph.edges_j.tolist() == [1, 3, 3]
        assert graph.weights.tolist() == [0.5, 1.0, 0.25]

    def test_vertex_count_far_above_the_endpoints_loads(self, tmp_path):
        path = self.write(tmp_path, json.dumps({
            "n": 2 ** 63 - 1, "method": "external", "edges": [[2, 5, 1.0], [0, 1, 0.5]]}))
        graph = load_graph(path)
        assert graph.n_vertices == 2 ** 63 - 1
        assert (graph.edges_i.tolist(), graph.edges_j.tolist()) == ([0, 2], [1, 5])
        assert graph.weights.tolist() == [0.5, 1.0]

    @pytest.mark.parametrize("n", [2 ** 63, 10 ** 30])
    def test_vertex_count_past_int64_rejected(self, tmp_path, n):
        path = self.write(tmp_path, json.dumps({
            "n": n, "method": "external", "edges": [[0, 1, 0.5]]}))
        with pytest.raises(GraphError) as exc:
            load_graph(path)
        assert str(exc.value) == f"{path}: n_vertices must be at most {2 ** 63 - 1}, got {n}"

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
        st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                  st.text(max_size=4)),
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

    @pytest.mark.parametrize("weights", [[], [5e-324], [1.0, 1e16, 5e-324]],
                             ids=["no-edges", "subnormal", "repr-forms"])
    @pytest.mark.parametrize("options", [{}, {"prune_eps": 1e-16, "candidates": 6}],
                             ids=["no-options", "options"])
    def test_file_is_json_dumps_of_the_document(self, tmp_path, weights, options):
        pairs = [(0, 1), (0, 3), (2, 3)][:len(weights)]
        graph = RelationshipGraph(4, [i for i, _ in pairs], [j for _, j in pairs], weights,
                                  GraphProvenance("tsne", 2.5, options))
        doc = {"n": 4, "method": "tsne", "param": 2.5,
               "edges": [[i, j, w] for (i, j), w in zip(pairs, weights)]}
        if options:
            doc["options"] = options
        save_graph(graph, tmp_path / "g.json")
        assert (tmp_path / "g.json").read_bytes() == (json.dumps(doc) + "\n").encode()

    def test_full_slices(self, large_graph, tmp_path):
        assert large_graph.n_edges > 2 * graphs_module._EDGE_SLICE
        save_graph(large_graph, tmp_path / "g.json")
        assert (tmp_path / "g.json").read_bytes() == reference_bytes(large_graph)

    def test_endpoint_ids_near_two_to_the_62(self, tmp_path, monkeypatch):
        # the id tables hold a slice's distinct ids, never n entries
        monkeypatch.setattr(graphs_module, "_EDGE_SLICE", 3)
        n = 2 ** 62
        pairs = [(0, n - 1), (5, n - 2), (n - 9, n - 8), (n - 9, n - 1), (n - 3, n - 2),
                 (n - 3, n - 1), (n - 2, n - 1)]
        graph = RelationshipGraph(n, [i for i, _ in pairs], [j for _, j in pairs],
                                  [0.5, 1e-300, 3.0, 2.5e16, 0.1, 7.0, 1.0],
                                  GraphProvenance("external"))
        save_graph(graph, tmp_path / "g.json")
        assert (tmp_path / "g.json").read_bytes() == reference_bytes(graph)
        back = load_graph(tmp_path / "g.json")
        assert back.edges_i.tolist() == graph.edges_i.tolist()
        assert back.edges_j.tolist() == graph.edges_j.tolist()

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


    @pytest.mark.parametrize("existing", [False, True], ids=["new-path", "existing-file"])
    def test_unwritable_options_leave_no_file(self, tmp_path, existing):
        # GraphProvenance accepts a value json cannot write; save_graph must
        # fail before it opens the file, not after the edges are on disk
        graph = RelationshipGraph(3, [0, 1], [1, 2], [0.5, 0.25],
                                  GraphProvenance("tsne", 2.0, {"steps": np.int64(3)}))
        path = tmp_path / "g.json"
        if existing:
            path.write_bytes(b"earlier contents\n")
        with pytest.raises(TypeError, match="int64"):
            save_graph(graph, path)
        if existing:
            assert path.read_bytes() == b"earlier contents\n"
        else:
            assert not path.exists()


def written_weights(path, weights):
    """The weight texts save_graph writes for `weights`, one per edge, in order."""
    ids = np.arange(len(weights))
    save_graph(RelationshipGraph(len(weights) + 1, ids, ids + 1, weights,
                                 GraphProvenance("external")), path)
    text = path.read_text()
    body = text[text.index("[[") + 2:text.rindex("]]")]
    return [edge.split(", ")[2] for edge in body.split("], [")]


def neighbors_of(values, steps):
    """`values` and their first `steps` neighbors on either side."""
    out = [np.asarray(values, dtype=float)]
    for toward in (0.0, np.inf):
        near = out[0]
        for _ in range(steps):
            near = np.nextafter(near, toward)
            out.append(near)
    return np.concatenate(out)


POWERS_OF_TEN = np.array([float(f"1e{p}") for p in range(-323, 309)])


class TestWeightText:
    """The writer's weight text is float.__repr__, element by element."""

    @pytest.mark.parametrize("values", [
        pytest.param(2.0 ** np.arange(-1022, 1024), id="normal-powers-of-two"),
        pytest.param(neighbors_of(POWERS_OF_TEN, 1), id="powers-of-ten-and-neighbors"),
        pytest.param([2.2250738585072014e-308, 1.7976931348623157e308, 5e-324, 1e-323,
                      2.225073858507201e-308, 1.5e-310, 4.9406564584124654e-320],
                     id="normal-ends-and-subnormals"),
        pytest.param(np.arange(1, 100_001, dtype=float), id="integers-to-1e5"),
        pytest.param(2.0 ** 53 + np.arange(-500, 501), id="two-to-the-53"),
        pytest.param(neighbors_of([1e-4, 1e16], 300), id="notation-switches"),
    ])
    def test_values_write_as_repr(self, tmp_path, values):
        values = np.asarray(values, dtype=float)
        assert written_weights(tmp_path / "g.json", values) == [repr(x) for x in values.tolist()]

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.lists(st.floats(min_value=5e-324, allow_infinity=False), min_size=1, max_size=60))
    def test_any_positive_double(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("weights") / "g.json"
        assert written_weights(path, values) == [repr(x) for x in values]

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.lists(st.integers(1, 0x7FEF_FFFF_FFFF_FFFF), min_size=1, max_size=60))
    def test_any_bit_pattern(self, tmp_path_factory, bits):
        values = np.array(bits, dtype=np.int64).view(np.float64)
        path = tmp_path_factory.mktemp("bits") / "g.json"
        assert written_weights(path, values) == [repr(x) for x in values.tolist()]

    def test_ids_of_every_width_in_one_slice(self, tmp_path):
        big = 2 ** 62
        ids = [0, 9, 10, 99, 100, big - 3, big - 1, big, big + 1, big + 3, 2 ** 63 - 2]
        graph = RelationshipGraph(2 ** 63 - 1, ids[:-1], ids[1:], np.full(len(ids) - 1, 0.5),
                                  GraphProvenance("external"))
        save_graph(graph, tmp_path / "g.json")
        assert (tmp_path / "g.json").read_bytes() == reference_bytes(graph)

    def test_id_columns_hold_any_int64(self):
        ids = np.array([0, 9, 10, 99, 100, 2 ** 62 - 1, 2 ** 62 + 1, 2 ** 63 - 1])
        rows = np.empty((19, ids.size), dtype=np.uint8)
        graphs_module._id_rows(ids, rows)
        assert [bytes(col).replace(b"\0", b"").decode() for col in rows.T] == \
            [str(i) for i in ids.tolist()]


def count_fallbacks(monkeypatch):
    """A list that receives the number of weights each call sends to float.__repr__."""
    calls, original = [], graphs_module._repr_digits

    def counted(values):
        calls.append(len(values))
        return original(values)

    monkeypatch.setattr(graphs_module, "_repr_digits", counted)
    return calls


class TestReprFallback:
    def test_every_weight_falling_back_writes_the_same_bytes(self, large_graph, small_random,
                                                             tmp_path, monkeypatch):
        calls = count_fallbacks(monkeypatch)
        monkeypatch.setattr(graphs_module, "_REPR_MARGIN", math.inf)
        saved = (large_graph, build_tsne_graph(small_random, 5.0),
                 build_umap_graph(small_random, 6))
        for graph in saved:
            save_graph(graph, tmp_path / "g.json")
            assert (tmp_path / "g.json").read_bytes() == reference_bytes(graph)
        assert sum(calls) == sum(graph.n_edges for graph in saved)

    def test_blob_graphs_never_fall_back(self, blobs, tmp_path, monkeypatch):
        # a certificate that vouched for nothing would keep the bytes and lose the speed
        calls = count_fallbacks(monkeypatch)
        data, _ = blobs
        for graph in (build_tsne_graph(data, 30.0), build_umap_graph(data, 15)):
            save_graph(graph, tmp_path / "g.json")
            assert (tmp_path / "g.json").read_bytes() == reference_bytes(graph)
        assert sum(calls) == 0


class TestFiniteProvenance:
    @pytest.mark.parametrize("param, options", [
        (math.nan, {}), (math.inf, {}), (None, {"note": -math.inf}),
        (2.5, {"runs": [1.0, {"last": np.float64(math.nan)}]}),
    ], ids=["nan-param", "inf-param", "inf-option", "nested-nan-option"])
    def test_non_finite_rejected(self, param, options):
        with pytest.raises(GraphError,
                           match=r"param and options must be JSON \(no NaN or Infinity\)"):
            GraphProvenance("tsne", param, options)

    def test_value_that_is_not_json_still_accepted(self):
        # such a value fails only when the graph is saved, as before
        options = {"ids": np.arange(2), (1, 2): 3.0, "steps": np.int64(4)}
        assert GraphProvenance("external", None, options).options == options


@pytest.fixture(scope="module")
def large_graph():
    """70,000 edges over 400 vertices: more than two write slices, and a parse
    that sets off collections when the collector runs."""
    rng = np.random.Generator(np.random.PCG64(14))
    ei, ej = np.triu_indices(400, 1)
    keep = np.sort(rng.choice(ei.size, 70_000, replace=False))
    weights = 10.0 ** rng.uniform(-300, 300, keep.size)
    return RelationshipGraph(400, ei[keep], ej[keep], weights,
                             GraphProvenance("tsne", 30.0, {"prune_eps": 1e-8}))


@pytest.fixture(scope="module")
def large_graph_text(large_graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("large") / "g.json"
    save_graph(large_graph, path)
    return path.read_text()


class TestLoadPausesCollector:
    """load_graph runs no cyclic collection and leaves the collector as it found it."""

    FILES = {
        "valid": lambda text: text,
        "invalid-json": lambda text: text[:-10],
        "bad-edge": lambda text: text.replace('"edges": [', '"edges": [[5, 5, 1.0], ', 1),
    }

    def load(self, tmp_path, text, kind):
        path = tmp_path / "g.json"
        path.write_text(self.FILES[kind](text))
        if kind == "valid":
            return load_graph(path)
        with pytest.raises(GraphError, match="invalid JSON" if kind == "invalid-json"
                           else r"edges\[0\]: self-loop"):
            load_graph(path)

    def test_no_collection_while_loading(self, large_graph, large_graph_text, tmp_path):
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.callbacks.append(count)
        try:
            graph = self.load(tmp_path, large_graph_text, "valid")
        finally:
            gc.callbacks.remove(count)
        assert collections == []
        assert graph.weights.tobytes() == large_graph.weights.tobytes()

    @pytest.mark.parametrize("kind", list(FILES))
    def test_collector_enabled_again(self, large_graph_text, tmp_path, kind):
        assert gc.isenabled()
        self.load(tmp_path, large_graph_text, kind)
        assert gc.isenabled()

    @pytest.mark.parametrize("kind", list(FILES))
    def test_collector_the_caller_disabled_stays_disabled(self, large_graph_text,
                                                          tmp_path, kind):
        gc.disable()
        try:
            self.load(tmp_path, large_graph_text, kind)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestLoadMemory:
    """load_graph holds the file, the edge arrays and one chunk's lists, not
    a Python list per edge."""

    def test_peak_traced_bytes(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(22))
        ei, ej = np.triu_indices(700, 1)  # 244,650 edges, t-SNE-sized weights
        graph = RelationshipGraph(700, ei, ej, rng.uniform(1e-9, 1e-6, ei.size),
                                  GraphProvenance("tsne", 30.0, {"prune_eps": 1e-8}))
        path = tmp_path / "g.json"
        save_graph(graph, path)
        load_graph(path)  # warm-up: first-call allocations are not traced
        tracemalloc.start()
        try:
            loaded = load_graph(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.weights.tobytes() == graph.weights.tobytes()
        # the file's 37 bytes per edge, 24 for the arrays and one chunk; 246 per edge before
        assert peak <= 100 * graph.n_edges


class TestLoadHandOver:
    """Both readers hand their fresh edge arrays to the graph through
    `_adopt`, which keeps them without a copy."""

    @pytest.mark.parametrize("layout", ["saved", "reformatted"])
    def test_readers_adopt_their_arrays(self, large_graph, tmp_path, monkeypatch, layout):
        path = tmp_path / "g.json"
        save_graph(large_graph, path)
        if layout == "reformatted":  # read as one document
            path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
        assert (graphs_module._saved_edges(path) is None) == (layout == "reformatted")
        handed, real = [], RelationshipGraph._adopt

        def recording(n, ei, ej, w, provenance):
            handed.append((ei, ej, w))
            return real(n, ei, ej, w, provenance)

        def copying(self):
            raise AssertionError("the public constructor copies the arrays")

        monkeypatch.setattr(RelationshipGraph, "_adopt", recording)
        monkeypatch.setattr(RelationshipGraph, "__post_init__", copying)
        loaded = load_graph(path)
        (ei, ej, w), = handed
        for stored, given, want in zip((loaded.edges_i, loaded.edges_j, loaded.weights),
                                       (ei, ej, w), (large_graph.edges_i,
                                                     large_graph.edges_j, large_graph.weights)):
            assert np.shares_memory(stored, given) and not stored.flags.writeable
            assert stored.dtype == want.dtype and stored.tobytes() == want.tobytes()


def lexsort_edges(ei, ej, w):
    """The edge order the constructor once built with a lexsort."""
    ei, ej = np.asarray(ei).astype(np.int64), np.asarray(ej).astype(np.int64)
    order = np.lexsort((ej, ei))
    return ei[order], ej[order], np.asarray(w, dtype=float)[order]


def first_duplicate(ei, ej):
    """The message for the later copy of the first pair that repeats, in input order."""
    seen = set()
    for t, pair in enumerate(zip(ei, ej)):
        if pair in seen:
            return f"edges[{t}]: duplicate edge ({pair[0]},{pair[1]})"
        seen.add(pair)
    return None


@st.composite
def edge_inputs(draw):
    """(n, i, j, weights): valid edges in any order, sometimes with copies of
    some pairs, and an n from the largest endpoint + 1 to far above it."""
    top = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(top) for j in range(i + 1, top)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if chosen and draw(st.booleans()):
        chosen += draw(st.lists(st.sampled_from(chosen), min_size=1, max_size=3))
    chosen = draw(st.permutations(chosen))
    n = top + draw(st.sampled_from([0, 1, 1000, 10 ** 5]))
    weights = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return (n, [i for i, _ in chosen], [j for _, j in chosen],
            [draw(weights) for _ in chosen])


class TestCsrMatchesLexsort:
    """The constructor's order check against the lexsort it replaced."""

    def check(self, n, ei, ej, w):
        graph = RelationshipGraph(n, ei, ej, w, GraphProvenance("external"))
        ref = lexsort_edges(ei, ej, w)
        got = (graph.edges_i, graph.edges_j, graph.weights)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("method, k", [("tsne", 5.0), ("tsne", 12.0), ("umap", 6)])
    def test_builder_output(self, small_random, monkeypatch, method, k):
        inputs = []

        def recording(n, ei, ej, w, provenance):
            inputs.append((n, ei, ej, w))
            return RelationshipGraph(n, ei, ej, w, provenance)

        monkeypatch.setattr(RelationshipGraph, "_adopt", recording)  # the builders' hand-over
        graphs_module.build_graph(method, small_random, k)
        (n, ei, ej, w), = inputs
        assert ei.size > 0
        self.check(n, ei, ej, w)

    @pytest.mark.parametrize("n", [1, 2, 10 ** 5])
    def test_no_edges(self, n):
        self.check(n, [], [], [])

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(edge_inputs(), st.booleans())
    def test_any_order_duplicates_and_large_n(self, inputs, as_arrays):
        n, ei, ej, w = inputs
        duplicate = first_duplicate(ei, ej)
        if as_arrays:
            ei, ej, w = np.array(ei, dtype=np.int64), np.array(ej, dtype=np.int64), np.array(w)
        if duplicate is None:
            self.check(n, ei, ej, w)
        else:
            with pytest.raises(GraphError) as exc:
                RelationshipGraph(n, ei, ej, w, GraphProvenance("external"))
            assert str(exc.value) == duplicate


def stable_pair_groups(n, neighbor_indices, values):
    """The pair grouping the builders once used: a stable argsort of min*n + max
    keys, the smaller vertex's direction first, (i, j, first, second)."""
    k = neighbor_indices.shape[1]
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = neighbor_indices.reshape(-1).astype(np.int64)
    key = np.minimum(src, dst) * n + np.maximum(src, dst)
    order = np.argsort(key, kind="stable")
    key, val = key[order], values.reshape(-1)[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    counts = np.diff(np.r_[starts, key.size])
    second = np.where(counts == 2, val[np.minimum(starts + 1, key.size - 1)], 0.0)
    return key[starts] // n, key[starts] % n, val[starts], second


def stable_edges(n, neighbor_indices, values, method, floor):
    """The (i, j, w) the builders once handed to the constructor."""
    ei, ej, first, second = stable_pair_groups(n, neighbor_indices, values)
    if method == "tsne":
        w = (first + second) / (2.0 * n)
    else:  # the probabilistic OR as fuzzy_union once wrote it
        hi, lo = np.maximum(first, second), np.minimum(first, second)
        w = hi + lo * (1.0 - hi)
    keep = w > floor
    return ei[keep], ej[keep], w[keep]


def tsne_weight(n):
    def weight(first, second):
        first += second
        first /= 2.0 * n
        return first
    return weight


def same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


MEMBERSHIPS = st.one_of(st.sampled_from([0.0, 5e-324, 0.25, 0.5, 1.0]),
                        st.floats(0.0, 1.0))


@st.composite
def directed_records(draw):
    """(n, neighbor ids, values): k distinct non-self neighbors per vertex, in any
    order, so pairs are mutual or one-sided; values repeat and hit 0 and 1."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, n - 1))
    rows = [draw(st.permutations([j for j in range(n) if j != i]))[:k] for i in range(n)]
    values = [[draw(MEMBERSHIPS) for _ in range(k)] for _ in range(n)]
    return n, np.array(rows, dtype=np.int64), np.array(values)


@st.composite
def grid_datasets(draw):
    """3..12 points on a small integer grid: duplicate points and distance ties."""
    n = draw(st.integers(3, 12))
    dim = draw(st.integers(1, 2))
    side = st.integers(0, draw(st.integers(0, 3)))
    return Dataset(np.array([[draw(side) for _ in range(dim)] for _ in range(n)], dtype=float))


class TestAssemblyMatchesStableGrouping:
    """Graph assembly against the stable-argsort grouping it replaced."""

    @staticmethod
    def pair_edges(n, ids, values, combine, floor):
        """_pair_edges at its own slice size and at slices of 1, 2 and 3
        records, so that pairs straddle slice edges, as (i, j, w); every
        run must return the same arrays.  Writable ids get the keys written
        over them, so each run gets a copy."""
        runs = []
        for chunk in (graphs_module._PAIR_CHUNK, 1, 2, 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(graphs_module, "_PAIR_CHUNK", chunk)
                key, w = graphs_module._pair_edges(n, graphs_module._pair_keys(ids.copy()),
                                                   values.copy(), combine, floor)
                runs.append((*np.divmod(key, n), w))
        for got in runs[1:]:
            same_arrays(got, runs[0])
        return runs[0]

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(directed_records(), st.sampled_from(["tsne", "umap"]), st.data())
    def test_pair_edges(self, records, method, data):
        n, ids, values = records
        combine = tsne_weight(n) if method == "tsne" else fuzzy_union
        floor = 0.0
        if method == "tsne":  # sometimes prune at a weight that is present
            weights = stable_edges(n, ids, values, method, 0.0)[2]
            if weights.size and data.draw(st.booleans()):
                floor = float(data.draw(st.sampled_from(weights.tolist())))
        want = stable_edges(n, ids, values, method, floor)
        same_arrays(self.pair_edges(n, ids, values, combine, floor), want)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_prefix_of_knn_lists(self, blobs, k):
        data, _ = blobs
        nbrs = exact_knn(data, 5).prefix(k)
        values = np.random.Generator(np.random.PCG64(k)).random((data.n, k))
        for method, combine in (("tsne", tsne_weight(data.n)), ("umap", fuzzy_union)):
            want = stable_edges(data.n, nbrs.indices, values, method, 0.0)
            same_arrays(self.pair_edges(data.n, nbrs.indices, values, combine, 0.0), want)

    @staticmethod
    def built(method, data, k, prune_eps, nbrs):
        """The edges the builder hands to the constructor, and the graph."""
        inputs = []

        def recording(n, ei, ej, w, provenance):
            inputs.append((ei, ej, w))
            return RelationshipGraph(n, ei, ej, w, provenance)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RelationshipGraph, "_adopt", recording)  # the builders' hand-over
            graph = graphs_module.build_graph(method, data, k, prune_eps, neighbors=nbrs)
        return inputs[0], graph

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(grid_datasets(), st.data())
    def test_builders(self, data, draw):
        n = data.n
        nbrs = exact_knn(data, n - 1)
        perplexity = draw.draw(st.floats(2.0, n - 1.0))
        sub = nbrs.prefix(graphs_module.neighbor_count("tsne", n, perplexity))
        p = graphs_module._parts("tsne", sub, perplexity, None)[1]
        weights = stable_edges(n, sub.indices, p, "tsne", 0.0)[2]
        for eps in (None, 0.0, *weights.tolist()[:1], *np.unique(weights).tolist()[-1:]):
            want = stable_edges(n, sub.indices, p, "tsne",
                                default_prune_eps(n) if eps is None else eps)
            got, graph = self.built("tsne", data, perplexity, eps, nbrs)
            same_arrays(got, want)
            same_arrays((graph.edges_i, graph.edges_j, graph.weights), want)
        k = draw.draw(st.integers(2, n - 1))
        sub = nbrs.prefix(k)
        want = stable_edges(n, sub.indices, graphs_module._parts("umap", sub, k, None)[1],
                            "umap", 0.0)
        got, graph = self.built("umap", data, k, None, nbrs)
        same_arrays(got, want)
        same_arrays((graph.edges_i, graph.edges_j, graph.weights), want)

    @pytest.mark.parametrize("method, k", [("tsne", 5.0), ("tsne", 30.0), ("umap", 15)])
    def test_builders_on_blobs(self, blobs, method, k):
        data, _ = blobs
        nbrs = exact_knn(data, graphs_module.neighbor_count(method, data.n, k))
        parts = graphs_module._parts(method, nbrs, k, None)
        floor = default_prune_eps(data.n) if method == "tsne" else 0.0
        want = stable_edges(data.n, nbrs.indices, parts[1], method, floor)
        got, _ = self.built(method, data, k, None, nbrs)
        same_arrays(got, want)


@st.composite
def random_datasets(draw):
    """3..30 uniform points in 1..3 dimensions, at scales that need the
    bandwidth window's rescaling or not."""
    n, m = draw(st.integers(3, 30)), draw(st.integers(1, 3))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    return Dataset(rng.random((n, m)) * draw(st.sampled_from([1.0, 2.0 ** 100, 2.0 ** -60])))


def list_state(nbrs):
    return [(a.tobytes(), a.flags.writeable) for a in (nbrs.indices, nbrs.distances)]


class TestBuildsOwnTheirArrays:
    """A build writes over the record arrays it made, never over the caller's."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(st.one_of(grid_datasets(), random_datasets()), st.sampled_from(["tsne", "umap"]),
           st.data())
    def test_fresh_prefix_and_full_width_lists_build_one_graph(self, data, method, draw):
        n = data.n
        if method == "tsne":
            k = draw.draw(st.floats(2.0, n - 1.0))
            prune_eps = draw.draw(st.sampled_from([None, 0.0, 1e-3, 0.02]))
        else:
            k, prune_eps = draw.draw(st.integers(2, n - 1)), None
        want = graphs_module.build_graph(method, data, k, prune_eps)  # a fresh pass
        count = graphs_module.neighbor_count(method, n, k)
        for width in sorted({count, n - 1}):  # the full width, and a prefix copy
            nbrs = exact_knn(data, width)
            before = list_state(nbrs)
            got = graphs_module.build_graph(method, data, k, prune_eps, neighbors=nbrs)
            same_arrays((got.edges_i, got.edges_j, got.weights),
                        (want.edges_i, want.edges_j, want.weights))
            assert got.provenance == want.provenance
            assert list_state(nbrs) == before
            for stored in (got.edges_i, got.edges_j, got.weights):
                assert not stored.flags.writeable
                assert not np.shares_memory(stored, nbrs.indices)
                assert not np.shares_memory(stored, nbrs.distances)

    def test_only_lists_the_build_made_are_writable(self, blobs):
        data, _ = blobs
        wide = exact_knn(data, 8)
        fresh = graphs_module._neighbor_lists(data, 5, None, None)
        copied = graphs_module._neighbor_lists(data, 5, wide, None)
        shared = graphs_module._neighbor_lists(data, 8, wide, None)
        for lists in (fresh, copied):
            assert lists.indices.flags.writeable and lists.distances.flags.writeable
        for mine, theirs in ((shared.indices, wide.indices), (shared.distances, wide.distances)):
            assert np.shares_memory(mine, theirs) and not mine.flags.writeable
        same_arrays((copied.indices, copied.distances), (fresh.indices, fresh.distances))

    @pytest.mark.parametrize("method, k", [("tsne", 3.0), ("umap", 9)])
    def test_weights_and_keys_go_over_writable_lists_only(self, blobs, method, k):
        data, _ = blobs
        count = graphs_module.neighbor_count(method, data.n, k)
        shared = exact_knn(data, count)
        before = list_state(shared)
        cal, weights = graphs_module._parts(method, shared, k, None)
        keys = graphs_module._pair_keys(shared.indices)
        assert list_state(shared) == before
        own = graphs_module._neighbor_lists(data, count, None, None)
        own_cal, own_weights = graphs_module._parts(method, own, k, None)
        assert own_weights is own.distances
        own_keys = graphs_module._pair_keys(own.indices)
        assert own_keys is own.indices
        same_arrays((own_weights, own_keys, own_cal.sigma, own_cal.achieved),
                    (weights, keys, cal.sigma, cal.achieved))


class TestPairKeyBound:
    """Packed pair keys need 2k n^2 < 2^63; a build past that is refused."""

    @pytest.mark.parametrize("n, k", [(2 ** 31, 1), (2 ** 30, 4), (10 ** 6, 4611687),
                                      (3 * 10 ** 9, 2)])
    def test_past_int64_refused(self, n, k):
        with pytest.raises(GraphError, match=rf"^{n} vertices with {k} neighbors each are "
                                             r"too many: the pair keys need 2\*k\*n\^2 "
                                             r"below 2\^63$"):
            graphs_module._check_key_room(n, k)

    @pytest.mark.parametrize("n, k", [(2 ** 31 - 1, 1), (2 ** 30, 3), (10 ** 6, 4611686)])
    def test_largest_that_fit_pass(self, n, k):
        assert 2 * k * n * n < 2 ** 63
        graphs_module._check_key_room(n, k)

    def test_build_refused_before_its_knn_pass(self, blobs, monkeypatch):
        data, _ = blobs
        monkeypatch.setattr(graphs_module, "_INT64_MAX", 2 * 15 * data.n ** 2 - 1)
        with monkeypatch.context() as patch:
            patch.setattr(graphs_module, "exact_knn", lambda *args, **kwargs: pytest.fail())
            with pytest.raises(GraphError, match="pair keys need"):
                build_umap_graph(data, 15)
        assert build_umap_graph(data, 14).n_edges > 0


class TestAssemblyMemory:
    """Builders set the traced peak through a few record-sized arrays, not a dozen."""

    @pytest.mark.parametrize("build, k", [(build_tsne_graph, 10.0), (build_umap_graph, 30)])
    def test_peak_traced_bytes(self, build, k):
        data = Dataset(np.random.Generator(np.random.PCG64(5)).random((1500, 5)))
        nbrs = exact_knn(data, 30)  # the candidate count at either k: no prefix copy
        build(data, k, neighbors=nbrs)  # warm-up: first-call allocations are not traced
        tracemalloc.start()
        try:
            build(data, k, neighbors=nbrs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 4.65 (t-SNE) and 4.7 (UMAP) records' worth: 5.4 and 4.9 with
        # the grouping's permutation and the constructor's copies, a dozen before
        assert peak < 7 * data.n * nbrs.k * 8

    @pytest.mark.parametrize("build, k", [(build_tsne_graph, 20.0), (build_umap_graph, 60)])
    def test_fresh_build_peak(self, build, k):
        n, count = 3000, 60  # the candidate count at either k
        data = Dataset(np.random.Generator(np.random.PCG64(5)).random((n, 5)))
        build(data, k)  # warm-up
        tracemalloc.start()
        try:
            build(data, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 4.45 records for either method, where the kNN pass's and the
        # calibration's block temporaries set the floor: 5.7 (t-SNE) and 5.4
        # (UMAP) when the weights, the keys and the edges took new arrays
        assert peak < 5 * n * count * 8

    def test_pair_edges_peak_over_its_inputs(self):
        n, k = 3000, 60
        data = Dataset(np.random.Generator(np.random.PCG64(5)).random((n, 5)))
        ids = exact_knn(data, k).indices
        values = np.random.Generator(np.random.PCG64(6)).random((n, k))
        graphs_module._pair_edges(n, graphs_module._pair_keys(ids), values.copy(),
                                  tsne_weight(n), 0.0)  # warm-up
        key, copied = graphs_module._pair_keys(ids), values.copy()
        tracemalloc.start()
        try:
            graphs_module._pair_edges(n, key, copied, tsne_weight(n), 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the pair weights: about 1.1 records; 1.95 with the sort's
        # permutation and a flag byte per record, 4.3 with record-sized
        # copies of the sorted values and of both directions
        assert peak < 1.5 * n * k * 8


def in_window(distances):
    """Each row times 2^-e, e the multiple of 64 that puts its middle distance
    in [2^-33, 2^31) (0 if it is there already), and the exponents e."""
    e = (np.frexp(distances[:, distances.shape[1] // 2])[1] + 32) // 64 * 64
    return np.ldexp(distances, -e[:, None]), e


def exact_tsne_rows(distances, perplexity):
    """t-SNE calibration of sorted distance rows as it ran before the entropy
    screen: xlogy at every bisection step."""
    d2 = distances * distances
    d2s = d2 - d2[:, :1]

    def conditionals(rows, sigma):
        e = np.exp(-d2s[rows] / (2.0 * np.square(sigma))[:, None])
        return e / e.sum(axis=1, keepdims=True)

    def row_objective(rows, sigma):
        p = conditionals(rows, sigma)
        h_bits = -xlogy(p, p).sum(axis=1) / math.log(2.0)
        return np.exp2(h_bits)

    n = distances.shape[0]
    sigma, achieved, converged = graphs_module._bisect_bandwidth(
        row_objective, n, float(perplexity)
    )
    return sigma, achieved, converged, conditionals(np.arange(n), sigma)


def unblocked_tsne_parts(nbrs, perplexity):
    """t-SNE calibration as it ran before row blocks and the entropy screen:
    one bisection over all rows, on the rows brought into the bandwidth window."""
    distances, exponents = in_window(nbrs.distances)
    sigma, achieved, converged, p = exact_tsne_rows(distances, perplexity)
    cal = BandwidthCalibration(np.ldexp(sigma, exponents), achieved, float(perplexity),
                               converged)
    return cal, p


def unblocked_umap_parts(nbrs):
    """UMAP calibration as it ran before row blocks: one bisection over all
    rows, on the rows brought into the bandwidth window."""
    n, n_neighbors = nbrs.n, nbrs.k
    distances, exponents = in_window(nbrs.distances)
    rho = distances[:, 0]
    adj = np.maximum(distances - rho[:, None], 0.0)
    degenerate = adj.max(axis=1) == 0.0
    target = math.log2(n_neighbors)

    def row_objective(rows, sigma):
        return np.exp(-adj[rows] / sigma[:, None]).sum(axis=1)

    sigma, achieved, converged = graphs_module._bisect_bandwidth(
        row_objective, n, target, skip=degenerate
    )
    sigma[degenerate] = 1.0
    achieved[degenerate] = float(n_neighbors)
    cal = BandwidthCalibration(np.ldexp(sigma, exponents), achieved, target, converged)
    return cal, np.exp(-adj / sigma[:, None])


def calibration_input(name):
    blobs, _ = preset("three-blobs", seed=7)
    if name == "blobs":
        return blobs
    grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
    if name == "duplicate-grid":  # four copies of each point: degenerate UMAP rows at k=3
        return Dataset(np.repeat(grid, 4, axis=0))
    if name == "duplicate-stack":  # seven copies: t-SNE at perplexity 2 cannot converge
        return Dataset(np.repeat(grid, 7, axis=0))
    return Dataset(blobs.values * 1e30)  # "blobs-1e30": every row rescaled


class TestBlockedCalibration:
    """Row-blocked, threaded calibration against the unblocked code it replaced."""

    @staticmethod
    def same(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def check_calibration(self, got, want, conditionals=None):
        # given t-SNE conditionals, every row's achieved value is taken from
        # them: `_parts` may keep the entropy screen's value, in the exact
        # value's band, at a converged or a clamped row
        achieved = got.achieved
        if conditionals is not None:
            assert (np.abs(achieved[got.converged] - got.target) <= CALIBRATION_TOL).all()
            clamped = ~got.converged
            assert ((achieved[clamped] < got.target)
                    == (want.achieved[clamped] < want.target)).all()
            achieved = graphs_module._perplexities(conditionals)
        self.same(achieved, want.achieved)
        for name in ("sigma", "converged"):
            self.same(getattr(got, name), getattr(want, name))
        assert got.target == want.target

    @pytest.mark.parametrize("name, method, k", [
        (name, method, k) for name in ("blobs", "duplicate-grid", "blobs-1e30")
        for method, k in (("tsne", 2.0), ("tsne", 12.0), ("umap", 3), ("umap", 10))
    ] + [("duplicate-stack", "tsne", 2.0)])
    def test_any_blocks_and_threads_are_bitwise_unblocked(self, name, method, k,
                                                          monkeypatch):
        data = calibration_input(name)
        n, count = data.n, graphs_module.neighbor_count(method, data.n, k)
        nbrs = exact_knn(data, count)
        want_cal, want_w = (unblocked_tsne_parts(nbrs, k) if method == "tsne"
                            else unblocked_umap_parts(nbrs))
        blocked = graphs_module._parts
        monkeypatch.setattr(graphs_module, "_parts", lambda method, nbrs, k, threads:
                            unblocked_tsne_parts(nbrs, k) if method == "tsne"
                            else unblocked_umap_parts(nbrs))
        want_graph = graphs_module.build_graph(method, data, k, neighbors=nbrs)
        monkeypatch.setattr(graphs_module, "_parts", blocked)
        if name == "blobs-1e30":  # past the bandwidth window unless rescaled
            assert (in_window(nbrs.distances)[1] != 0).all() and want_cal.all_converged
        if name == "duplicate-grid" and k == 3:
            assert (want_cal.achieved == 3.0).all() and not want_cal.converged.any()
        if name == "duplicate-stack" and k == 2.0:  # every row clamped, achieved exact there
            assert (want_cal.sigma == 1e-20).all() and not want_cal.converged.any()

        blocks = []
        real_run_blocks = graphs_module.run_blocks

        def counting(fn, starts, threads):
            blocks.append(len(starts))
            real_run_blocks(fn, starts, threads)

        monkeypatch.setattr(graphs_module, "run_blocks", counting)
        monkeypatch.setattr(knn_module, "usable_cores", lambda: 3)
        calibrate = tsne_calibration if method == "tsne" else umap_calibration
        # one-row blocks cost a bisection loop per row: run them at 3 threads only
        for budget, n_blocks, thread_counts in ((1 << 16, 1, (1, 2, 3)),
                                                (40 * count, math.ceil(n / 40), (1, 2, 3)),
                                                (1, n, (3,))):
            monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", budget)
            blocks.clear()
            for threads in thread_counts:
                cal, w = blocked(method, nbrs, k, threads)
                self.check_calibration(cal, want_cal, w if method == "tsne" else None)
                self.same(w, want_w)
            graph = graphs_module.build_graph(method, data, k, neighbors=nbrs, threads=3)
            for a, b in zip((graph.edges_i, graph.edges_j, graph.weights),
                            (want_graph.edges_i, want_graph.edges_j, want_graph.weights)):
                self.same(a, b)
            assert graph.provenance == want_graph.provenance
            self.check_calibration(calibrate(data, k), want_cal)
            assert blocks == [n_blocks] * (len(thread_counts) + 2)

    def test_workers_capped_by_threads_cores_and_blocks(self, blobs, monkeypatch):
        started = []
        real = knn_module.ThreadPoolExecutor

        def spy(max_workers):
            started.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(knn_module, "ThreadPoolExecutor", spy)
        monkeypatch.setattr(knn_module, "usable_cores", lambda: 3)
        data, _ = blobs
        nbrs = exact_knn(data, 10)
        started.clear()
        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", 1)  # one row per block
        build_umap_graph(data, 10, neighbors=nbrs, threads=1)
        build_tsne_graph(data, 3.0, neighbors=nbrs, threads=10 ** 9)
        assert started == [1, 3]
        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", 75 * 10)  # two blocks
        build_umap_graph(data, 10, neighbors=nbrs, threads=3)
        assert started == [1, 3, 2]
        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", 1 << 16)  # one block
        build_umap_graph(data, 10, neighbors=nbrs, threads=None)
        assert started == [1, 3, 2, 1]
        # the calibration functions run their kNN pass and calibration on the usable cores
        monkeypatch.setattr(knn_module, "_BLOCK_DOUBLES", 1)
        started.clear()
        umap_calibration(data, 10)
        tsne_calibration(data, 3.0)
        assert started == [3, 3, 3, 3]

    def test_sweep_and_estimate_forward_threads_to_every_build(self, blobs, monkeypatch):
        data, labels = blobs
        seen = []
        for name in ("build_tsne_graph", "build_umap_graph"):
            def spy(*args, real=getattr(graphs_module, name), **kwargs):
                seen.append(kwargs["threads"])
                return real(*args, **kwargs)

            monkeypatch.setattr(graphs_module, name, spy)
        result = sweep(data, labels, "umap", [5, 10, 15], threads=2)
        assert len(result.rows) == 3 and seen == [2, 2, 2]
        seen.clear()
        config = OptimizerConfig(k_min=5, k_max=20, n_init=3, budget=5)
        _, trace = estimate(data, labels, "tsne", config, threads=3)
        assert len(trace.trials) == 5 and seen == [3] * 5


class TestScaleSafeCalibration:
    """Rows are brought into the bandwidth window by exact powers of two, so
    the scale of the data does not decide convergence.  On three-blobs the
    middle candidate distances lie within 2^-4..2^3, so the rows of x2^100
    are scaled by 2^-128 and those of x2^-100 by 2^128."""

    CASES = [("tsne", 20.0), ("umap", 15)]

    @staticmethod
    def scaled(exponent=0, factor=1.0):
        data, labels = preset("three-blobs", seed=7)
        return Dataset(np.ldexp(data.values, exponent) * factor), labels

    @pytest.mark.parametrize("method, k", CASES)
    @pytest.mark.parametrize("exponent, copy", [(100, -28), (-100, 28)])
    def test_power_of_two_scale_is_bitwise_its_in_window_copy(self, method, k, exponent,
                                                              copy):
        data, _ = self.scaled(exponent)
        window, _ = self.scaled(copy)
        count = graphs_module.neighbor_count(method, data.n, k)
        middle = exact_knn(window, count).distances[:, count // 2]
        assert ((middle >= 2.0 ** -33) & (middle < 2.0 ** 31)).all()  # left as it is
        got, want = (graphs_module.build_graph(method, d, k) for d in (data, window))
        same_arrays((got.edges_i, got.edges_j, got.weights),
                    (want.edges_i, want.edges_j, want.weights))
        assert got.provenance == want.provenance
        calibrate = tsne_calibration if method == "tsne" else umap_calibration
        got_cal, want_cal = calibrate(data, k), calibrate(window, k)
        assert want_cal.all_converged
        # sigma in the caller's units: the copy's, times the exact scale between them
        same_arrays((got_cal.sigma, got_cal.achieved, got_cal.converged),
                    (np.ldexp(want_cal.sigma, exponent - copy), want_cal.achieved,
                     want_cal.converged))

    @pytest.mark.parametrize("method, k", CASES)
    @pytest.mark.parametrize("exponent, factor", [(100, 1.0), (-100, 1.0), (0, 1e30),
                                                  (0, 1e-30)])
    def test_matches_the_unscaled_graph(self, method, k, exponent, factor):
        data, labels = self.scaled(exponent, factor)
        base, _ = self.scaled()
        got, want = (graphs_module.build_graph(method, d, k) for d in (data, base))
        assert got.provenance.options["non_converged"] == 0
        # edge sets equal but for pairs near the pruning floor
        floor = default_prune_eps(data.n) if method == "tsne" else 0.0
        weight = [dict(zip(zip(g.edges_i.tolist(), g.edges_j.tolist()), g.weights.tolist()))
                  for g in (got, want)]
        for pair in weight[0].keys() ^ weight[1].keys():
            assert weight[0].get(pair, weight[1].get(pair)) <= 10 * floor
        assert abs(report(got, labels).global_fscore
                   - report(want, labels).global_fscore) <= 1e-3


@st.composite
def bisection_rows(draw):
    """A target and, per row, an exact objective f = offset + slope *
    log10(sigma) + height * (1 if log10(sigma) >= root else -1), its kind
    and a seed.

    Each row's target is in reach, out of reach below the objective (the
    row clamps at the lower bound) or above it (the upper bound), or the
    row is skipped.  A "jump" row's objective steps from target - 1 to
    target + 1 at its root, so it never comes within the tolerance: the
    row clamps on the side its last step points to, where the value
    differs from that step's.
    """
    n = draw(st.integers(1, 12))
    target = draw(st.floats(-10.0, 10.0))
    kinds = np.array(draw(st.lists(st.sampled_from(["reach", "low", "high", "jump", "skip"]),
                                   min_size=n, max_size=n)))
    slope = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
    root = np.array(draw(st.lists(st.floats(-19.5, 19.5), min_size=n, max_size=n)))
    gap = np.array(draw(st.lists(st.floats(2.0, 100.0), min_size=n, max_size=n)))
    reach = 20.0 * slope + gap * CALIBRATION_TOL  # past the window's end by gap tol
    jump = kinds == "jump"
    offset = np.select([kinds == "low", kinds == "high", jump],
                       [target + reach, target - reach, target], target - slope * root)
    slope[jump] = 0.0
    return offset, slope, root, jump.astype(float), target, kinds, draw(st.integers(0, 2**32 - 1))


class TestBisectBandwidth:
    """`_bisect_bandwidth`'s one callback: any value in the exact value's band."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(bisection_rows())
    def test_a_step_in_the_exact_band_is_bitwise_the_exact_bisection(self, case):
        offset, slope, root, height, target, kinds, seed = case
        skip = kinds == "skip"
        rng = np.random.Generator(np.random.PCG64(seed))
        tol, clear = CALIBRATION_TOL, 2.0 ** -10

        def exact(rows, sigma):
            lg = np.log10(sigma)
            return (offset[rows] + slope[rows] * lg
                    + height[rows] * np.where(lg >= root[rows], 1.0, -1.0))

        def band(values):
            return np.where(np.abs(values - target) <= tol, 0.0, np.sign(values - target))

        def adversarial(rows, sigma):  # a random value strictly inside the exact one's band
            assert not skip[rows].any()
            r = rng.random(rows.size)
            side = band(exact(rows, sigma))
            return np.where(side == 0.0, target + tol * (2.0 * r - 1.0) * (1.0 - clear),
                            target + side * tol * (1.0 + clear + 8.0 * r))

        n = offset.size
        got = graphs_module._bisect_bandwidth(adversarial, n, target, skip)
        want = graphs_module._bisect_bandwidth(exact, n, target, skip)
        for a, b in zip(got[::2], want[::2]):  # sigma and converged
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert np.isnan(got[1][skip]).all() and np.isnan(want[1][skip]).all()
        assert (band(got[1]) == band(want[1]))[~skip].all()
        # each row ended as drawn: converged, or clamped at the bound it was drawn past
        assert (want[2] == (kinds == "reach")).all()
        assert (want[0][kinds == "low"] == 1e-20).all() and (want[0][kinds == "high"] == 1e20).all()
        clamped = np.flatnonzero(~want[2] & ~skip)  # the value is the one at the bound
        assert np.isin(want[0][clamped], (1e-20, 1e20)).all()
        assert want[1][clamped].tobytes() == exact(clamped, want[0][clamped]).tobytes()


@st.composite
def distance_rows(draw):
    """Sorted candidate distance rows for the t-SNE bisection, and a perplexity.

    The rows cover all-equal distances, leading duplicates, a far outlier
    whose shifted square is inf, scales near 1e-20 where the bandwidth
    bottoms out and e underflows, distances that make e subnormal at the
    first step's sigma = 1, and (for some examples) a target at the edge
    of the tolerance from the exact value at that step.
    """
    k = draw(st.integers(2, 10))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "equal", "duplicates", "outlier", "tiny",
                                     "subnormal"]))
        exponents = draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k))
        row = np.sort(10.0 ** np.array(exponents))
        if kind == "equal":
            row[:] = row[0]
        elif kind == "duplicates":
            row[:draw(st.integers(2, k))] = 0.0
        elif kind == "outlier":
            row[-1] = 1e200
        elif kind == "tiny":
            row *= 1e-20
        elif kind == "subnormal":  # d^2 / 2 in (708, 745): e below 2^-1022 at sigma = 1
            row = np.concatenate(([0.0], 37.7 + 0.8e-3 * row[1:]))
        rows.append(row)
    distances = np.array(rows)
    perplexity = draw(st.floats(1.0, k + 1.0))
    if draw(st.booleans()):
        # the first step evaluates sigma = 10^((-20 + 20) / 2) = 1; put the target
        # within a few thousand ulps of the tolerance from the exact value there
        with np.errstate(all="ignore"):
            d2 = distances[0] ** 2
            p = np.exp(-(d2 - d2[0]) / 2.0)
            p /= p.sum()
            first = float(np.exp2(-xlogy(p, p).sum() / math.log(2.0)))
        offset = CALIBRATION_TOL * (1.0 + draw(st.integers(-4096, 4096)) * 2.0 ** -52)
        perplexity = first + draw(st.sampled_from([-1.0, 1.0])) * offset
    return distances, perplexity


class TestEntropyScreen:
    """The certified entropy screen of the t-SNE bisection against xlogy at every step."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(distance_rows())
    def test_screened_rows_are_bitwise_the_exact_bisection(self, case):
        distances, perplexity = case
        with np.errstate(all="ignore"):
            got = graphs_module._tsne_rows(distances, perplexity)
            want = exact_tsne_rows(distances, perplexity)
        # a row may keep the screen's achieved value, in the exact value's
        # band; its exact value is that of its returned conditionals
        converged, conditionals = got[2], got[3]
        assert (np.abs(got[1][converged] - perplexity) <= CALIBRATION_TOL).all()
        with np.errstate(all="ignore"):
            achieved = graphs_module._perplexities(conditionals)
            assert ((got[1] < perplexity)[~converged] == (want[1] < perplexity)[~converged]).all()
        for a, b in zip((got[0], achieved, converged, conditionals), want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("fast, libm, points", [
        (np.exp, math.exp, np.linspace(-708.0, 0.0, 100_001)),  # e_j, normal results
        (np.exp, math.exp, np.linspace(0.0, 16.0, 100_001)),  # got' up to k e, k < 2**20
        (np.log, math.log, np.geomspace(1.0, 2.0**20, 100_001)),  # ln S, S in [1, k]
        (np.exp2, lambda x: 2.0 ** x, np.linspace(0.0, 20.0, 100_001)),  # 2**H, H < 20
    ], ids=["exp-terms", "exp-entropy", "log-sum", "exp2-entropy"])
    def test_library_error_within_the_margin_assumption(self, fast, libm, points):
        # _tsne_screen_scale assumes these numpy functions within 2**-40 of
        # the true value, relatively; against libm they hold 2**-45 here
        points = np.concatenate([points, np.random.Generator(np.random.PCG64(24))
                                 .uniform(points[0], points[-1], 100_000)])
        got = fast(points)
        want = np.array([libm(x) for x in points.tolist()])
        assert (np.abs(got - want) <= 2.0**-45 * want).all()

    @pytest.mark.parametrize("power", [100, -100])
    def test_calibrated_rows_stay_ascending_at_any_scale(self, blobs, power):
        # the margin holds for rows ascending from their first distance, which
        # _tsne_rows takes for granted: _calibrated's power-of-two rescale keeps them so
        nbrs = exact_knn(blobs[0], 30)
        scaled = NeighborLists(nbrs.indices, np.ldexp(nbrs.distances, power), nbrs.k)
        solved = []

        def solve(distances, target):
            d2 = distances * distances
            assert (distances[:, 1:] >= distances[:, :-1]).all()
            assert (d2 >= d2[:, :1]).all()  # no e_j above the first one's 1
            solved.append(distances.shape[0])
            return graphs_module._tsne_rows(distances, target)

        cal, _ = graphs_module._calibrated(scaled, 10.0, solve, 1)
        assert sum(solved) == blobs[0].n and cal.all_converged

    def test_few_row_evaluations_take_the_exact_path(self, blobs, monkeypatch):
        # the screen settles every step of a blobs build, within or beyond tol;
        # tsne_calibration evaluates each row once more, exactly
        exact, evaluations = [], []
        real_exact, real_bisect = graphs_module._perplexities, graphs_module._bisect_bandwidth

        def counting_exact(p):
            exact.append(p.shape[0])
            return real_exact(p)

        def counting_bisect(step, n, target, skip=None):
            def counted_step(rows, sigma):
                evaluations.append(rows.size)
                return step(rows, sigma)

            return real_bisect(counted_step, n, target, skip)

        monkeypatch.setattr(graphs_module, "_perplexities", counting_exact)
        monkeypatch.setattr(graphs_module, "_bisect_bandwidth", counting_bisect)
        data, _ = blobs
        for perplexity in (5.0, 30.0):
            exact.clear()
            evaluations.clear()
            graph = build_tsne_graph(data, perplexity)
            assert graph.provenance.options["non_converged"] == 0
            assert sum(evaluations) >= 15 * data.n  # about 21 steps per row
            assert exact == []
            evaluations.clear()
            cal = tsne_calibration(data, perplexity)
            assert cal.all_converged and sum(evaluations) >= 15 * data.n
            assert exact == [data.n]


class TestXlogy:
    """`_perplexities`, whose p ln p takes libm's log through math.log,
    bitwise against 2 to the entropy from scipy.special.xlogy(p, p)."""

    @staticmethod
    def same_bits(p):
        got = graphs_module._perplexities(p)
        want = np.exp2(-xlogy(p, p).sum(axis=1) / math.log(2.0))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_zeros_subnormals_and_one(self):
        tiny = np.finfo(float).tiny
        values = np.array([0.0, 5e-324, tiny / 3, tiny, 1e-300, 0.5, 1.0, 2.0, 1e300,
                           np.inf, np.nan])
        # every pair of values as a row: p = 0 gives 0 and NaN gives NaN
        x, y = np.meshgrid(values, values)
        with np.errstate(invalid="ignore"):  # inf - inf in scipy's sum
            self.same_bits(np.stack((x.ravel(), y.ravel()), axis=1))

    def test_uniform_values_across_chunks(self):
        values = np.random.Generator(np.random.PCG64(26)).random(3 * graphs_module._LOG_CHUNK + 5)
        self.same_bits((values / values.sum()).reshape(1, -1))  # one row across chunks
        self.same_bits(values[:-5].reshape(-1, 3))

    @pytest.mark.parametrize("c", [1e-3, 1.0, 30.0, 1e4])
    def test_conditional_rows(self, c):
        # p_j = e_j / S as the bisection makes them: at small c far terms
        # underflow to subnormals and zeros
        d2 = np.sort(np.random.Generator(np.random.PCG64(27)).uniform(0.0, 2.0, (300, 40)))
        e = np.exp(-(d2 - d2[:, :1]) / c)
        p = e / e.sum(axis=1, keepdims=True)
        assert c > 1e-3 or ((p > 0) & (p < np.finfo(float).tiny)).any() and (p == 0).any()
        self.same_bits(p)
