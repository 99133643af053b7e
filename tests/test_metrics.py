import numpy as np
import pytest

from relscore.datasets import preset
from relscore.metrics import (
    MetricConfig,
    MetricsError,
    classify_neighbors,
    fscore_vertex,
    intra_label_components,
    precision_vertex,
    recall_vertex,
    report,
    sweep,
    write_sweep_csv,
    write_vertex_csv,
)

from conftest import make_graph, make_labels


class TestClassifyNeighbors:
    def test_isolated_vertex_empty(self):
        graph = make_graph(3, [(1, 2, 1.0)])
        labels = make_labels([0, 0, 1], ("a", "b"))
        t = classify_neighbors(graph, labels, 0)
        assert t.tp_ids == () and t.fp_ids == ()
        assert t.tp_weight == 0.0 and t.fp_weight == 0.0

    def test_weighted_partition(self):
        graph = make_graph(4, [(0, 1, 0.6), (0, 2, 0.2), (0, 3, 0.2)])
        labels = make_labels([0, 0, 0, 1], ("a", "b"))
        t = classify_neighbors(graph, labels, 0)
        assert t.tp_ids == (1, 2) and t.fp_ids == (3,)
        assert t.tp_weight == pytest.approx(0.8, abs=1e-15)
        assert t.fp_weight == 0.2

    def test_all_same_label_no_fp(self):
        graph = make_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        labels = make_labels([0, 0, 0, 0], ("a",))
        for v in range(4):
            assert classify_neighbors(graph, labels, v).fp_ids == ()

    def test_partition_covers_neighborhood(self):
        graph = make_graph(5, [(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5), (2, 4, 1.0)])
        labels = make_labels([0, 0, 1, 1, 0], ("a", "b"))
        t = classify_neighbors(graph, labels, 0)
        assert sorted(t.tp_ids + t.fp_ids) == [1, 2, 3]

    def test_fn_counts(self, chain_of_four):
        graph, labels = chain_of_four
        t = classify_neighbors(graph, labels, 0)
        assert t.fn_edge_count == 2       # 2 and 3 not adjacent to 0
        assert t.fn_component_count == 0  # the path keeps all four together

    def test_vertex_out_of_bounds(self, chain_of_four):
        graph, labels = chain_of_four
        with pytest.raises(MetricsError, match="outside"):
            classify_neighbors(graph, labels, 4)


class TestComponents:
    def test_two_groups_before_bridge(self, two_group_graph):
        graph, labels = two_group_graph
        comp = intra_label_components(graph, labels)
        ids = comp.component_ids
        assert ids[0] == ids[1] == ids[2] == 0
        assert ids[3] == ids[4] == 3
        assert ids[5] == 5 and ids[6] == 6  # grays never joined

    def test_single_group_after_bridge(self, bridged_group_graph):
        graph, labels = bridged_group_graph
        comp = intra_label_components(graph, labels)
        assert set(comp.component_ids[:5].tolist()) == {0}

    def test_edgeless_graph_singletons(self):
        graph = make_graph(6, [])
        labels = make_labels([0, 0, 1, 1, 0, 1], ("a", "b"))
        comp = intra_label_components(graph, labels)
        assert comp.component_ids.tolist() == [0, 1, 2, 3, 4, 5]

    def test_components_label_pure(self):
        from relscore.oracle import random_graph

        for seed in range(5):
            graph, labels = random_graph(25, 3, 0.3, seed)
            comp = intra_label_components(graph, labels)
            for cid in set(comp.component_ids.tolist()):
                members = np.flatnonzero(comp.component_ids == cid)
                assert len(set(labels.labels[members].tolist())) == 1


class TestVertexScores:
    def test_precision_direct(self):
        graph = make_graph(4, [(0, 1, 0.6), (0, 2, 0.2), (0, 3, 0.2)])
        labels = make_labels([0, 0, 0, 1], ("a", "b"))
        t = classify_neighbors(graph, labels, 0)
        assert precision_vertex(t) == pytest.approx(0.8, abs=1e-15)

    def test_precision_isolated_is_one(self):
        graph = make_graph(3, [(1, 2, 1.0)])
        labels = make_labels([0, 1, 1], ("a", "b"))
        assert precision_vertex(classify_neighbors(graph, labels, 0)) == 1.0

    def test_precision_three_of_four(self, six_vertex_graph):
        graph, labels = six_vertex_graph
        t = classify_neighbors(graph, labels, 0)
        assert precision_vertex(t) == 0.75

    def test_recall_blend_on_path(self, chain_of_four):
        graph, labels = chain_of_four
        t = classify_neighbors(graph, labels, 0)
        assert recall_vertex(t, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert recall_vertex(t, 0.0) == 1.0
        assert recall_vertex(t, 0.5) == 0.5

    def test_recall_singleton_label_is_one(self):
        graph = make_graph(3, [(0, 1, 1.0)])
        labels = make_labels([0, 0, 1], ("a", "b"))
        assert recall_vertex(classify_neighbors(graph, labels, 2), 1.0) == 1.0

    def test_recall_fully_adjacent_is_one(self):
        graph = make_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        labels = make_labels([0, 0, 0], ("a",))
        for alpha in (0.0, 0.3, 1.0):
            assert recall_vertex(classify_neighbors(graph, labels, 0), alpha) == 1.0

    def test_fscore_identity_when_equal(self):
        for x in (0.0, 0.25, 0.4, 1.0):
            for beta in (0.5, 1.0, 2.0):
                assert fscore_vertex(x, x, beta) == pytest.approx(x, abs=1e-12)

    def test_fscore_half(self):
        assert fscore_vertex(1.0, 1.0 / 3.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_fscore_092_example(self):
        assert fscore_vertex(0.92, 1.0, 1.0) == pytest.approx(
            2 * 0.92 / 1.92, abs=1e-12
        )
        assert fscore_vertex(0.92, 1.0, 1.0) == pytest.approx(0.9583, abs=1e-4)

    def test_fscore_zero_at_origin(self):
        assert fscore_vertex(0.0, 0.0, 1.0) == 0.0
        assert fscore_vertex(0.0, 0.0, 2.0) == 0.0


class TestScalarViewsMatchReport:
    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal_for_every_vertex(self, seed):
        from relscore.oracle import random_graph

        graph, labels = random_graph(25, 3, 0.3, seed)
        for alpha in (0.0, 0.3, 1.0):
            for beta in (1.0, 2.0):
                rep = report(graph, labels, MetricConfig(alpha=alpha, beta=beta))
                for v in range(graph.n_vertices):
                    t = classify_neighbors(graph, labels, v)
                    p = precision_vertex(t)
                    r = recall_vertex(t, alpha)
                    assert p == rep.vertex_precision[v]
                    assert r == rep.vertex_recall[v]
                    assert fscore_vertex(p, r, beta) == rep.vertex_fscore[v]


class TestReport:
    def test_mismatched_counts_named(self):
        graph = make_graph(4, [(0, 1, 1.0)])
        labels = make_labels([0, 0, 1], ("a", "b"))
        with pytest.raises(MetricsError, match=r"3.*4"):
            report(graph, labels)

    def test_single_label_precision_always_one(self):
        # no second label exists, so false positives are impossible
        graph = make_graph(5, [(0, 1, 0.5), (1, 2, 2.0), (3, 4, 0.1), (0, 4, 1.0)])
        labels = make_labels([0] * 5, ("only",))
        rep = report(graph, labels, MetricConfig(alpha=0.5, beta=2.0))
        assert rep.global_precision == 1.0
        # the chain keeps the label in one component: recall is 1 at alpha 0
        rep0 = report(graph, labels, MetricConfig(alpha=0.0))
        assert rep0.global_recall == 1.0

    def test_single_label_complete_graph_all_ones(self):
        edges = [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]
        labels = make_labels([0] * 5, ("only",))
        for alpha in (0.0, 0.5, 1.0):
            rep = report(make_graph(5, edges), labels,
                         MetricConfig(alpha=alpha, beta=2.0))
            assert rep.global_precision == 1.0
            assert rep.global_recall == 1.0
            assert rep.global_fscore == 1.0

    def test_scores_in_unit_interval(self):
        from relscore.oracle import random_graph

        for seed in range(10):
            graph, labels = random_graph(20, 4, 0.25, seed)
            rep = report(graph, labels, MetricConfig(alpha=0.25, beta=0.5))
            for arr in (rep.vertex_precision, rep.vertex_recall, rep.vertex_fscore):
                assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
            assert 0.0 <= rep.global_fscore <= 1.0

    def test_global_is_mean_of_label_means(self):
        from relscore.oracle import random_graph

        graph, labels = random_graph(24, 3, 0.3, 12)
        rep = report(graph, labels)
        by_hand = np.mean([s.fscore for s in rep.per_label.values()])
        assert rep.global_fscore == pytest.approx(by_hand, abs=1e-12)

    def test_imbalance_does_not_reweight_global(self):
        # one label three times larger; the global stays the plain mean of
        # the two per-label means
        edges = [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0),
                 (5, 6, 1.0), (6, 7, 1.0), (1, 2, 0.5)]
        labels = make_labels([0, 0, 1, 1, 1, 1, 1, 1], ("small", "big"))
        rep = report(make_graph(8, edges), labels)
        small = rep.per_label["small"].fscore
        big = rep.per_label["big"].fscore
        assert rep.global_fscore == pytest.approx((small + big) / 2.0, abs=1e-12)
        assert rep.per_label["small"].size == 2
        assert rep.per_label["big"].size == 6

    def test_decomposition_shares(self, six_vertex_graph):
        graph, labels = six_vertex_graph
        rep = report(graph, labels)
        a = rep.per_label["a"]
        # label a: vertices 0..3 carry 2*3 = 6 same-label ends and one
        # cross end of weight 1
        assert a.tp_weight_share == pytest.approx(6.0 / 7.0, abs=1e-12)
        assert a.fp_weight_shares == {"b": pytest.approx(1.0 / 7.0, abs=1e-12)}

    def test_decomposition_zero_weight_label(self):
        graph = make_graph(4, [(0, 1, 1.0)])
        labels = make_labels([0, 0, 1, 1], ("a", "b"))
        rep = report(graph, labels)
        assert rep.per_label["b"].tp_weight_share == 1.0
        assert rep.per_label["b"].fp_weight_shares == {}

    def test_quadrant_tags(self, six_vertex_graph):
        graph, labels = six_vertex_graph
        rep = report(graph, labels, MetricConfig(alpha=1.0))
        assert rep.per_label["a"].quadrant in {
            "precision-high/recall-high", "precision-high/recall-low",
            "precision-low/recall-high", "precision-low/recall-low",
        }
        # threshold moves the tag
        strict = report(graph, labels, MetricConfig(quadrant_threshold=0.999))
        lax = report(graph, labels, MetricConfig(quadrant_threshold=0.001))
        assert strict.per_label["a"].quadrant.startswith("precision-low")
        assert lax.per_label["a"].quadrant.startswith("precision-high")

    def test_per_vertex_rows_and_csv(self, six_vertex_graph, tmp_path):
        graph, labels = six_vertex_graph
        rep = report(graph, labels)
        rows = list(rep.vertex_rows())
        assert rows[0][0] == 0 and rows[0][1] == "a"
        assert rows[0][2] == 0.75
        path = tmp_path / "pv.csv"
        write_vertex_csv(rep, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "id,label,precision,recall,fscore"
        assert len(lines) == 7


class TestSweep:
    def test_empty_values_empty_table(self):
        data, labels = preset("three-blobs", seed=7)
        result = sweep(data, labels, "tsne", [])
        assert result.rows == ()

    @pytest.mark.parametrize("method", ["tsne", "umap"])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_single_entry_matches_report(self, method, beta):
        from relscore.graphs import build_tsne_graph, build_umap_graph

        data, labels = preset("three-blobs", seed=7)
        config = MetricConfig(alpha=1.0, beta=beta)
        row, = sweep(data, labels, method, [10], config).rows
        graph = (build_tsne_graph(data, 10.0) if method == "tsne"
                 else build_umap_graph(data, 10))
        rep = report(graph, labels, config)
        assert row.precision == rep.global_precision
        assert row.fscore == rep.global_fscore
        for alpha, recall in ((0.0, row.recall_a0), (1.0, row.recall_a1)):
            other = report(graph, labels, MetricConfig(alpha=alpha, beta=beta))
            assert recall == other.global_recall

    def test_failed_k_annotates_row(self):
        data, labels = preset("three-blobs", seed=7)
        result = sweep(data, labels, "tsne", [5, 99999])
        assert result.rows[0].error is None
        assert result.rows[1].error is not None
        assert result.rows[1].precision is None

    def test_rows_sorted_and_unique(self):
        data, labels = preset("three-blobs", seed=7)
        result = sweep(data, labels, "umap", [15, 5, 15])
        assert [row.k for row in result.rows] == [5, 15]

    def test_csv_columns(self, tmp_path):
        data, labels = preset("three-blobs", seed=7)
        result = sweep(data, labels, "tsne", [2, 99999])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,precision,recall_a0,recall_a1,fscore"
        assert len(lines) == 3
        assert lines[2] == "99999,,,,"

    def test_unknown_method(self):
        data, labels = preset("three-blobs", seed=7)
        with pytest.raises(MetricsError, match="method"):
            sweep(data, labels, "pca", [5])


class TestConfig:
    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(MetricsError):
            MetricConfig(alpha=alpha)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_beta_positive(self, beta):
        with pytest.raises(MetricsError):
            MetricConfig(beta=beta)
