"""Differential test: metric tallies from the sorted edge list against the
directed-view pass they replaced.

`directed_view_stats` is that pass, kept here as the slow reference: it
builds the directed view by lexsorting both directions of every edge
(`lexsort_adjacency`) and bincounts it by source vertex, and it builds
the intra-label components from a COO matrix.  Graphs are drawn with
hypothesis (derandomized): n = 1..40, empty edge lists, isolated
vertices, one label, all-distinct labels, unused vocabulary entries, and
weights spread over e^-20..e^20, so that any change in summation order
shows in the bytes.

`TestKernelsMatchScipy` holds the numpy components and label weights to
the scipy code they replaced (`scipy_component_ids`, `csr_label_weight`):
the library loads no scipy for them, so only this file imports it.
"""

import json
import tracemalloc
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from relscore import metrics, optimizer
from relscore.datasets import Dataset, LabelAssignment, preset
from relscore.graphs import (
    GraphProvenance,
    RelationshipGraph,
    build_graph,
    build_tsne_graph,
    shared_neighbors,
)
from relscore.metrics import MetricConfig, intra_label_components, report, sweep
from relscore.optimizer import OptimizerConfig, estimate

from conftest import lexsort_adjacency


def directed_view_stats(graph, labels):
    """(stats, component ids, label weight) as the directed-view pass made them."""
    n = graph.n_vertices
    lab = labels.labels
    n_labels = len(labels.vocabulary)
    offsets, dst, w = lexsort_adjacency(n, graph.edges_i, graph.edges_j, graph.weights)
    degree = np.diff(offsets)
    src = np.repeat(np.arange(n), degree)
    same = lab[src] == lab[dst]
    # bincount of no entries is int64 zeros whatever the weights: equal
    # values, and every later step read them as 0.0
    tp_weight = np.bincount(src[same], weights=w[same], minlength=n).astype(float)
    fp_weight = np.bincount(src[~same], weights=w[~same], minlength=n).astype(float)
    tp_count = np.bincount(src[same], minlength=n)
    same_total = np.bincount(lab, minlength=n_labels)[lab]
    fn_edge = same_total - 1 - tp_count
    intra = lab[graph.edges_i] == lab[graph.edges_j]
    component_ids = scipy_component_ids(n, graph.edges_i[intra], graph.edges_j[intra])
    fn_component = same_total - np.bincount(component_ids, minlength=n)[component_ids]
    pair_key = lab[src] * n_labels + lab[dst]
    label_weight = np.bincount(
        pair_key, weights=w, minlength=n_labels * n_labels
    ).reshape(n_labels, n_labels)
    stats = metrics._GraphStats(
        n=n,
        label_ids=lab,
        vocabulary=labels.vocabulary,
        present=np.flatnonzero(np.bincount(lab, minlength=n_labels)),
        tp_weight=tp_weight,
        fp_weight=fp_weight,
        tp_count=tp_count,
        degree=degree,
        fn_edge=fn_edge,
        fn_component=fn_component,
    )
    return stats, component_ids, label_weight


def scipy_component_ids(n, ei, ej):
    """Smallest member of each vertex's component, from scipy's connected components."""
    adj = csr_matrix((np.ones(ei.size, dtype=np.int8), (ei, ej)), shape=(n, n))
    n_comp, raw = connected_components(adj, directed=False)
    smallest = np.full(n_comp, n, dtype=np.int64)
    np.minimum.at(smallest, raw, np.arange(n))
    return smallest[raw]


def csr_label_weight(graph, stats):
    """`metrics._label_weight` as it was built from the CSR of upper + upper.T."""
    n = stats.n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(graph.edges_i, minlength=n), out=indptr[1:])
    upper = csr_matrix((graph.weights, graph.edges_j, indptr), shape=(n, n))
    both = upper + upper.T
    lab = stats.label_ids
    n_labels = len(stats.vocabulary)
    pair_key = np.repeat(lab, np.diff(both.indptr)) * n_labels + lab[both.indices]
    return np.bincount(
        pair_key, weights=both.data, minlength=n_labels * n_labels
    ).reshape(n_labels, n_labels)


def component_edges(n, kind, seed):
    """Sorted edges i < j on n vertices: none, one path through the vertices in
    random order, that path cut in places, or random pairs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "edgeless":
        a = b = np.empty(0, dtype=np.int64)
    elif kind == "random":
        a, b = rng.integers(0, n, (2, int(rng.integers(0, 2 * n + 1))))
    else:
        order = rng.permutation(n)
        a, b = order[:-1], order[1:]
        if kind == "paths":
            kept = rng.random(n - 1) >= 0.05
            a, b = a[kept], b[kept]
    distinct = a != b
    keys = np.unique(np.minimum(a, b)[distinct] * n + np.maximum(a, b)[distinct])
    return keys // n, keys % n


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def graph_from_pairs(n, pairs, rng):
    ei = np.array([i for i, _ in pairs], dtype=np.int64)
    ej = np.array([j for _, j in pairs], dtype=np.int64)
    w = np.exp(rng.uniform(-20.0, 20.0, len(pairs)))
    return RelationshipGraph(n, ei, ej, w, GraphProvenance("external"))


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(1, 40))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0]))
    isolated = rng.random(n) < draw(st.sampled_from([0.0, 0.3]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if not (isolated[i] or isolated[j]) and rng.random() < density]
    kind = draw(st.sampled_from(["one", "few", "distinct", "unused"]))
    if kind == "one":
        ids, size = np.zeros(n, dtype=np.int64), 1
    elif kind == "distinct":
        ids, size = rng.permutation(n), n
    else:
        size = int(rng.integers(1, n + 1))
        # "unused": ids drawn below the vocabulary size, so entries may go unused
        ids = rng.integers(0, size if kind == "few" else max(size // 2, 1), n)
    vocabulary = tuple(f"L{v}" for v in rng.permutation(size))
    config = MetricConfig(alpha=draw(st.sampled_from([0.0, 0.5, 1.0])),
                          beta=draw(st.sampled_from([0.5, 1.0, 2.0])))
    return graph_from_pairs(n, pairs, rng), LabelAssignment(ids, vocabulary), config


def reference_report(graph, labels, config):
    """`report` fed the directed-view tallies and label weights."""
    stats, _, label_weight = directed_view_stats(graph, labels)
    with mock.patch.object(metrics, "_compute_stats", lambda g, l: stats), \
            mock.patch.object(metrics, "_label_weight", lambda g, s: label_weight):
        return report(graph, labels, config)


def fixed(n, pairs, ids, vocabulary):
    rng = np.random.Generator(np.random.PCG64(n))
    return graph_from_pairs(n, pairs, rng), LabelAssignment(ids, vocabulary), MetricConfig()


class TestTalliesMatchDirectedView:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(labeled_graphs())
    @example(fixed(1, [], [0], ("a",)))
    @example(fixed(2, [], [0, 1], ("a", "b")))
    @example(fixed(3, [(0, 1), (0, 2), (1, 2)], [0, 0, 0], ("a",)))
    @example(fixed(4, [(0, 3), (1, 3), (2, 3)], [0, 1, 2, 3], ("d", "c", "b", "a")))
    @example(fixed(5, [(0, 2), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4)], [0, 1, 0, 1, 0],
                   ("a", "b")))
    def test_bitwise(self, case):
        graph, labels, config = case
        want, want_components, want_label_weight = directed_view_stats(graph, labels)
        got = metrics._compute_stats(graph, labels)
        for name in ("tp_weight", "fp_weight", "tp_count", "degree", "fn_edge",
                     "fn_component", "present", "label_ids"):
            same_bytes(getattr(got, name), getattr(want, name))
        same_bytes(intra_label_components(graph, labels).component_ids, want_components)
        same_bytes(metrics._label_weight(graph, got), want_label_weight)

        offsets, dst, _ = lexsort_adjacency(graph.n_vertices, graph.edges_i,
                                            graph.edges_j, graph.weights)
        lab = labels.labels
        with no_directed_view():
            tallies = [metrics.classify_neighbors(graph, labels, v)
                       for v in range(graph.n_vertices)]
        for v, t in enumerate(tallies):
            row = dst[offsets[v]:offsets[v + 1]]
            same = lab[row] == lab[v]
            assert (t.vertex, t.tp_ids, t.fp_ids) == (
                v, tuple(row[same].tolist()), tuple(row[~same].tolist()))
            same_bytes(np.float64([t.tp_weight, t.fp_weight]),
                       [want.tp_weight[v], want.fp_weight[v]])
            assert (t.fn_edge_count, t.fn_component_count) == (
                want.fn_edge[v], want.fn_component[v])

        rep, ref = report(graph, labels, config), reference_report(graph, labels, config)
        assert json.dumps(rep.to_dict()) == json.dumps(ref.to_dict())
        for name in ("vertex_precision", "vertex_recall", "vertex_fscore"):
            same_bytes(getattr(rep, name), getattr(ref, name))
        fscores = metrics._label_fscores(graph, labels, config)
        assert repr(fscores) == repr({k: s.fscore for k, s in ref.per_label.items()})


def no_directed_view():
    """Patches under which a call to `_label_weight()` or `report()` fails the test."""
    stack = ExitStack()
    for name in ("_label_weight", "report"):
        stack.enter_context(mock.patch.object(
            metrics, name, side_effect=AssertionError(f"{name} called")))
    return stack


class TestKernelsMatchScipy:
    """The numpy components and label weights against the scipy code they replaced."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(labeled_graphs())
    def test_label_weight_bitwise(self, case):
        graph, labels, _ = case
        stats = metrics._compute_stats(graph, labels)
        same_bytes(metrics._label_weight(graph, stats), csr_label_weight(graph, stats))

    @pytest.mark.parametrize("method", ["tsne", "umap", "wide"])
    def test_label_weight_bitwise_at_scale(self, method):
        # the score workload's shape: 4,000 points in 10 overlapping 20-D blobs;
        # "wide" has 70,000 vertices, past the radix sort's 16-bit row ids
        rng = np.random.Generator(np.random.PCG64(0))
        if method == "wide":
            ei, ej = component_edges(70_000, "random", 0)
            graph = RelationshipGraph(70_000, ei, ej, np.exp(rng.uniform(-20.0, 20.0, ei.size)),
                                      GraphProvenance("external"))
            ids = rng.integers(0, 10, 70_000)
        else:
            ids = np.repeat(np.arange(10), 400)
            data = Dataset(rng.random((10, 20))[ids] * 3.0 + rng.normal(size=(4000, 20)))
            graph = build_graph(method, data, 30.0 if method == "tsne" else 15)
        labels = LabelAssignment(ids, tuple(f"L{v}" for v in range(10)))
        stats = metrics._compute_stats(graph, labels)
        same_bytes(metrics._label_weight(graph, stats), csr_label_weight(graph, stats))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 300), st.sampled_from(["edgeless", "path", "paths", "random"]),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([np.int32, np.int64]))
    @example(1, "edgeless", 0, np.int32)
    @example(3000, "path", 1, np.int32)  # pointer jumping's most rounds
    @example(3000, "paths", 2, np.int64)
    def test_components(self, n, kind, seed, dtype):
        ei, ej = component_edges(n, kind, seed)
        got = metrics._component_ids(np.bincount(ei, minlength=n), ej.astype(dtype))
        assert got.dtype == dtype
        assert got.tolist() == scipy_component_ids(n, ei, ej).tolist()


@pytest.fixture(scope="module")
def blobs():
    return preset("split-labels", seed=7)


class TestTuningMatchesReport:
    """sweep rows and estimate trials are the values report gives on the same
    graphs, without building the directed view."""

    @pytest.mark.parametrize("method, ks", [("tsne", [2, 7.5, 30, 200]),
                                            ("umap", [2, 5, 15, 200])])
    def test_sweep_rows(self, blobs, method, ks):
        data, labels = blobs
        config = MetricConfig(alpha=0.5, beta=2.0)
        with no_directed_view():
            result = sweep(data, labels, method, ks, config)
        neighbors = shared_neighbors(method, data, ks)
        assert result.rows[-1].error is not None
        for row in result.rows[:-1]:
            graph = build_graph(method, data, row.k, neighbors=neighbors)
            rep = {alpha: report(graph, labels, MetricConfig(alpha, config.beta))
                   for alpha in (0.0, 0.5, 1.0)}
            assert repr((row.precision, row.recall_a0, row.recall_a1, row.fscore)) == repr(
                (rep[0.5].global_precision, rep[0.0].global_recall,
                 rep[1.0].global_recall, rep[0.5].global_fscore))

    @pytest.mark.parametrize("method", ["tsne", "umap"])
    @pytest.mark.parametrize("target", ["global", "label:1b"])
    def test_estimate_trials(self, blobs, method, target):
        data, labels = blobs
        config = OptimizerConfig(k_min=3, k_max=40, n_init=3, budget=6, target=target,
                                 metric=MetricConfig(alpha=0.25, beta=0.5))
        with no_directed_view():
            _, trace = estimate(data, labels, method, config)
        neighbors = shared_neighbors(method, data, [config.k_max])
        assert len(trace.trials) == 6
        for trial in trace.trials:
            rep = report(build_graph(method, data, trial.k, neighbors=neighbors), labels,
                         config.metric)
            per_label = {name: s.fscore for name, s in rep.per_label.items()}
            want = rep.global_fscore if target == "global" else per_label["1b"]
            assert repr((trial.fscore, trial.per_label)) == repr((want, per_label))


class TestScoringMemory:
    """The per-k scorer of sweep and estimate traces a few edge-sized arrays,
    not the directed view's ten."""

    @pytest.fixture(scope="class")
    def graph(self):
        data = Dataset(np.random.Generator(np.random.PCG64(5)).random((1500, 5)))
        return data, build_tsne_graph(data, 30.0)

    @pytest.mark.parametrize("labeling", ["one", "five"])
    def test_peak_traced_bytes(self, graph, labeling, monkeypatch):
        data, graph = graph
        ids = (np.zeros(data.n, dtype=np.int64) if labeling == "one"
               else np.arange(data.n) % 5)
        labels = LabelAssignment(ids, tuple("abcde")[: int(ids.max()) + 1])
        for module in (metrics, optimizer):
            monkeypatch.setattr(module, "build_graph", lambda *args, **kwargs: graph)
            monkeypatch.setattr(module, "shared_neighbors", lambda *args, **kwargs: None)
        config = OptimizerConfig(k_min=2, k_max=3, n_init=1, budget=1)
        for run in (lambda: sweep(data, labels, "tsne", [30.0]),
                    lambda: estimate(data, labels, "tsne", config)):
            run()  # warm-up: first-call allocations are not traced
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # about 2.2 (five labels) and 3.2 (one label) edges' worth; 10 before
            assert peak < 4 * graph.n_edges * 8

    @pytest.mark.parametrize("labeling", ["one", "five"])
    def test_report_peak_traced_bytes(self, graph, labeling):
        """The whole-graph report gathers the label weights from one copy of
        the weights, not from both directions' concatenation."""
        data, graph = graph
        ids = (np.zeros(data.n, dtype=np.int64) if labeling == "one"
               else np.arange(data.n) % 5)
        labels = LabelAssignment(ids, tuple("abcde")[: int(ids.max()) + 1])
        report(graph, labels)  # warm-up: first-call allocations are not traced
        tracemalloc.start()
        try:
            report(graph, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 6.92 edges' worth with either labeling; 8.92 with the concatenated weights
        assert peak < 8 * graph.n_edges * 8
