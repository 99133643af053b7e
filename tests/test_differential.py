"""Property-based differential checks of the metrics kernel.

Hypothesis draws small labeled graphs, including edgeless graphs, unused
vocabulary entries and singleton labels; the fast kernel must agree with
a breadth-first component reference and with the brute-force oracle.
Derandomized, so every run draws the same examples.
"""

from collections import deque

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relscore.metrics import MetricConfig, intra_label_components, report
from relscore.oracle import brute_force_report

from conftest import make_graph, make_labels

MAX_N = 30
TOL = 1e-12
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _vocabulary(size):
    return tuple(f"L{i}" for i in range(size))


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(1, MAX_N))
    vocab_size = draw(st.integers(1, n))
    lab = draw(st.lists(st.integers(0, vocab_size - 1), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=4 * n)) if pairs else set()
    weights = draw(st.lists(st.floats(min_value=1e-6, max_value=1e6),
                            min_size=len(chosen), max_size=len(chosen)))
    edges = [(i, j, w) for (i, j), w in zip(sorted(chosen), weights)]
    return make_graph(n, edges), make_labels(lab, _vocabulary(vocab_size))


EDGELESS = (make_graph(5, []), make_labels([0, 1, 0, 1, 1], _vocabulary(2)))
UNUSED_VOCABULARY = (make_graph(6, [(0, 1, 0.5), (1, 2, 2.0), (3, 4, 1.0)]),
                     make_labels([0, 0, 2, 2, 0, 2], _vocabulary(4)))
SINGLETON_LABEL = (make_graph(4, [(0, 1, 1.0), (1, 2, 0.25), (2, 3, 3.0)]),
                   make_labels([0, 0, 1, 0], _vocabulary(2)))


def bfs_components(graph, labels):
    """Smallest-member component id per vertex over same-label edges."""
    n = graph.n_vertices
    lab = labels.labels.tolist()
    adjacent = [[] for _ in range(n)]
    for i, j in zip(graph.edges_i.tolist(), graph.edges_j.tolist()):
        if lab[i] == lab[j]:
            adjacent[i].append(j)
            adjacent[j].append(i)
    ids = [-1] * n
    for start in range(n):  # ascending, so each start is its component's minimum
        if ids[start] != -1:
            continue
        ids[start] = start
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adjacent[v]:
                if ids[u] == -1:
                    ids[u] = start
                    queue.append(u)
    return ids


@SETTINGS
@given(labeled_graphs())
@example(EDGELESS)
@example(UNUSED_VOCABULARY)
@example(SINGLETON_LABEL)
def test_components_match_bfs(case):
    graph, labels = case
    comp = intra_label_components(graph, labels)
    assert comp.component_ids.tolist() == bfs_components(graph, labels)


@SETTINGS
@given(labeled_graphs(), st.floats(0.0, 1.0), st.floats(0.25, 4.0))
@example(EDGELESS, 0.5, 1.0)
@example(UNUSED_VOCABULARY, 0.0, 2.0)
@example(SINGLETON_LABEL, 1.0, 0.5)
def test_report_matches_oracle(case, alpha, beta):
    graph, labels = case
    fast = report(graph, labels, MetricConfig(alpha=alpha, beta=beta))
    slow = brute_force_report(graph, labels, alpha, beta)
    for name in ("vertex_precision", "vertex_recall", "vertex_fscore"):
        assert np.abs(getattr(fast, name) - getattr(slow, name)).max() <= TOL, name
    for name in ("global_precision", "global_recall", "global_fscore"):
        assert abs(getattr(fast, name) - getattr(slow, name)) <= TOL, name
    assert list(fast.per_label) == list(slow.per_label)
    for label, mine in fast.per_label.items():
        theirs = slow.per_label[label]
        assert mine.size == theirs.size
        for field in ("precision", "recall", "fscore", "tp_weight_share"):
            assert abs(getattr(mine, field) - getattr(theirs, field)) <= TOL, field
        assert mine.fp_weight_shares.keys() == theirs.fp_weight_shares.keys()
        for other, share in mine.fp_weight_shares.items():
            assert abs(share - theirs.fp_weight_shares[other]) <= TOL
