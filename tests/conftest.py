import numpy as np
import pytest

from relscore.datasets import LabelAssignment
from relscore.graphs import GraphProvenance, RelationshipGraph


def make_graph(n, edges, method="external", param=None):
    """Build a graph from (i, j, w) triples; i/j in either order."""
    ei, ej, w = [], [], []
    for i, j, weight in edges:
        a, b = (i, j) if i < j else (j, i)
        ei.append(a)
        ej.append(b)
        w.append(weight)
    return RelationshipGraph(
        n, np.array(ei, dtype=np.int64), np.array(ej, dtype=np.int64),
        np.array(w), GraphProvenance(method, param),
    )


def lexsort_adjacency(n, ei, ej, w):
    """The directed view of the sorted edges (i, j, w): both directions,
    lexsorted, as CSR offsets, neighbors and weights."""
    src, dst = np.concatenate([ei, ej]), np.concatenate([ej, ei])
    w = np.concatenate([w, w])
    order = np.lexsort((dst, src))
    return np.searchsorted(src[order], np.arange(n + 1)), dst[order], w[order]


def make_labels(ids, vocabulary=None):
    ids = np.asarray(ids, dtype=np.int64)
    if vocabulary is None:
        vocabulary = tuple(str(i) for i in range(int(ids.max()) + 1))
    return LabelAssignment(ids, tuple(vocabulary))


@pytest.fixture
def two_group_graph():
    """Five white vertices in two same-label chains, bridged only via grays.

    White: 0,1,2 chained and 3,4 chained; gray: 5,6.  Cross edges hop
    white->gray->white, so deleting them splits the whites in two.
    """
    edges = [
        (0, 1, 1.0), (1, 2, 1.0),          # white chain a-b-c
        (3, 4, 1.0),                        # white chain f-g
        (2, 5, 1.0), (3, 5, 1.0),           # via gray d
        (4, 6, 1.0), (0, 6, 1.0),           # via gray e
    ]
    labels = make_labels([0, 0, 0, 0, 0, 1, 1], ("white", "gray"))
    return make_graph(7, edges), labels


@pytest.fixture
def bridged_group_graph(two_group_graph):
    """Same graph plus a direct white-white bridge (0,3): one white component."""
    graph, labels = two_group_graph
    edges = list(zip(graph.edges_i.tolist(), graph.edges_j.tolist(),
                     graph.weights.tolist()))
    edges.append((0, 3, 1.0))
    return make_graph(7, edges), labels


@pytest.fixture
def six_vertex_graph():
    """Unit weights; vertex 0 has three same-label neighbors and one other."""
    edges = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0), (4, 5, 1.0)]
    labels = make_labels([0, 0, 0, 0, 1, 1], ("a", "b"))
    return make_graph(6, edges), labels


@pytest.fixture
def chain_of_four():
    """Single label, path 0-1-2-3: vertex 0 touches 1 of its 3 peers."""
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    labels = make_labels([0, 0, 0, 0], ("only",))
    return make_graph(4, edges), labels
