"""Differential fuzz test: load_graph against the per-edge loop it replaced.

`reference_load_graph` is that loop, kept here as the slow reference.  It
differs from the code it was copied from only where the behaviour changed
on purpose, each marked "changed:" below.  Documents are drawn with
hypothesis (derandomized, so every run sees the same corpus): valid graphs
with random edge order, plus wrong arity, non-list edges, float, bool,
string and huge endpoints, self-loops, i > j, out-of-range endpoints,
duplicates, non-finite, zero, negative, bool, string and huge weights,
several faults at once, and bad header fields.  Each document is also
loaded in other forms (`_forms`), with the default and with 24-byte
chunks, so that both of load_graph's readers meet the reference: the
chunked one that reads save_graph's layout and the whole-document one
it falls back to.  One form renders the document, faults included, in
save_graph's exact bytes (`_layout`), so the chunked reader alone must
name every fault of an edge list whose edges have the right types.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relscore import graphs as graphs_module
from relscore.graphs import (
    GraphError,
    GraphProvenance,
    RelationshipGraph,
    load_graph,
    save_graph,
)


def reference_load_graph(path):
    """Read a graph file, rejecting malformed edges with their location."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise GraphError(f"{path}: top-level value must be an object")
    for key in ("n", "method", "edges"):
        if key not in doc:
            raise GraphError(f"{path}: missing key {key!r}")
    n = doc["n"]
    # changed: a boolean is not an integer
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GraphError(f"{path}: 'n' must be a positive integer, got {n!r}")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise GraphError(f"{path}: 'edges' must be an array")
    seen: set[tuple[int, int]] = set()
    ei = np.empty(len(edges), dtype=np.int64)
    ej = np.empty(len(edges), dtype=np.int64)
    w = np.empty(len(edges))
    for idx, edge in enumerate(edges):
        where = f"{path}: edges[{idx}]"
        if not isinstance(edge, (list, tuple)) or len(edge) != 3:
            raise GraphError(f"{where}: expected [i, j, weight]")
        i, j, weight = edge
        # changed: booleans are not integers
        if type(i) is not int or type(j) is not int:
            raise GraphError(f"{where}: endpoints must be integers")
        if i == j:
            raise GraphError(f"{where}: self-loop ({i},{j})")
        if i > j:
            raise GraphError(f"{where}: endpoints must satisfy i < j, got ({i},{j})")
        if not 0 <= i < n or not 0 <= j < n:
            raise GraphError(f"{where}: endpoint outside 0..{n - 1}")
        if (i, j) in seen:
            raise GraphError(f"{where}: duplicate edge ({i},{j})")
        seen.add((i, j))
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise GraphError(f"{where}: weight must be a number")
        try:
            weight = float(weight)
        except OverflowError:  # changed: an integer past the double range is inf
            weight = math.inf if weight > 0 else -math.inf
        if not (weight > 0 and math.isfinite(weight)):
            raise GraphError(f"{where}: weight must be positive and finite, got {weight}")
        ei[idx], ej[idx], w[idx] = i, j, weight
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise GraphError(f"{path}: 'options' must be an object")
    param = doc.get("param")
    if param is not None and (not isinstance(param, (int, float))
                              or isinstance(param, bool)):
        raise GraphError(f"{path}: 'param' must be a number or null")
    try:
        provenance = GraphProvenance(doc["method"], param, options)
    except GraphError as exc:  # changed: the message names the file
        raise GraphError(f"{path}: {exc}") from None
    return RelationshipGraph(n, ei, ej, w, provenance)


BAD_ENDPOINTS = [10 ** 30, 1.0, -1, 2 ** 63, True, 2 ** 63 - 1, 0.5, -(10 ** 30),
                 2 ** 64, False, -(2 ** 63) - 1, "1", 2 ** 63 + 1, -0.0, None,
                 10 ** 400, [0], -7]
NON_NUMBERS = [True, False, "x", "1.0", None, [1.0], {}]
BAD_WEIGHTS = [0.0, 10 ** 400, -1.5, math.inf, 0, math.nan, -(10 ** 400), -math.inf,
               2 ** 1024 - 2 ** 970,  # rounds up past the largest double
               -3, -0.0] + NON_NUMBERS
BAD_EDGES = [[], [0], [0, 1], [0, 1, 0.5, 2], 3, 0.5, "e", None, True,
             {"i": 0, "j": 1, "w": 0.5}, [[0, 1, 0.5]]]
GOOD_WEIGHTS = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.integers(1, 10 ** 20),
    st.sampled_from([1e-300, 0.5, 1.0, 2 ** 1024 - 2 ** 971]),  # the largest double
)


@st.composite
def documents(draw):
    n = draw(st.sampled_from([5, 3, 6, 2, 4, 7, 1]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min(len(pairs), 2),
                           max_size=9)) if pairs else []
    edges = [[i, j, draw(GOOD_WEIGHTS)] for i, j in chosen]
    for _ in range(draw(st.sampled_from([1, 2, 0, 3]))):
        kind = draw(st.sampled_from(["small", "endpoint", "weight", "loop", "flip", "dup",
                                     "edge", "loop and weight"]))
        triples = [e for e in edges if isinstance(e, list) and len(e) == 3]
        if kind == "dup" and triples:
            src = draw(st.sampled_from(triples))
            at = draw(st.integers(0, len(edges)))
            edges.insert(at, [src[0], src[1], draw(st.one_of(GOOD_WEIGHTS, st.just(src[2])))])
            continue
        if kind == "edge":
            edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(BAD_EDGES)))
            continue
        if not triples:
            continue
        edge = draw(st.sampled_from(triples))
        if kind == "endpoint":
            edge[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_ENDPOINTS))
        elif kind == "small":
            edge[draw(st.integers(0, 1))] = draw(st.integers(-2, n + 2))
        elif kind == "weight":
            edge[2] = draw(st.sampled_from(BAD_WEIGHTS))
        elif kind == "loop":
            edge[1] = edge[0]
        elif kind == "loop and weight":
            edge[1], edge[2] = edge[0], draw(st.sampled_from(NON_NUMBERS))
        else:
            edge[0], edge[1] = edge[1], edge[0]
    doc = {"n": n, "method": draw(st.sampled_from(["tsne", "umap", "external"])),
           "param": draw(st.sampled_from([None, 30, 7.5])), "edges": edges}
    if draw(st.booleans()):
        doc["options"] = draw(st.sampled_from([{}, {"prune_eps": 1e-8, "candidates": 9}]))
    if draw(st.sampled_from([False] * 9 + [True])):  # one bad header field
        key = draw(st.sampled_from(["n", "method", "param", "options", "edges", "missing"]))
        if key == "missing":
            del doc[draw(st.sampled_from(["n", "method", "edges", "param"]))]
        else:
            doc[key] = draw(st.sampled_from({
                "n": [0, -1, True, False, 2.5, "4", None, max(n - 2, 1)],
                "method": ["isomap", "TSNE", None, 3, ["x"]],
                "param": ["thirty", True, [1], {}],
                "options": [[], "x", 1, None],
                "edges": [{}, "edges", None, 3],
            }[key]))
    if draw(st.sampled_from([False] * 29 + [True])):
        doc = draw(st.sampled_from([[doc], "graph", 3, None]))
    return doc


EDGE_REASONS = ("expected [i, j, weight]", "endpoints must be integers", "self-loop",
                "endpoints must satisfy i < j", "endpoint outside", "duplicate edge",
                "weight must be a number", "weight must be positive and finite")
ENDPOINT_RULES = EDGE_REASONS[2:6]


def _outcome(load, path):
    try:
        return load(path), None
    except GraphError as exc:
        return None, str(exc)


def _edge_fault(message, path):
    """(t, reason) of an `edges[t]: reason` message, or None for another fault."""
    prefix = f"{path}: edges["
    if not message.startswith(prefix):
        return None
    t, reason = message[len(prefix):].split("]: ", 1)
    return int(t), reason


def test_load_graph_matches_the_per_edge_loop(tmp_path_factory):
    reached = set()

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(doc=documents())
    def check(doc):
        folder = tmp_path_factory.mktemp("fuzz")
        path = folder / "g.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        graph, message = _outcome(load_graph, path)
        expected, reference_message = _outcome(reference_load_graph, path)
        if reference_message is not None:
            fault = _edge_fault(reference_message, path)
            reached.add(fault[1].split(" (")[0].split(", got")[0].split(" 0..")[0]
                        if fault else "header")
            if message != reference_message:
                # the one allowed difference: edge t has a non-number weight and
                # also breaks an endpoint rule; the weight may be named instead
                t, reason = fault
                assert reason.startswith(ENDPOINT_RULES)
                i, j, weight = doc["edges"][t]
                assert type(i) is int and type(j) is int
                assert type(weight) not in (int, float)
                assert message == f"{path}: edges[{t}]: weight must be a number"
                reached.add("named the weight")
            return
        reached.add("valid")
        assert message is None
        assert graph.n_vertices == expected.n_vertices
        for got, want in ((graph.edges_i, expected.edges_i),
                          (graph.edges_j, expected.edges_j),
                          (graph.weights, expected.weights)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert graph.provenance == expected.provenance
        assert type(graph.provenance.param) is type(expected.provenance.param)
        saved, saved_reference = folder / "saved.json", folder / "reference.json"
        save_graph(graph, saved)
        save_graph(expected, saved_reference)
        assert saved.read_bytes() == saved_reference.read_bytes()
        again = folder / "again.json"
        save_graph(load_graph(saved), again)
        assert again.read_bytes() == saved.read_bytes()

    check()
    assert reached == set(EDGE_REASONS) | {"valid", "header", "named the weight"}


def _layout(doc):
    """`doc` in save_graph's exact bytes, or None when its keys are not
    save_graph's: n, method, param, an edge list, and a non-empty options
    object if any."""
    if not isinstance(doc, dict) or not isinstance(doc.get("edges"), list):
        return None
    options = doc.get("options")
    keys = {"n", "method", "param", "edges"} | ({"options"} if options else set())
    if set(doc) != keys or (options and not isinstance(options, dict)):
        return None
    head, tail = graphs_module._head_tail(doc["n"], doc["method"], doc["param"], options)
    return (head + ", ".join(json.dumps(edge) for edge in doc["edges"]).encode()
            + tail).decode()


def _typed(edges):
    """Whether every edge is [int, int, number] with int64 endpoints: the
    edge lists the chunked reader reads itself, whatever rule they break."""
    return all(type(edge) is list and len(edge) == 3 and type(edge[2]) in (int, float)
               and all(type(v) is int and -2 ** 63 <= v < 2 ** 63 for v in edge[:2])
               for edge in edges)


def _forms(doc, expected, folder):
    """Texts of the drawn `doc` in other forms: the chunked reader must read
    save_graph's layout and fall back on any other, with the same outcome."""
    text = json.dumps(doc)
    forms = {"dumps": text,
             "compact": json.dumps(doc, separators=(",", ":")),
             "indented": json.dumps(doc, indent=1),
             "one wider gap": text.replace("], [", "],  [", 1),
             "bom": "\ufeff" + text}
    if (layout := _layout(doc)) is not None:
        forms["layout"] = layout
    if expected is not None:
        save_graph(expected, folder / "saved.json")
        forms["saved"] = (folder / "saved.json").read_text(encoding="utf-8")
    if isinstance(doc, dict):
        forms["reordered"] = json.dumps(dict(reversed(doc.items())))
        for key, value in (("edges", [[0, 1, 1.0]]), ("edges", []), ("n", 2)):
            forms[f"{key} {value} first"] = f'{{"{key}": {json.dumps(value)}, {text[1:]}'
            forms[f"{key} {value} last"] = f'{text[:-1]}, "{key}": {json.dumps(value)}}}'
        if "edges" in doc:  # the first '"edges": [' ends a key that is not "edges"
            rest = json.dumps({key: value for key, value in doc.items() if key != "edges"})
            forms["edges in a key"] = (f'{{"edges":{json.dumps(doc["edges"])}, '
                                       f'"x\\"edges": [[0, 1, 1.0]], {rest[1:]}')
        if isinstance(doc.get("edges"), list):
            odd = [0, 1, "x" + "], [" * 16], [1, 2, "x]]"]  # a 24-byte chunk ends in the first
            forms["brackets in the first edge"] = json.dumps(
                {**doc, "edges": [odd[0], *doc["edges"]]})
            forms["brackets in the last edge"] = json.dumps(
                {**doc, "edges": [*doc["edges"], odd[1]]})
        forms["brackets in head"] = json.dumps({"note": "x], [y]]", **doc})
        forms["brackets in tail"] = json.dumps({**doc, "note": "]], [[0, 1, 0.5]]"})
    return forms


@pytest.mark.parametrize("load_bytes", [graphs_module._LOAD_BYTES, 24], ids=["default", "tiny"])
def test_both_paths_match_the_per_edge_loop(tmp_path_factory, monkeypatch, load_bytes):
    """Every form of every drawn document loads as the reference loads it,
    whether the chunked reader takes it or the whole-document reader does;
    with 24-byte chunks a valid graph spans many chunks and every fault
    meets a chunk boundary."""
    monkeypatch.setattr(graphs_module, "_LOAD_BYTES", load_bytes)
    whole = []
    read_graph = graphs_module._read_graph
    monkeypatch.setattr(graphs_module, "_read_graph",
                        lambda path: whole.append(path) or read_graph(path))
    reached, chunked = set(), set()

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(doc=documents())
    # header faults beside well-typed edges, which the drawn corpus seldom pairs
    @example(doc={"n": 0, "method": "tsne", "param": 30, "edges": [[0, 1, 0.5]]})
    @example(doc={"n": 3, "method": "pca", "param": None, "edges": [[0, 1, 0.5], [1, 2, 1]]})
    @example(doc={"n": 3, "method": "umap", "param": "thirty", "edges": [[0, 2, 0.5]]})
    def check(doc):
        folder = tmp_path_factory.mktemp("forms")
        path = folder / "g.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        expected, _ = _outcome(reference_load_graph, path)
        for form, text in _forms(doc, expected, folder).items():
            # the reference reads no byte-order mark, which load_graph skips
            path.write_text(text.removeprefix("\ufeff"), encoding="utf-8")
            want, reference_message = _outcome(reference_load_graph, path)
            path.write_text(text, encoding="utf-8")
            del whole[:]
            graph, message = _outcome(load_graph, path)
            if form == "saved":  # save_graph's layout never needs the whole-document reader
                assert whole == []
                reached.add("chunked")
            if form == "layout" and _typed(doc["edges"]):  # every fault named without a re-read
                assert whole == [], message
                chunked.add("valid" if message is None else message.removeprefix(f"{path}: "))
            if reference_message is not None:
                fault = _edge_fault(reference_message, path)
                reached.add(fault[1].split(" (")[0].split(", got")[0].split(" 0..")[0]
                            if fault else "header")
                if message != reference_message:  # the difference the test above allows
                    t, reason = fault
                    i, j, weight = json.loads(text.removeprefix("\ufeff"))["edges"][t]
                    assert reason.startswith(ENDPOINT_RULES)
                    assert type(i) is int and type(j) is int
                    assert type(weight) not in (int, float)
                    assert message == f"{path}: edges[{t}]: weight must be a number"
                continue
            reached.add("valid")
            assert message is None, (form, message)
            assert graph.n_vertices == want.n_vertices
            for got, ref in ((graph.edges_i, want.edges_i), (graph.edges_j, want.edges_j),
                             (graph.weights, want.weights)):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            assert graph.provenance == want.provenance
            assert type(graph.provenance.param) is type(want.provenance.param)

    check()
    assert reached == set(EDGE_REASONS) | {"valid", "header", "chunked"}
    # the faults a well-typed edge list or the header can hold, each named by the chunked reader
    faults = {message.split("]: ", 1)[-1].split(" (")[0].split(", got")[0].split(" 0..")[0]
              for message in chunked}
    assert set(EDGE_REASONS[2:6]) | {"weight must be positive and finite", "valid"} <= faults
    assert {"'n' must be a positive integer, got 0", "'param' must be a number or null",
            f"method must be one of {graphs_module.GRAPH_METHODS}, got 'pca'"} <= chunked
