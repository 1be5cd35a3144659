import json
import math

import numpy as np
import pytest

from qwalk import (
    PureState,
    TailSpec,
    WeightedGraph,
    build_graph,
    build_state,
    degree_profile,
    graph_to_document,
    negate_edges,
    pair_state,
    plus_state,
    state_to_document,
    vertex_state,
)
from qwalk.errors import (
    DuplicateEdgeConflict,
    MissingEdge,
    ParseError,
    SameVertex,
    SelfLoop,
    ZeroWeight,
)


def test_edges_are_canonicalized():
    g = WeightedGraph(3, ((2, 0, 1.0), (1, 2, -2.0)))
    assert g.edges == ((0, 2, 1.0), (1, 2, -2.0))
    assert g.weight(2, 0) == 1.0
    assert g.weight(0, 1) == 0.0
    assert g.neighbors(2) == [0, 1]
    assert g.adjacency_lists == ((2,), (2,), (0, 1))
    assert g.neighbors(3) == [] and g.neighbors(-1) == []


def test_derived_structures_are_cached():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, -2.0)))
    assert g.adjacency_lists is g.adjacency_lists
    assert g.weight_map is g.weight_map
    assert g.weight_map == {(0, 1): 1.0, (1, 2): -2.0}
    # the caches are not fields: equality and hashing ignore them
    assert g == WeightedGraph(3, ((1, 2, -2.0), (0, 1, 1.0)))
    assert hash(g) == hash(WeightedGraph(3, g.edges))


def test_invalid_graphs_rejected():
    with pytest.raises(SelfLoop):
        WeightedGraph(2, ((1, 1, 1.0),))
    with pytest.raises(ZeroWeight):
        WeightedGraph(2, ((0, 1, 0.0),))
    with pytest.raises(ParseError):
        WeightedGraph(2, ((0, 5, 1.0),))
    with pytest.raises(DuplicateEdgeConflict):
        WeightedGraph(2, ((0, 1, 1.0), (1, 0, 2.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected(bad):
    with pytest.raises(ParseError):
        WeightedGraph(2, ((0, 1, bad),))
    with pytest.raises(ParseError):
        WeightedGraph(2, ((0, 1, 1.0),), (TailSpec(1, (1.0, bad)),))
    with pytest.raises(ParseError):
        PureState(((0, complex(bad, 0.0)),))
    with pytest.raises(ParseError):
        PureState(((0, complex(0.0, bad)),))
    with pytest.raises(ParseError):
        build_graph(json.dumps({"n": 2, "edges": [[0, 1, bad]]}))


def test_document_roundtrip():
    g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, -1.5)), (TailSpec(2, (0.5,)),))
    doc = graph_to_document(g)
    assert doc["format"] == "qwalk/1"
    g2 = build_graph(json.dumps(doc))
    assert g2 == g


def test_build_graph_default_weight_and_duplicates():
    g = build_graph({"n": 3, "edges": [[0, 1], [1, 2, 2.0], [0, 1, 1.0]]})
    assert g.weight(0, 1) == 1.0
    assert g.weight(1, 2) == 2.0
    with pytest.raises(DuplicateEdgeConflict):
        build_graph({"n": 2, "edges": [[0, 1, 1.0], [1, 0, 2.0]]})


def test_build_graph_labels():
    g = build_graph({"n": 2, "labels": ["a", "b"], "edges": [["a", "b", 3.0]]})
    assert g.weight(0, 1) == 3.0
    with pytest.raises(ParseError):
        build_graph({"n": 2, "labels": ["a", "a"], "edges": []})


def test_bad_json_rejected():
    with pytest.raises(ParseError):
        build_graph("not json {")
    with pytest.raises(ParseError):
        build_graph({"n": 1, "format": "other/9"})


def test_states():
    v = vertex_state(2).vector(4)
    np.testing.assert_allclose(v, [0, 0, 1, 0])
    p = pair_state(0, 3).vector(4)
    np.testing.assert_allclose(p, [1 / math.sqrt(2), 0, 0, -1 / math.sqrt(2)])
    q = plus_state(0, 3).vector(4)
    np.testing.assert_allclose(q, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    with pytest.raises(SameVertex):
        pair_state(1, 1)
    with pytest.raises(ParseError):
        PureState(((0, 0.5 + 0j),))  # not unit


def test_state_document_roundtrip():
    s = pair_state(1, 4)
    s2 = build_state(json.dumps(state_to_document(s)))
    assert s2.is_parallel_to(s)


def test_degree_profile_with_tails():
    g = WeightedGraph(3, ((0, 1, 2.0), (1, 2, -1.0)), (TailSpec(2, (3.0,)),))
    prof = degree_profile(g)
    assert prof.degree == (2.0, 1.0, -1.0)
    assert prof.absolute_degree == (2.0, 3.0, 1.0)
    # attach vertex: |−1| + |3| = 4; first tail vertex: |3| + 1 = 4
    assert prof.m == 4.0
    # computed once per graph, like the neighbour lists
    assert degree_profile(g) is prof is g.degree_profile


def test_negate_edges():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    g2 = negate_edges(g, [(1, 0)])
    assert g2.weight(0, 1) == -1.0
    assert g2.weight(1, 2) == 1.0
    with pytest.raises(MissingEdge):
        negate_edges(g, [(0, 2)])


@pytest.mark.parametrize("edges, tails", [
    (((0, 1.5, 1.0), (1, 2, 1.0)), ()),  # once read as the edge (0, 1)
    (((0, True, 1.0),), ()),             # once stored as True
    (((0, 1, 1.0),), (TailSpec(1.5),)),  # once passed the range check
    (((0, 1, 1.0),), (TailSpec(False),)),
    ((("0", 1, 1.0),), ()),
])
def test_non_integer_vertices_are_refused(edges, tails):
    with pytest.raises(ParseError, match="is not an integer"):
        WeightedGraph(3, edges, tails)


def test_numpy_integer_vertices_are_stored_as_int():
    g = WeightedGraph(3, ((np.int64(2), np.int32(0), 1.0), (1, np.uint8(2), 1.0)),
                      (TailSpec(np.int64(1), (2.0,)),))
    assert g.edges == ((0, 2, 1.0), (1, 2, 1.0))
    assert g.tails == (TailSpec(1, (2.0,)),)
    assert {type(v) for a, b, _ in g.edges for v in (a, b)} == {int}
    assert type(g.tails[0].attach) is int
