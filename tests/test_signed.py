import math

import numpy as np
import pytest

from qwalk import (
    SignVector,
    WeightedGraph,
    build_sign_vector,
    compose_signed,
    cycle_graph,
    fidelity,
    is_antibalanced,
    is_balanced,
    named_gadget,
    negate_edges,
    pair_state,
    pairplus_transforms,
    path_graph,
    plus_state,
    switch,
)
from qwalk.errors import CommuteError, EdgeOverlap, ParseError, UnsupportedOverlap


def test_sign_vector_validation():
    with pytest.raises(ParseError):
        SignVector((1, 0, -1))
    sv = build_sign_vector({"d": [1, -1], "delta": -1})
    assert sv.d == (1, -1) and sv.delta == -1
    assert sv.to_document() == {"d": [1, -1], "delta": -1}


@pytest.mark.parametrize("doc", [
    {"d": [1.7, -1]},
    {"d": [1, -1], "delta": -1.9},
    {"d": ["x", 1]},
    {"d": [math.nan, 1]},
    {"d": 5},
    {"d": [True, -1]},
], ids=["fraction", "fractional-delta", "string", "nan", "not-a-list", "bool"])
def test_sign_vector_document_fails_closed(doc):
    with pytest.raises(ParseError):
        build_sign_vector(doc)


def test_switch_identity_and_involution():
    g = cycle_graph(5)
    assert switch(g, SignVector((1,) * 5)) == g
    sv = SignVector((1, -1, 1, -1, 1))
    assert switch(switch(g, sv), sv) == g


def test_switch_negates_cut_edges():
    g = path_graph(3)
    g2 = switch(g, SignVector.flipping(3, [1]))
    assert g2.weight(0, 1) == -1.0
    assert g2.weight(1, 2) == -1.0


def test_switching_covariance():
    rng = np.random.default_rng(5)
    g = cycle_graph(6)
    for _ in range(5):
        d = tuple(int(x) for x in rng.choice([-1, 1], size=6))
        delta = int(rng.choice([-1, 1]))
        sv = SignVector(d, delta)
        g2 = switch(g, sv)
        t = float(rng.uniform(0.2, 4.0))
        u, v = pair_state(0, 3), plus_state(1, 4)
        f1 = fidelity(g, u, v, t)
        f2 = fidelity(g2, sv.apply_to_state(u), sv.apply_to_state(v), delta * t)
        assert abs(f1 - f2) < 1e-10


def test_balance_detection_on_signed_cycle():
    c6 = cycle_graph(6)
    sg = negate_edges(c6, [(3, 4), (0, 5)])  # even number of negatives
    sv = is_balanced(sg, c6)
    assert sv is not None
    d = np.diag(sv.d)
    np.testing.assert_allclose(d @ c6.core_adjacency() @ d, sg.core_adjacency())


def test_single_negative_tree_edge_always_balanced():
    t = path_graph(5)
    sg = negate_edges(t, [(2, 3)])
    assert is_balanced(sg, t) is not None


def test_unbalanced_cycle_detected():
    c5 = cycle_graph(5)
    sg = negate_edges(c5, [(0, 4)])  # odd cycle with one negative edge
    assert is_balanced(sg, c5) is None
    # fully negated C_5 is exactly -A: anti-balanced with D=I, never balanced
    allneg = negate_edges(c5, [(a, b) for a, b, _ in c5.edges])
    assert is_balanced(allneg, c5) is None
    assert is_antibalanced(allneg, c5) is not None
    # fully negated even cycle is balanced (alternate signs around it)
    c6 = cycle_graph(6)
    allneg6 = negate_edges(c6, [(a, b) for a, b, _ in c6.edges])
    assert is_balanced(allneg6, c6) is not None


def test_identity_is_balanced_to_itself():
    g = cycle_graph(4)
    sv = is_balanced(g, g)
    assert sv is not None and all(x == 1 for x in sv.d)


def test_pairplus_transforms_cover_the_three_generators():
    gd = named_gadget("p2_twins")
    out = pairplus_transforms(gd.graph, gd.src, gd.dst, gd.tau)
    patterns = set()
    for g2, s2, d2 in out:
        f = fidelity(g2, s2, d2, gd.tau)
        assert f >= 1 - 1e-9
        sgn = lambda st: st.support[1][1].real > 0
        patterns.add((sgn(s2), sgn(d2)))
    # plus-pair, pair-plus, and plus-plus all appear
    assert patterns == {(True, False), (False, True), (True, True)}


def test_pairplus_same_state_periodicity():
    gd = named_gadget("p2_twins_perturbed")
    out = pairplus_transforms(gd.graph, gd.src, gd.dst, gd.tau)
    for g2, s2, d2 in out:
        assert fidelity(g2, s2, d2, gd.tau) >= 1 - 1e-9


def test_pairplus_rejects_non_two_point_states():
    gd = named_gadget("p2_twins")
    from qwalk import vertex_state
    with pytest.raises(UnsupportedOverlap):
        pairplus_transforms(gd.graph, vertex_state(0), gd.dst, gd.tau)


def test_compose_signed_basic():
    h = cycle_graph(4)
    k = WeightedGraph(4, ((0, 2, 1.0), (1, 3, 1.0)))  # diagonals commute
    g = compose_signed(h, k)
    a = g.core_adjacency()
    np.testing.assert_allclose(a, h.core_adjacency() - k.core_adjacency())


def test_compose_signed_empty_second():
    h = cycle_graph(4)
    k = WeightedGraph(4, ())
    assert compose_signed(h, k) == h


def test_compose_signed_rejects_overlap_and_noncommuting():
    h = cycle_graph(4)
    with pytest.raises(EdgeOverlap):
        compose_signed(h, WeightedGraph(4, ((0, 1, 1.0),)))
    # P_3 and a single extra edge on 3 vertices do not commute
    with pytest.raises(CommuteError):
        compose_signed(path_graph(3), WeightedGraph(3, ((0, 2, 1.0),)))


def test_commutation_exponential_identity():
    h = cycle_graph(6)
    k = WeightedGraph(6, ((0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)))
    g = compose_signed(h, k)
    from qwalk.spectral import SpectralDecomposition
    for t in (0.7, 1.9):
        lhs = SpectralDecomposition.of(g.core_adjacency()).unitary(t)
        rhs = (SpectralDecomposition.of(h.core_adjacency()).unitary(t)
               @ SpectralDecomposition.of(-k.core_adjacency()).unitary(t))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)
