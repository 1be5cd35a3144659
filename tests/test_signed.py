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
import qwalk.signed
from qwalk.errors import (
    CommuteError,
    EdgeOverlap,
    ParseError,
    QwalkError,
    UnsupportedOverlap,
)
from qwalk.graphs import PureState


def test_sign_vector_validation():
    with pytest.raises(ParseError):
        SignVector((1, 0, -1))
    sv = build_sign_vector({"d": [1, -1], "delta": -1})
    assert sv.d == (1, -1) and sv.delta == -1
    assert sv.to_document() == {"d": [1, -1], "delta": -1}


@pytest.mark.parametrize("vertex", [-1, 3])
def test_sign_vector_refuses_vertices_outside_d(vertex):
    # a negative vertex used to wrap to the last sign, one past the end to
    # raise a bare IndexError
    with pytest.raises(ParseError):
        SignVector((1, 1, -1)).apply_to_state(PureState(((vertex, 1 + 0j),)))
    with pytest.raises(ParseError):
        SignVector.flipping(3, [vertex])


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


# the benchmark's structure section: (name, kwargs) of its pairplus gadgets
PAIRPLUS_GADGETS = (
    ("p2_twins", {}), ("p2_twins_perturbed", {}),
    ("p2_twins_signed_plusplus", {}), ("p2_twins_signed_pluspair", {}),
    ("c4_quotient", {}), ("p3_twins_spur", {}), ("p3_twins_path", {}),
    ("flyswatter", {}), ("h2p", {"p": 5}), ("h2p", {"p": 6}),
    ("flyswatter", {"tail_len": 0}), ("p3_twins_spur", {"tail_len": 0}),
    ("h2p", {"p": 5, "tail_len": 0}),
)


def _canonical(s: PureState) -> PureState:
    """The pair or plus state a two-point state with real amplitudes of equal
    size stands for, its first amplitude positive."""
    (a, ca), (b, cb) = s.support
    return plus_state(a, b) if (ca.real > 0) == (cb.real > 0) else pair_state(a, b)


def _recertified_variants(g, src, dst, tau):
    """The pair/plus variants by re-solving each one: every variant is kept
    only if its own fidelity at tau is >= 1 - 1e-9."""
    assert fidelity(g, src, dst, tau) >= 1 - 1e-9
    canon = _canonical
    sb, db = canon(src).vertices[1], canon(dst).vertices[1]
    seen, out = set(), []
    for flips in ({sb}, {db}, {sb, db}):
        sv = SignVector.flipping(g.n, flips)
        gt = switch(g, sv)
        src_t = canon(sv.apply_to_state(src))
        dst_t = canon(sv.apply_to_state(dst))
        key = (gt.edges, src_t.support, dst_t.support)
        if key in seen:
            continue
        seen.add(key)
        if src_t.is_parallel_to(src) and dst_t.is_parallel_to(dst) and gt.edges == g.edges:
            continue
        assert fidelity(gt, src_t, dst_t, tau) >= 1 - 1e-9
        out.append((gt, src_t, dst_t))
    return out


@pytest.mark.parametrize("name,kw", PAIRPLUS_GADGETS,
                         ids=[f"{n}{''.join(f'-{k}{v}' for k, v in kw.items())}"
                              for n, kw in PAIRPLUS_GADGETS])
def test_pairplus_matches_the_recertifying_oracle(name, kw):
    gd = named_gadget(name, **kw)
    out = pairplus_transforms(gd.graph, gd.src, gd.dst, gd.tau)
    assert out == _recertified_variants(gd.graph, gd.src, gd.dst, gd.tau)
    assert out
    for gt, src_t, dst_t in out:
        assert gt.tails == gd.graph.tails
        assert fidelity(gt, src_t, dst_t, gd.tau) >= 1 - 1e-9


def test_pairplus_makes_one_spectral_solve(monkeypatch):
    calls = []
    solve = qwalk.signed.fidelity
    monkeypatch.setattr(qwalk.signed, "fidelity",
                        lambda *a, **k: calls.append(a) or solve(*a, **k))
    for gd in (named_gadget("p2_twins"), named_gadget("flyswatter", tail_len=0)):
        calls.clear()
        assert len(pairplus_transforms(gd.graph, gd.src, gd.dst, gd.tau)) == 3
        assert len(calls) == 1


def test_pairplus_reads_nudged_states_as_their_pair_plus_states():
    # amplitudes within 1e-9 of +-1/sqrt2 stand for the exact states, which
    # the input check and every variant use
    gd = named_gadget("p2_twins_signed_pluspair")
    nudge = lambda s: PureState(tuple((v, c + e * math.copysign(1, c.real))
                                      for (v, c), e in zip(s.support, (4e-10, -4e-10))))
    src, dst = nudge(gd.src), nudge(gd.dst)
    assert src != gd.src and dst != gd.dst
    assert (pairplus_transforms(gd.graph, src, dst, gd.tau)
            == pairplus_transforms(gd.graph, gd.src, gd.dst, gd.tau))


def test_pairplus_refuses_a_variant_that_is_not_the_switch(monkeypatch):
    gd = named_gadget("p2_twins")
    switched = qwalk.signed.switch

    def switch_one_more_edge(g, sv):
        gt = switched(g, sv)
        (a, b, w), *rest = gt.edges
        return WeightedGraph(gt.n, ((a, b, -w), *rest), gt.tails)

    with monkeypatch.context() as m:
        m.setattr(qwalk.signed, "switch", switch_one_more_edge)
        with pytest.raises(QwalkError, match="not the switch"):
            pairplus_transforms(gd.graph, gd.src, gd.dst, gd.tau)

    # plus states come out as pair states: the input transfer is pair to
    # pair, so only the switched variants' states are wrong
    pair_or_plus = qwalk.signed._pair_or_plus
    with monkeypatch.context() as m:
        m.setattr(qwalk.signed, "_pair_or_plus",
                  lambda a, b, sign: pair_or_plus(a, b, -1))
        with pytest.raises(QwalkError, match="not the switch"):
            pairplus_transforms(gd.graph, gd.src, gd.dst, gd.tau)
    assert len(pairplus_transforms(gd.graph, gd.src, gd.dst, gd.tau)) == 3


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
