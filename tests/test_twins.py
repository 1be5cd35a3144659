import numpy as np
import pytest

from qwalk import (
    CayleySpec,
    TwinStructure,
    WeightedGraph,
    blow_up,
    cayley,
    complete_graph,
    compose_signed,
    cycle_graph,
    detect_twin_structures,
    named_gadget,
    path_graph,
    reduced_hamiltonian,
    verify_twin_structure,
)
from qwalk.errors import BadParam, StructureViolation
from qwalk.twins import _row_classes

import twin_records


def test_detect_on_p2_gadget():
    g = named_gadget("p2_twins").graph
    found = {(t.x1, t.x2) for t in detect_twin_structures(g)}
    assert ((0, 1), (4, 3)) in found
    assert len(found) == 1


def test_detect_trivial_twins_in_k2():
    found = detect_twin_structures(path_graph(2))
    assert [(t.x1, t.x2) for t in found] == [((0,), (1,))]


def test_detect_on_flyswatter_excludes_tail_vertex():
    g = named_gadget("flyswatter", tail_len=2).graph
    found = {(t.x1, t.x2) for t in detect_twin_structures(g)}
    assert ((0, 1, 2), (6, 5, 4)) in found
    for x1, x2 in found:
        assert 3 not in x1 + x2  # the handle vertex stays fixed


def test_verify_residuals_small():
    for name in ("p2_twins", "p2_twins_perturbed"):
        g = named_gadget(name).graph
        ts = TwinStructure.of(g, (0, 1), (4, 3))
        bc = verify_twin_structure(g, ts)
        assert bc.max_residual < 1e-9


def test_verify_with_host_graph():
    g = named_gadget("p2_twins", h=path_graph(4)).graph
    bc = verify_twin_structure(g, TwinStructure.of(g, (0, 1), (4, 3)))
    assert bc.max_residual < 1e-9


def test_verify_with_infinite_tail():
    g = named_gadget("flyswatter", tail_len=0).graph
    bc = verify_twin_structure(g, TwinStructure.of(g, (0, 1, 2), (6, 5, 4)))
    assert bc.max_residual < 1e-9


def test_broken_attachment_raises():
    g = named_gadget("p2_twins").graph
    broken = WeightedGraph(g.n, g.edges + ((0, 2, 1.0),))
    with pytest.raises(StructureViolation):
        TwinStructure.of(broken, (0, 1), (4, 3))
    # the same break on the image side: the extra edge hangs off f(0) = 4
    broken = WeightedGraph(g.n, g.edges + ((2, 4, 1.0),))
    with pytest.raises(StructureViolation, match=r"w\(4,2\) != w\(0,2\)"):
        TwinStructure.of(broken, (0, 1), (4, 3))


def test_asymmetric_cross_edge_raises():
    g = named_gadget("p2_twins").graph
    broken = WeightedGraph(g.n, g.edges + ((0, 3, 1.0),))
    with pytest.raises(StructureViolation):
        TwinStructure.of(broken, (0, 1), (4, 3))


def test_reduced_hamiltonian_plain_and_perturbed():
    g = named_gadget("p2_twins").graph
    ts = TwinStructure.of(g, (0, 1), (4, 3))
    np.testing.assert_allclose(reduced_hamiltonian(ts), [[0, 1], [1, 0]])
    gp = named_gadget("p2_twins_perturbed").graph
    tsp = TwinStructure.of(gp, (0, 1), (4, 3))
    np.testing.assert_allclose(reduced_hamiltonian(tsp), np.zeros((2, 2)))


def test_single_vertex_twins_reduced():
    # twin vertices with a cross edge: 1x1 block -A'(0,0)
    g = WeightedGraph(3, ((0, 2, 1.0), (1, 2, 1.0), (0, 1, 1.0)))
    ts = TwinStructure.of(g, (0,), (1,))
    np.testing.assert_allclose(reduced_hamiltonian(ts), [[-1.0]])
    bc = verify_twin_structure(g, ts)
    assert bc.max_residual < 1e-9


def z4z4() -> WeightedGraph:
    """A(Cay(Z4xZ4, {(1,0),(3,0)})) - A(Cay(Z4xZ4, {(0,1),(0,2),(0,3)}))."""
    moduli = (4, 4)
    h = cayley(CayleySpec(moduli, ((1, 0), (3, 0))))
    k = cayley(CayleySpec(moduli, ((0, 1), (0, 2), (0, 3))))
    return compose_signed(h, k)


def z6z4() -> WeightedGraph:
    """A(Cay(Z6xZ4, {(1,0),(5,0)})) - A(Cay(Z6xZ4, {(0,1),(0,2),(0,3)}))."""
    moduli = (6, 4)
    h = cayley(CayleySpec(moduli, ((1, 0), (5, 0))))
    k = cayley(CayleySpec(moduli, ((0, 1), (0, 2), (0, 3))))
    return compose_signed(h, k)


def near_zero_chords() -> WeightedGraph:
    """The 6-cycle with chords {0,3}, {1,4}, {2,5} of weights 1e-13, -1e-13,
    1e-13: every row key holds +0 or -0, and all six rows must class alike."""
    return WeightedGraph(6, cycle_graph(6).edges + (
        (0, 3, 1e-13), (1, 4, -1e-13), (2, 5, 1e-13)))


@pytest.mark.parametrize("graph, recorded", [
    (lambda: blow_up(cycle_graph(8), 2), twin_records.BLOWUP_C8),
    (z4z4, twin_records.Z4Z4),
    (z6z4, twin_records.Z6Z4),
    (lambda: blow_up(cycle_graph(20), 2), twin_records.BLOWUP_C20),
    (lambda: complete_graph(30), twin_records.K30),
    (near_zero_chords, twin_records.NEAR_ZERO_CHORDS),
], ids=["blowup_c8", "z4z4", "z6z4", "blowup_c20", "k30", "near_zero_chords"])
def test_detect_matches_recorded_structures(graph, recorded):
    found = detect_twin_structures(graph())
    assert [(t.x1, t.x2) for t in found] == recorded


@pytest.mark.parametrize("seed", range(6))
def test_row_classes_match_unique_rows(seed):
    # rows drawn from a few values, so that many repeat; -0.0 and +0.0 must
    # class together, as np.unique(axis=0) compares them equal
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, np.inf, 1.0, -1.0, 3e12])
    rows = values[rng.integers(len(values), size=(40, 1 + seed % 4))]
    classes = _row_classes(rows)
    reference = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
    assert np.array_equal(classes[:, None] == classes, reference[:, None] == reference)
    assert (classes[:, None] == classes).sum() > len(rows)  # some rows repeat


def test_detect_pairs_rows_only_if_they_agree_after_rounding():
    # 1+4e-13 and 1+6e-13 are within WEIGHT_TOL but round to different
    # multiples of it: the structure validates, yet detection never pairs 0, 2
    g = WeightedGraph(3, ((0, 1, 1 + 4e-13), (1, 2, 1 + 6e-13)))
    assert detect_twin_structures(g) == []
    ts = TwinStructure.of(g, (0,), (2,))
    assert verify_twin_structure(g, ts).max_residual < 1e-9


def test_detect_long_cycle_has_no_structure():
    # every swap moves a neighbour, so only the prunes keep this search short
    assert detect_twin_structures(cycle_graph(40)) == []


@pytest.mark.parametrize("kwargs", [
    {"cap": -1}, {"cap": 0}, {"cap": 2.5}, {"cap": True}, {"cap": "6"},
    {"max_results": 0}, {"max_results": -3}, {"max_results": 2.5},
    {"max_results": None},
])
def test_detect_rejects_bad_params(kwargs):
    with pytest.raises(BadParam):
        detect_twin_structures(path_graph(4), **kwargs)
