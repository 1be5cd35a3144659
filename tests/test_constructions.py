import numpy as np
import pytest

from qwalk import (
    CayleySpec,
    RootedCollection,
    blow_up,
    cayley,
    complete_graph,
    cycle_graph,
    fiber_sum_state,
    named_gadget,
    one_sum,
    path_graph,
    rooted_product,
)
from qwalk.errors import (
    AsymmetricConnection,
    BadParam,
    IdentityInConnection,
    InvalidRoot,
    UnknownGadget,
)


def test_blow_up_is_kronecker():
    for h, n in ((path_graph(3), 2), (cycle_graph(4), 3)):
        a = blow_up(h, n).core_adjacency()
        np.testing.assert_allclose(
            a, np.kron(np.ones((n, n)), h.core_adjacency()))


def test_blow_up_identity_and_k2():
    assert blow_up(path_graph(4), 1) == path_graph(4)
    # two copies of a single edge give a 4-cycle
    g = blow_up(path_graph(2), 2)
    assert g.edges == ((0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0))


def test_blow_up_spectrum():
    h = cycle_graph(5)
    n = 3
    vals = np.sort(np.linalg.eigvalsh(blow_up(h, n).core_adjacency()))
    base = np.sort(np.linalg.eigvalsh(h.core_adjacency()))
    expected = np.sort(np.concatenate([n * base, np.zeros((n - 1) * h.n)]))
    np.testing.assert_allclose(vals, expected, atol=1e-9)


def test_cayley_cycle_and_cube():
    c6 = cayley(CayleySpec((6,), ((1,), (5,))))
    assert c6 == cycle_graph(6)
    k4 = cayley(CayleySpec((2, 2), ((0, 1), (1, 0), (1, 1))))
    assert k4 == complete_graph(4)


def test_cayley_validation():
    with pytest.raises(IdentityInConnection):
        CayleySpec((4,), ((0,), (1,), (3,)))
    with pytest.raises(AsymmetricConnection):
        CayleySpec((5,), ((1,),))


@pytest.mark.parametrize("moduli, connection", [
    ((4, 4), ((1,), (3,))),              # too short: zip dropped a coordinate
    ((4, 4), ((1, 0, 2), (3, 0, 2))),    # too long: the third never counted
    ((4, True), ((1, 0), (3, 0))),       # a bool is no modulus
    ((4, 4.0), ((1, 0), (3, 0))),
    ((0, 4), ((0, 1), (0, 3))),
    ((), ()),
    ((4,), ((1.5,), (2.5,))),
])
def test_cayley_rejects_malformed_groups(moduli, connection):
    with pytest.raises(BadParam):
        CayleySpec(moduli, connection)


def test_cayley_commutation_over_shared_group():
    rng = np.random.default_rng(9)
    for _ in range(5):
        elems = [(int(x),) for x in rng.choice(range(1, 12), 4, replace=False)]
        conn1 = tuple({e for x in elems[:2] for e in (x, ((-x[0]) % 12,))})
        conn2 = tuple({e for x in elems[2:] for e in (x, ((-x[0]) % 12,))})
        a = cayley(CayleySpec((12,), conn1)).core_adjacency()
        b = cayley(CayleySpec((12,), conn2)).core_adjacency()
        assert np.max(np.abs(a @ b - b @ a)) < 1e-10


def test_one_sum():
    g = one_sum(path_graph(3), path_graph(3), 2, 0)
    assert g == path_graph(5)
    assert one_sum(path_graph(3), path_graph(1), 1, 0) == path_graph(3)
    with pytest.raises(InvalidRoot):
        one_sum(path_graph(3), path_graph(2), 7, 0)


def test_rooted_product_matches_gadget():
    # P_3 host: twin P_3 arms at the ends, infinite tail at the center
    host = path_graph(3)
    rc = RootedCollection(host, {
        0: (path_graph(3), 1),
        1: "tail",
        2: (path_graph(3), 1),
    })
    g = rooted_product(rc)
    gd = named_gadget("p3_twins_spur", tail_len=0)
    a = g.core_adjacency()
    b = gd.graph.core_adjacency()
    assert sorted(np.linalg.eigvalsh(a).round(9)) == \
        sorted(np.linalg.eigvalsh(b).round(9))
    assert len(g.tails) == 1


def test_h2p_matchings_frozen():
    g5 = named_gadget("h2p", p=5).graph
    extra5 = {(a, b) for a, b, _ in g5.edges if abs(a - b) not in (1, 9)}
    assert extra5 == {(1, 8), (2, 9), (3, 6), (4, 7)}
    g6 = named_gadget("h2p", p=6).graph
    extra6 = {(a, b) for a, b, _ in g6.edges if abs(a - b) not in (1, 11)}
    assert extra6 == {(1, 10), (2, 11), (4, 7), (5, 8)}
    g3 = named_gadget("h2p", p=3).graph
    assert len(g3.edges) == 6  # bare C_6, no matching


def test_flyswatter_shape():
    gd = named_gadget("flyswatter", tail_len=4)
    g = gd.graph
    assert g.n == 13
    assert len(g.neighbors(8)) == 4
    assert set(g.neighbors(8)) == {0, 2, 4, 6}


def test_gadget_errors():
    with pytest.raises(UnknownGadget):
        named_gadget("nonsense")
    with pytest.raises(BadParam):
        named_gadget("h2p")
    with pytest.raises(BadParam):
        named_gadget("pn_prime", n=4)


def test_every_transfer_gadget_passes_its_fixture():
    from qwalk import check_pst
    names = ["p2_twins", "p2_twins_perturbed", "p2_twins_signed_plusplus",
             "p2_twins_signed_pluspair", "c4_quotient", "p3_twins_spur",
             "p3_twins_path", "flyswatter"]
    for name in names:
        gd = named_gadget(name)
        rep = check_pst(gd.graph, gd.src, gd.dst, gd.tau)
        assert rep.fidelity >= 1 - 1e-9, name



@pytest.mark.parametrize("build", [
    pytest.param(lambda: cycle_graph(4.0), id="cycle_graph"),
    pytest.param(lambda: path_graph(3.0), id="path_graph"),
    pytest.param(lambda: complete_graph(2.5), id="complete_graph"),
    pytest.param(lambda: blow_up(path_graph(2), 2.0), id="blow_up"),
    pytest.param(lambda: named_gadget("h2p", p=5.0), id="h2p-p"),
    pytest.param(lambda: named_gadget("kn_twin_gadget", n=3.0), id="kn_twin_gadget-n"),
    pytest.param(lambda: named_gadget("pn_prime", n=5.0), id="pn_prime-n"),
    pytest.param(lambda: named_gadget("pn_prime", n=5, tail_len=2.0), id="pn_prime-tail_len"),
    # 0.0 == 0 would otherwise silently select the infinite tail
    pytest.param(lambda: named_gadget("flyswatter", tail_len=0.0), id="flyswatter-tail_len"),
])
def test_non_integer_sizes_are_refused(build):
    with pytest.raises(BadParam):
        build()


@pytest.mark.parametrize("build", [
    # a fractional root passed the range check and glued nothing, leaving
    # the attached graph disconnected
    pytest.param(lambda: one_sum(path_graph(3), path_graph(2), 0, 1.5), id="one_sum-u_h"),
    pytest.param(lambda: one_sum(path_graph(3), path_graph(2), 1.0, 0), id="one_sum-u_g"),
    pytest.param(lambda: named_gadget("p2_twins", h=path_graph(4), h_root=2.5),
                 id="p2_twins-h_root"),
])
def test_non_integer_roots_are_refused(build):
    with pytest.raises(BadParam):
        build()


@pytest.mark.parametrize("args", [
    (2, 2.0, 0),   # was a bare TypeError
    (2, 0, 0),     # was a ZeroDivisionError
    (2, 2, 3),     # vertex 3 went silently into the next copy
    (2, 2, -1),
    (0, 2, 0),
    (2, 2, 0, 2),
    (2, 2, 1, 1),
    (2, 2, 0, 1.0),
])
def test_fiber_sum_state_refuses_bad_input(args):
    with pytest.raises(BadParam):
        fiber_sum_state(*args)
