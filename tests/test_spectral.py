import math

import numpy as np
import pytest

from qwalk import (
    TailSpec,
    WeightedGraph,
    adjacency,
    complete_graph,
    evolve,
    exp_oracle,
    fidelity,
    named_gadget,
    pair_state,
    path_graph,
    prepare,
    sedentary_estimate,
    transfer_amplitude,
    vertex_state,
)
from qwalk.errors import NonConvergent, TailsRequireTruncation
from qwalk.spectral import (
    AMPLITUDE,
    CURVE_BLOCK,
    MAX_TRUNCATION,
    STATE,
    FidelityCurve,
    SpectralDecomposition,
    required_truncation,
    series_tail,
    transfer_curve,
    truncation_bound,
)


def test_adjacency_materializes_tails():
    g = WeightedGraph(2, ((0, 1, 1.0),), (TailSpec(1, (2.0,)),))
    a = adjacency(g, 3)
    assert a.shape == (5, 5)
    assert a[1, 2] == 2.0     # prefix weight
    assert a[2, 3] == 1.0     # unit continuation
    assert a[3, 4] == 1.0
    with pytest.raises(TailsRequireTruncation):
        adjacency(g, 0)


def test_unitary_is_unitary():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6))
    a = (a + a.T) / 2
    u = SpectralDecomposition.of(a).unitary(1.7)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)


def test_p2_transfer_oracle():
    # U(pi/2) maps e_0 to i*e_1 on a single edge
    amp, _ = transfer_amplitude(path_graph(2), vertex_state(0),
                                vertex_state(1), math.pi / 2)
    np.testing.assert_allclose(amp, 1j, atol=1e-12)


def test_p3_end_to_end_oracle():
    f = fidelity(path_graph(3), vertex_state(0), vertex_state(2),
                 math.pi / math.sqrt(2))
    assert f >= 1 - 1e-12


def test_series_tail_and_bound():
    # full series at k0=0 is e^x
    np.testing.assert_allclose(series_tail(2.0, 0), math.exp(2.0), rtol=1e-12)
    assert truncation_bound(3.0, 1.0, 64) < 1e-50
    assert truncation_bound(3.0, 1.0, 2) > truncation_bound(3.0, 1.0, 8)


def test_series_tail_is_an_upper_bound():
    # the geometric remainder keeps the truncated sum above the exact tail
    for x, k0 in ((0.5, 3), (9.6, 10), (40.0, 41), (40.0, 120)):
        exact = math.fsum(math.exp(k * math.log(x) - math.lgamma(k + 1))
                          for k in range(k0, k0 + 2000))
        assert exact <= series_tail(x, k0) <= exact * (1 + 1e-11)
    assert series_tail(math.nan, 3) == math.inf
    assert series_tail(1e6, 10) == math.inf


def test_required_truncation_is_minimal():
    for m, t, tol in ((4.0, 2.0, 1e-9), (4.0, 50.0, 1e-9), (3.0, 30.0, 1e-12),
                      (2.0, 0.1, 1e-6), (2.5, 7.3, 1e-3)):
        for legs in (STATE, AMPLITUDE):
            def bound(L):
                return truncation_bound(m, t, legs * (L + 1) - 1)
            L = required_truncation(m, t, tol, legs)
            assert bound(L) < tol
            assert L == 1 or bound(L - 1) >= tol
            # the cap is inclusive: L itself is allowed, L - 1 is not enough
            assert required_truncation(m, t, tol, legs, cap=L) == L
            if L > 1:
                with pytest.raises(NonConvergent):
                    required_truncation(m, t, tol, legs, cap=L - 1)
    # an amplitude needs roughly half the depth of a state
    assert (required_truncation(4.0, 50.0, 1e-9, AMPLITUDE)
            < 0.6 * required_truncation(4.0, 50.0, 1e-9, STATE))
    with pytest.raises(NonConvergent):
        required_truncation(1e6, 1e6, 1e-9, STATE, cap=64)


def _doubling_truncation(m, t, tol, legs, cap=MAX_TRUNCATION):
    """Reference: the search by doubling from L = 1, then bisection."""
    def certified(L):
        return truncation_bound(m, t, legs * (L + 1) - 1) < tol

    if not certified(cap):
        raise NonConvergent("reference")
    hi = 1
    while not certified(hi):
        hi = min(2 * hi, cap)
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("legs", [STATE, AMPLITUDE])
@pytest.mark.parametrize("m, t, tol, cap", [
    (3.0, 30.0, 1e-9, MAX_TRUNCATION), (3.0, 300.0, 1e-9, MAX_TRUNCATION),
    (2.0, 1400.0, 1e-9, MAX_TRUNCATION), (2.0, -1400.0, 1e-12, 2 * MAX_TRUNCATION),
    # the terms are small from the start: tiny x, or a tolerance above them
    (0.0, 5.0, 1e-9, 64), (1.0, 1e-3, 1e-9, 64), (3.0, 2.0, 1e6, 64),
    (3.0, 2.0, 30.0, 64), (1.0, 0.5, 2.0, 64), (3.0, 30.0, 1e-9, 7),
])
def test_required_truncation_matches_doubling_search(m, t, tol, cap, legs):
    try:
        expected = _doubling_truncation(m, t, tol, legs, cap)
    except NonConvergent:
        with pytest.raises(NonConvergent):
            required_truncation(m, t, tol, legs, cap)
    else:
        assert required_truncation(m, t, tol, legs, cap) == expected


def test_certificate_bound_dominates_observed_drift():
    g = WeightedGraph(2, ((0, 1, 1.0),), (TailSpec(1),))
    t, u, v = 2.0, vertex_state(0), vertex_state(1)
    # the whole state from evolve, against evolve's certificate, in 2-norm
    out, cert = evolve(g, u, t, tol=1e-9)
    dim = 2 + 4 * cert.L
    ref = SpectralDecomposition.of(adjacency(g, 4 * cert.L)).apply(t, u.vector(dim))
    drift = np.linalg.norm(ref - np.pad(out, (0, dim - out.size)))
    assert drift < cert.bound
    # an amplitude between core states, against prepare's certificate
    amp, acert = transfer_amplitude(g, u, v, t, tol=1e-9)
    assert acert.L < cert.L
    dim = 2 + 4 * acert.L
    deep = SpectralDecomposition.of(adjacency(g, 4 * acert.L))
    ref_amp = deep.amplitude_curve(u.vector(dim), v.vector(dim), np.array([t]))[0]
    assert abs(ref_amp - amp) < acert.bound


# the paper's infinite-tail gadgets, with the dimension of their source
# state's Krylov space
KRYLOV_GADGETS = [("flyswatter", None, 3), ("h2p", 5, 2), ("h2p", 6, 3),
                  ("p3_twins_spur", None, 3), ("p3_twins_path", None, 3)]


@pytest.mark.parametrize("name, p, dim", KRYLOV_GADGETS)
def test_krylov_route_spans_the_states_krylov_space(name, p, dim):
    # the route answers on K(u) = span{u, Au, A^2 u, ...}, which never
    # reaches the tail: its dimension is the numerical rank of those vectors
    gd = named_gadget(name, p=p, tail_len=0)
    g = gd.graph
    a = g.core_adjacency()
    (tail,) = g.tails
    krylov = [gd.src.vector(g.n).real]
    for _ in range(g.n - 1):
        krylov.append(a @ krylov[-1])
    _, cert = transfer_curve(g, gd.src, gd.dst, gd.tau)
    assert cert.L == 0
    assert cert.dim == np.linalg.matrix_rank(np.array(krylov)) == dim
    out, scert = evolve(g, gd.src, gd.tau)
    assert scert.L == 0 and scert.dim == dim and out.size == g.n
    assert abs(out[tail.attach]) <= scert.bound


def test_tailed_krylov_query_makes_no_dense_eigh(monkeypatch):
    eigh, sizes = np.linalg.eigh, []

    def record(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", record)
    for name, p, _ in KRYLOV_GADGETS:
        gd = named_gadget(name, p=p, tail_len=0)
        sizes.clear()
        _, cert = transfer_curve(gd.graph, gd.src, gd.dst, gd.tau)
        assert cert.L == 0 and sizes and max(sizes) <= cert.dim < gd.graph.n


def test_krylov_route_on_an_edgeless_core():
    # every product is an empty bincount: the state is an eigenvector
    g = WeightedGraph(3, (), (TailSpec(0),))
    amp, cert = transfer_amplitude(g, pair_state(1, 2), pair_state(1, 2), 2.0)
    assert cert.L == 0 and cert.dim == 1 and abs(amp - 1) < 1e-15
    assert not g.core_adjacency().any()


def test_exp_oracle_matches_spectral():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        t = float(rng.uniform(-3, 3))
        u1 = SpectralDecomposition.of(a).unitary(t)
        u2 = exp_oracle(a, t)
        np.testing.assert_allclose(u1, u2, atol=1e-9)


def test_pair_state_fidelity_symmetry():
    g = path_graph(5)
    u, v = pair_state(0, 4), pair_state(1, 3)
    t = math.pi / 2
    assert abs(fidelity(g, u, v, t) - fidelity(g, v, u, t)) < 1e-12


def _dense_curve(decomp, u, v, ts):
    # the pre-FidelityCurve formula: every eigenvalue, no merging or chunking
    w = np.conj(decomp.eigenvectors.T @ v) * (decomp.eigenvectors.T @ u)
    return np.exp(1j * np.outer(ts, decomp.eigenvalues)) @ w


@pytest.mark.parametrize("name, kwargs, vertex, t_max, max_support", [
    # the pair state sees 3 of the 154 eigenvalues of the truncation
    ("flyswatter", {"tail_len": 0}, None, 50.0, 3),
    # the attach vertex couples to the tail: 76 of the 80 stay (521, the
    # bound below, is what a depth-512 truncation kept of its 522)
    ("h2p", {"p": 5, "tail_len": 0}, 5, 30.0, 521),
])
def test_fidelity_curve_matches_dense_formula(name, kwargs, vertex, t_max,
                                              max_support):
    gd = named_gadget(name, **kwargs)
    src, dst = (gd.src, gd.dst) if vertex is None else (vertex_state(vertex),) * 2
    decomp, _ = prepare(gd.graph, t_max)
    dim = decomp.eigenvalues.size
    u, v = src.vector(dim), dst.vector(dim)
    curve = FidelityCurve.of(decomp, u, v)
    assert curve.eigenvalues.size <= max_support
    ts = np.linspace(0.0, t_max, 2001)
    np.testing.assert_allclose(curve(ts), _dense_curve(decomp, u, v, ts),
                               rtol=0, atol=1e-12)


def test_fidelity_curve_blocks_match_one_product():
    gd = named_gadget("h2p", p=5, tail_len=0)
    decomp, _ = prepare(gd.graph, 30.0)
    dim = decomp.eigenvalues.size
    u = vertex_state(5).vector(dim)
    curve = FidelityCurve.of(decomp, u, u)
    n = 3 * CURVE_BLOCK // curve.eigenvalues.size + 7
    ts = np.linspace(0.0, 30.0, n)
    one = np.exp(1j * np.outer(ts, curve.eigenvalues)) @ curve.weights
    np.testing.assert_allclose(curve(ts), one, rtol=0, atol=1e-13)
    assert curve(ts[5]).shape == (1,)


def test_grid_cuts_baby_steps_and_splits_giant_steps_at_curve_block():
    # 8192 support eigenvalues leave CURVE_BLOCK room for 32 baby steps (not
    # sqrt(2053) = 45), and the 65 giant steps go in blocks of 32: 3 blocks,
    # the last with one giant step
    rng = np.random.default_rng(3)
    size = 8192
    lam = np.sort(rng.uniform(-3.0, 3.0, size))
    w = rng.normal(size=size) + 1j * rng.normal(size=size)
    curve = FidelityCurve(lam, w / np.abs(w).sum())
    count, first, step = 2 * 32 * 32 + 5, 11, 1 / 192
    assert CURVE_BLOCK // size == 32
    np.testing.assert_allclose(curve.grid(step, count, first),
                               curve(np.arange(first, first + count) * step),
                               rtol=0, atol=1e-12)
    assert curve.grid(step, 0).shape == (0,)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_kn_degenerate_eigenspace_merged(n):
    # eigenvalue -1 has multiplicity n-1: its n-1 eigenvectors form one term
    decomp, _ = prepare(complete_graph(n), 10.0)
    u = vertex_state(0).vector(n)
    curve = FidelityCurve.of(decomp, u, u)
    np.testing.assert_allclose(curve.eigenvalues, [-1, n - 1], atol=1e-12)
    np.testing.assert_allclose(curve.weights, [(n - 1) / n, 1 / n], atol=1e-12)
    est = sedentary_estimate(complete_graph(n), vertex_state(0), 10.0)
    assert abs(est.period - 2 * math.pi / n) < 1e-12
    assert abs(est.horizon - est.period) < 1e-12
    assert abs(est.grid_min - (n - 2) / n) < 1e-9
