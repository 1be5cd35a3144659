import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from qwalk import spectral
from qwalk.errors import NonConvergent, TailsRequireTruncation
from qwalk.spectral import (
    AMPLITUDE,
    CURVE_BLOCK,
    MAX_TRUNCATION,
    STATE,
    FidelityCurve,
    SpectralDecomposition,
    _krylov,
    required_truncation,
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


def test_truncation_bound():
    # the whole series, 4 e^x, bounds every tail up to the peak
    np.testing.assert_allclose(truncation_bound(4.0, 1.0, 0), 4 * math.exp(2.0), rtol=1e-15)
    assert truncation_bound(3.0, 1.0, 64) < 1e-50
    assert truncation_bound(3.0, 1.0, 2) > truncation_bound(3.0, 1.0, 8)
    assert truncation_bound(0.0, 5.0, 3) == 0.0
    assert truncation_bound(math.nan, 1.0, 3) == math.inf
    assert truncation_bound(2e6, 1.0, 10) == math.inf


def _bessel(y: float, top: int) -> list[Decimal]:
    """J_0(y), ..., J_top(y) to about 40 digits, for y >= 0: Miller's
    backward recurrence J_{n-1} = (2n/y) J_n - J_{n+1}, started far enough
    above top and y that the start's error has died out, and normalized by
    J_0 + 2 (J_2 + J_4 + ...) = 1 (DLMF 10.12.4 at angle 0)."""
    if y == 0:
        return [Decimal(1)] + [Decimal(0)] * top
    start = max(top, 2 * math.ceil(y)) + 60
    with localcontext() as ctx:
        ctx.prec = 50
        dy, j = Decimal(y), [Decimal(0)] * (start + 2)
        j[start] = Decimal(10) ** -300
        for n in range(start, 0, -1):
            j[n - 1] = 2 * n / dy * j[n] - j[n + 1]
        norm = j[0] + 2 * sum(j[2:start + 1:2])
        return [x / norm for x in j[:top + 1]]


def _bessel_tail(y: float, k: int) -> float:
    """4 sum_{j >= k} |J_j(y)|, to about 30 digits."""
    js = _bessel(y, max(k, 2 * math.ceil(y)) + 40)
    with localcontext() as ctx:
        ctx.prec = 50
        return float(4 * sum(abs(x) for x in js[k:]))


def _factorial_bound(m: float, t: float, order: int) -> float:
    """The tail bound from |J_j(y)| <= (y/2)^j / j! (DLMF 10.14.4) alone:
    truncation_bound may only be sharper, and no depth it certifies deeper."""
    x, k = m * abs(t) / 2.0, order + 1
    if not 0 <= x < math.inf:
        return math.inf
    bound = 4.0 * math.exp(x) * (1 + 4e-16) if x <= 700.0 else math.inf
    if k > x:
        if x == 0:
            return 0.0
        logx = math.log(x)
        exponent = k * logx - math.lgamma(k + 1) - math.log1p(-x / (k + 1))
        if exponent <= 700.0:
            slack = 4e-16 * (k * abs(logx) + math.lgamma(k + 1) + k + 1)
            bound = min(bound, 4.0 * math.exp(exponent) * (1 + slack))
    return bound


def test_bessel_oracle_matches_tabulated_values():
    for n, y, value in ((0, 1.0, 0.7651976865579666), (1, 1.0, 0.44005058574493355),
                        (5, 10.0, -0.2340615281867936), (30, 25.0, 0.01180902612426896),
                        (100, 80.0, 4.606553064823471e-06)):
        assert float(_bessel(y, n)[n]) == pytest.approx(value, rel=1e-14)


@settings(max_examples=150, deadline=None)
@given(x=st.floats(0.0, 600.0), order=st.integers(0, 1500), near=st.booleans())
def test_truncation_bound_covers_the_exact_tail(x, order, near):
    # m = 2, t = x: the Bessel argument m|t| is 2x exactly.  The bound is
    # never below the true tail of the Bessel series, never above the
    # factorial bound alone, and never grows with the order.  `near` puts
    # the order less than 200 above 2x, where Kapteyn's bound is the sharper
    if near:
        order = int(2 * x) + order % 200
    bound = truncation_bound(2.0, x, order)
    assert bound >= _bessel_tail(2 * x, order + 1)
    assert bound <= _factorial_bound(2.0, x, order)
    assert truncation_bound(2.0, x, order + 1) <= bound


@pytest.mark.parametrize("m, t, tol, legs, cap, depth", [
    (3.0, 30.0, 1e-9, AMPLITUDE, MAX_TRUNCATION, 63),
    (4.0, 50.0, 1e-9, AMPLITUDE, MAX_TRUNCATION, 124),
    (3.0, 300.0, 1e-9, STATE, MAX_TRUNCATION, 981),
    (2.0, 1400.0, 1e-9, AMPLITUDE, MAX_TRUNCATION, 1460),
    (2.0, -1400.0, 1e-12, STATE, 2 * MAX_TRUNCATION, 2942),
    # M|t| = 15: here the factorial bound is the sharper, Kapteyn's alone
    # would certify 18
    (3.0, 5.0, 1e-9, AMPLITUDE, MAX_TRUNCATION, 17),
])
def test_required_truncation_keeps_its_depths(m, t, tol, legs, cap, depth, monkeypatch):
    # from Kapteyn's predicted depth, the search evaluates the bound at most
    # 4 times, where bisecting (0, cap] evaluated it 13 times
    calls = []
    monkeypatch.setattr(spectral, "truncation_bound",
                        lambda *args: calls.append(args) or truncation_bound(*args))
    assert required_truncation(m, t, tol, legs, cap) == depth
    assert len(calls) <= 4


@settings(max_examples=100, deadline=None)
@given(m=st.floats(0.5, 8.0), t=st.floats(-3000.0, 3000.0),
       tol=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]), legs=st.sampled_from([STATE, AMPLITUDE]))
def test_no_certified_depth_is_deeper_than_the_factorial_bounds(m, t, tol, legs):
    cap = 4 * MAX_TRUNCATION
    try:
        old = _doubling_truncation(m, t, tol, legs, cap, _factorial_bound)
    except NonConvergent:
        return
    assert required_truncation(m, t, tol, legs, cap) <= old


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


def _doubling_truncation(m, t, tol, legs, cap=MAX_TRUNCATION, bound=truncation_bound):
    """Reference: the search by doubling from L = 1, then bisection."""
    def certified(L):
        return bound(m, t, legs * (L + 1) - 1) < tol

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


def test_krylov_route_on_a_tail_free_graph():
    # no attach vertex to index: P_4's pair state (0, 3) spans a 2-dimensional
    # Krylov space, A (e0 - e3) = e1 - e2, and its curve there is the dense one
    g, u = path_graph(4), pair_state(0, 3)
    x = u.vector(g.n)
    decomp, cert = _krylov(g, x, 10.0, 1e-9)
    assert cert.dim == 2 and cert.L == 0
    dense, _ = transfer_curve(g, u, u, 10.0)
    ts = np.array([0.3, 1.7, 4.2, 9.9])
    np.testing.assert_allclose(FidelityCurve.of(decomp, x, x)(ts), dense(ts),
                               rtol=0, atol=1e-12)


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


def test_two_colouring():
    # C_6 with a pendant and an isolated vertex; each component's smallest
    # vertex is on side 0.  An odd cycle has none.
    g = WeightedGraph(8, tuple((i, (i + 1) % 6, 1.0) for i in range(6)) + ((2, 6, -1.0),))
    assert g.two_colouring.tolist() == [0, 1, 0, 1, 0, 1, 1, 0]
    assert complete_graph(3).two_colouring is None
    assert WeightedGraph(0, ()).two_colouring.size == 0
    # the sides of a truncation: each tail alternates from its attach vertex
    tailed = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)), (TailSpec(1), TailSpec(2, (2.0,))))
    p, q = spectral._sides(tailed, 3)
    assert p.tolist() == [0, 2, 3, 5, 7] and q.tolist() == [1, 4, 6, 8]
    assert spectral._sides(WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)),
                                         (TailSpec(0),)), 2) is None


@st.composite
def bipartite_graphs(draw):
    """A signed bipartite graph with parts of 0 to 7 vertices (the sides
    interleaved by a random labelling) and its biadjacency block B: random
    entries, many of them 0 (isolated vertices and zero singular values),
    or a signed permutation or a rank-one block (repeated singular values);
    one or two tails half of the time."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    assume(rows + cols > 0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "permutation", "rank one"]))
    signs = rng.choice([1.0, -1.0], size=(rows, cols))
    if kind == "random":
        b = rng.choice([0.0, 0.0, 1.0, 2.0, 0.5], size=(rows, cols)) * signs
    elif kind == "permutation":
        b = np.eye(rows, cols)[:, rng.permutation(cols)] * signs
    else:
        b = np.outer(rng.choice([0.0, 1.0, 2.0], rows), rng.choice([0.0, 1.0, -1.0], cols))
    label = rng.permutation(rows + cols)
    edges = tuple((int(label[i]), int(label[rows + j]), float(b[i, j]))
                  for i in range(rows) for j in range(cols) if b[i, j])
    tails = ()
    if draw(st.booleans()):
        tails = tuple(TailSpec(int(rng.integers(rows + cols)),
                               tuple(rng.choice([1.0, -1.0, 2.0], int(rng.integers(3)))))
                      for _ in range(draw(st.integers(1, 2))))
    return WeightedGraph(rows + cols, edges, tails)


@settings(max_examples=80, deadline=None)
@given(g=bipartite_graphs(), t=st.floats(0.1, 4.0), seed=st.integers(0, 2 ** 32 - 1))
def test_bipartite_svd_matches_eigh(g, t, seed):
    # the truncation that _prepare certifies, solved by the SVD of its
    # biadjacency block (at every dimension) and by eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_SVD_MIN_DIM", 0)
        svd, cert = spectral._prepare(g, t, 1e-9, AMPLITUDE)
    a = adjacency(g, cert.L)
    ref = SpectralDecomposition.of(a)
    lam, vecs = svd.eigenvalues, svd.eigenvectors
    tol = 1e-12 * max(1.0, np.linalg.norm(a, 2))
    assert np.all(np.diff(lam) >= 0)
    np.testing.assert_allclose(lam, ref.eigenvalues, rtol=0, atol=tol)
    assert np.linalg.norm(a @ vecs - vecs * lam) <= tol
    assert np.linalg.norm(vecs.T @ vecs - np.eye(len(a))) <= tol
    rng = np.random.default_rng(seed)
    u, v = (np.pad(x / np.linalg.norm(x), (0, len(a) - g.n))
            for x in rng.normal(size=(2, g.n)) + 1j * rng.normal(size=(2, g.n)))
    ts = np.linspace(0.0, t, 7)
    np.testing.assert_allclose(FidelityCurve.of(svd, u, v)(ts), FidelityCurve.of(ref, u, v)(ts),
                               rtol=0, atol=tol)


def test_bipartite_truncations_from_the_crossover_take_the_svd(monkeypatch):
    svd, sizes = np.linalg.svd, []

    def record(a, *args, **kwargs):
        sizes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", record)
    h2p = named_gadget("h2p", p=5, tail_len=0).graph   # bipartite, 13 + L vertices
    _, cert = prepare(h2p, 30.0)
    assert cert.dim >= spectral._SVD_MIN_DIM and sizes
    assert sum(sizes[0]) == cert.dim
    sizes.clear()
    prepare(h2p, 0.5)   # below the crossover: eigh
    prepare(complete_graph(80), 1.0)   # not bipartite: eigh
    assert not sizes
