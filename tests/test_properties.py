"""Property-based invariants over randomized inputs."""

import json
import math
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qwalk import (
    Partition,
    PureState,
    SignVector,
    TailSpec,
    TwinStructure,
    WeightedGraph,
    adjacency,
    blow_up,
    build_graph,
    coarsest_equitable,
    complete_graph,
    cycle_graph,
    degree_profile,
    detect_twin_structures,
    evolve,
    exp_oracle,
    fidelity,
    graph_to_document,
    negate_edges,
    pair_state,
    path_graph,
    plus_state,
    reduced_hamiltonian,
    switch,
    transfer_amplitude,
    verify_twin_structure,
    vertex_state,
)
from qwalk.errors import MissingEdge, StructureViolation, Unreached
from qwalk.experiments import find_p5_limb, prufer_decode, random_tree
from qwalk.partition import (
    CELL_SUM_TOL,
    SIGNATURE_QUANTUM,
    EquitableData,
    EquitableFailure,
    _check_on_matrix,
    check_equitable,
)
from qwalk import spectral
from qwalk.spectral import (
    CURVE_BLOCK,
    FidelityCurve,
    SpectralDecomposition,
    required_truncation,
)
from qwalk import transfer
from qwalk.transfer import TIME_RESOLUTION, _exact_period, _refine
from qwalk.twins import CHECK_HORIZON, WEIGHT_TOL
from conftest import random_twin_instance


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    weights = draw(st.lists(
        st.sampled_from([1.0, -1.0, 2.0, 0.5]),
        min_size=len(chosen), max_size=len(chosen)))
    return WeightedGraph(n, tuple((a, b, w)
                                  for (a, b), w in zip(chosen, weights)))


@st.composite
def tailed_instances(draw):
    """A small signed graph with one or two tails (random prefixes), two random
    core states and a time."""
    g = draw(small_graphs())
    weights = st.sampled_from([1.0, -1.0, 2.0, 0.5])
    tails = tuple(
        TailSpec(draw(st.integers(0, g.n - 1)),
                 tuple(draw(st.lists(weights, max_size=2))))
        for _ in range(draw(st.integers(1, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    states = []
    for _ in range(2):
        size = int(rng.integers(1, g.n + 1))
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        amps /= np.linalg.norm(amps)
        verts = rng.permutation(g.n)[:size]
        states.append(PureState(tuple((int(a), complex(c))
                                      for a, c in zip(verts, amps))))
    t = draw(st.floats(-6.0, 6.0))
    return WeightedGraph(g.n, g.edges, tails), states[0], states[1], t


def _deep(g, t, legs):
    # an independent reference: a truncation 4x deeper than the one the
    # truncation route certifies for the same rule, and its depth
    L = 4 * spectral._prepare(g, t, spectral.DEFAULT_TAIL_TOL, legs)[1].L
    return SpectralDecomposition.of(adjacency(g, L)), L


@settings(max_examples=30, deadline=None)
@given(tailed_instances())
def test_certified_amplitude_matches_deeper_truncation(inst):
    g, u, v, t = inst
    amp, cert = transfer_amplitude(g, u, v, t)
    deep, L = _deep(g, t, spectral.AMPLITUDE)
    dim = g.n + L * len(g.tails)
    ref = deep.amplitude_curve(u.vector(dim), v.vector(dim), np.array([t]))[0]
    assert abs(ref - amp) <= cert.bound + 1e-12


@settings(max_examples=30, deadline=None)
@given(tailed_instances())
def test_certified_state_matches_deeper_truncation(inst):
    g, u, _, t = inst
    out, cert = evolve(g, u, t)
    deep, L = _deep(g, t, spectral.STATE)
    dim = g.n + L * len(g.tails)
    # the returned tail vertices sit in blocks of cert.L per tail (none on the
    # Krylov route); place them at their depths in the deeper truncation,
    # zero beyond
    placed = np.zeros(dim, dtype=complex)
    placed[:g.n] = out[:g.n]
    for i in range(len(g.tails)):
        start = g.n + L * i
        placed[start:start + cert.L] = out[g.n + cert.L * i:g.n + cert.L * (i + 1)]
    ref = deep.apply(t, u.vector(dim))
    assert np.linalg.norm(ref - placed) <= cert.bound + 1e-12


def _random_core_state(rng, vectors) -> PureState:
    # a random complex unit combination of the given real core vectors
    coef = rng.normal(size=len(vectors)) + 1j * rng.normal(size=len(vectors))
    vec = coef @ np.asarray(vectors)
    vec /= np.linalg.norm(vec)
    return PureState(tuple((int(x), complex(c)) for x, c in enumerate(vec) if c != 0))


@st.composite
def tailed_twins(draw):
    """A random twin instance with one or two tails (random prefixes) at
    vertices outside the twins, and the generator that drew it."""
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 9)))
    ts = random_twin_instance(rng)
    while ts.graph.n == 2 * len(ts.x1):
        ts = random_twin_instance(rng)
    g, k = ts.graph, len(ts.x1)
    weights = st.sampled_from([1.0, -1.0, 2.0, 0.5])
    tails = tuple(
        TailSpec(draw(st.integers(2 * k, g.n - 1)),
                 tuple(draw(st.lists(weights, max_size=2))))
        for _ in range(draw(st.integers(1, 2))))
    g = WeightedGraph(g.n, g.edges, tails)
    return TwinStructure.of(g, ts.x1, ts.x2), rng


@st.composite
def decoupled_instances(draw):
    """A tailed twin instance, two random states in the span of the twin
    differences e_x - e_f(x), which never reach a tail, states that do reach
    one, and a time."""
    ts, rng = draw(tailed_twins())
    g, tails = ts.graph, ts.graph.tails
    eye = np.eye(g.n)
    diffs = [eye[x] - eye[y] for x, y in zip(ts.x1, ts.x2)]
    u, v = (_random_core_state(rng, diffs) for _ in range(2))
    # one with weight at an attach vertex, and one that reaches it in one step
    coupled = [_random_core_state(rng, diffs + [eye[tails[0].attach]])]
    coupled += [vertex_state(y) for y in g.neighbors(tails[0].attach)[:1]]
    t = draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    return g, u, v, coupled, t


def _fourteen_vertex_twins():
    """A weighted twin instance (x1 = 0, 1, 2 and x2 = 3, 4, 5, a unit tail
    at 6) on which a route that split the core's eigenvectors by a singular
    value threshold counted roundoff at the attach vertex as coupling, and
    fell back to a depth-25 truncation."""
    edges = ((0, 2, 1.0), (0, 7, 1.0), (0, 9, 1.0), (1, 4, 2.0), (1, 5, 1.0),
             (1, 7, 2.0), (1, 11, 0.5), (1, 12, 0.5), (1, 13, 1.0), (2, 4, 1.0),
             (2, 6, 1.0), (2, 8, 1.0), (2, 9, 1.0), (2, 12, 2.0), (3, 5, 1.0),
             (3, 7, 1.0), (3, 9, 1.0), (4, 7, 2.0), (4, 11, 0.5), (4, 12, 0.5),
             (4, 13, 1.0), (5, 6, 1.0), (5, 8, 1.0), (5, 9, 1.0), (5, 12, 2.0),
             (6, 7, 2.0), (6, 8, 2.0), (6, 11, 0.5), (6, 12, 2.0), (6, 13, 2.0),
             (8, 9, 0.5), (9, 13, 2.0), (10, 12, 1.0))
    g = WeightedGraph(14, edges, (TailSpec(6),))

    def twin_state(*amps):  # amplitudes on x1, negated on x2
        return PureState(tuple(enumerate(amps + tuple(-a for a in amps))))

    u = twin_state(-0.3894340368470881 - 0.1365517544653566j,
                   0.3370740462775348 + 0.11724336915099062j,
                   0.44718051124122143 - 0.04857385489817095j)
    v = twin_state(-0.20707696469820308 - 0.27379818622442265j,
                   0.5246299957455218 - 0.2802618383821599j,
                   0.05493135531867797 + 0.1592259389206247j)
    coupled = PureState(tuple(enumerate((
        0.24323759453701857 + 0.5676834854369831j, 0.12388295440991016 - 0.11407124529233427j,
        -0.08430762769778327 + 0.06931225725489971j, -0.24323759453701857 - 0.5676834854369831j,
        -0.12388295440991016 + 0.11407124529233427j, 0.08430762769778327 - 0.06931225725489971j,
        0.2773837250693061 + 0.28223701745034196j))))
    return g, u, v, [coupled, vertex_state(2)], 2.0


@settings(max_examples=25, deadline=None)
@given(decoupled_instances())
@example(_fourteen_vertex_twins())
def test_decoupled_states_take_the_krylov_route(inst):
    g, u, v, coupled, t = inst
    tol = 1e-12
    amp, cert = transfer_amplitude(g, u, v, t, tol)
    out, scert = evolve(g, u, t, tol)
    assert cert.L == 0 and scert.L == 0 and out.size == g.n
    assert cert.dim <= g.n and cert.bound < 1e-9
    # against the truncation route, certified for the same rule and tol
    decomp, tcert = spectral._prepare(g, t, tol, spectral.AMPLITUDE)
    dim = tcert.dim
    ref = decomp.amplitude_curve(u.vector(dim), v.vector(dim), np.array([t]))[0]
    assert abs(ref - amp) <= cert.bound + tcert.bound
    decomp, tcert = spectral._prepare(g, t, tol, spectral.STATE)
    dim = tcert.dim
    placed = np.pad(out, (0, dim - g.n))
    ref = decomp.apply(t, u.vector(dim))
    assert np.linalg.norm(ref - placed) <= scert.bound + tcert.bound
    # against an independent oracle on that truncation, deep enough for the
    # whole state
    ref = exp_oracle(adjacency(g, tcert.L), t) @ u.vector(dim)
    assert abs(np.vdot(v.vector(dim), ref) - amp) <= cert.bound + 1e-12
    assert np.linalg.norm(ref - placed) <= scert.bound + 1e-12
    # states that leak into a tail take the truncation route
    for w in coupled:
        assert transfer_amplitude(g, w, v, t, tol)[1].L > 0
        assert evolve(g, w, t, tol)[1].L > 0


@settings(max_examples=25, deadline=None)
@given(tailed_twins())
def test_tailed_block_bounds_dominate_sampled_residuals(inst):
    # the bounds verify_twin_structure reports dominate the blocks of
    # Q^T U(t) Q sampled at five times up to 2.7, on a truncation certified
    # for the whole state at t = 2.7
    ts, _ = inst
    g, k = ts.graph, len(ts.x1)
    bc = verify_twin_structure(g, ts)
    assert bc.max_residual <= 1e-9
    L = required_truncation(degree_profile(g).m, 2.7, 1e-10, spectral.STATE)
    a = adjacency(g, L)
    dim = a.shape[0]
    bmat = np.zeros((dim, k))
    for i in range(k):
        bmat[ts.x1[i], i] = 1 / math.sqrt(2)
        bmat[ts.x2[i], i] = -1 / math.sqrt(2)
    cells = list(ts.pair_partition().cells) + [(v,) for v in range(g.n, dim)]
    cmat = Partition.of(cells).characteristic_matrix(dim)
    top = reduced_hamiltonian(ts)
    for t in (0.3, 1.0, math.pi / 2, math.pi / math.sqrt(2), 2.7):
        u = exp_oracle(a, t)
        off = max(np.max(np.abs(cmat.T @ u @ bmat)), np.max(np.abs(bmat.T @ u @ cmat)))
        diag = np.max(np.abs(bmat.T @ u @ bmat - exp_oracle(top, t)))
        assert off <= bc.max_residual + 1e-12
        assert diag <= bc.max_residual + 1e-12


@st.composite
def shuffled_signed_graphs(draw):
    """A signed graph on up to 20 vertices whose edges are given in random
    order and orientation."""
    n = draw(st.integers(2, 20))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60))
    edges = tuple(
        (b, a, w) if flip else (a, b, w)
        for (a, b), w, flip in zip(
            chosen,
            draw(st.lists(st.sampled_from([1.0, -1.0, 2.0, -0.5]),
                          min_size=len(chosen), max_size=len(chosen))),
            draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))))
    return WeightedGraph(n, edges)


def _edge_scan_neighbors(g, a):
    # the first definition of neighbors: a scan over every edge
    out = []
    for u, v, _ in g.edges:
        if u == a:
            out.append(v)
        elif v == a:
            out.append(u)
    return sorted(out)


@settings(max_examples=60, deadline=None)
@given(shuffled_signed_graphs())
def test_neighbors_match_edge_scan(g):
    for v in range(-1, g.n + 1):
        assert g.neighbors(v) == _edge_scan_neighbors(g, v)
    assert all(type(x) is int for nbrs in g.adjacency_lists for x in nbrs)


def _limb_reference(g):
    """First centre (vertex order) with two pendant P_2 arms, and its first two
    arms (neighbour order), read off the dense adjacency matrix."""
    a = g.core_adjacency() != 0
    deg = a.sum(axis=1)
    for c in range(g.n):
        arms = []
        for m in np.flatnonzero(a[c]):
            if deg[m] != 2:
                continue
            (leaf,) = [x for x in np.flatnonzero(a[m]) if x != c]
            if deg[leaf] == 1:
                arms.append((int(leaf), int(m)))
        if len(arms) >= 2:
            return arms[0], arms[1]
    return None


@settings(max_examples=80, deadline=None)
@given(st.integers(6, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))))
def test_find_p5_limb_matches_brute_force(tree):
    n, seq = tree
    g = prufer_decode(tuple(seq), n)
    ts = find_p5_limb(g)
    assert (None if ts is None else (ts.x1, ts.x2)) == _limb_reference(g)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_graph_document_roundtrip(g):
    assert build_graph(json.dumps(graph_to_document(g))) == g


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_graphs(), tailed_instances().map(lambda inst: inst[0])),
       st.integers(0, 10 ** 6))
def test_switch_matches_a_validated_build(g, seed):
    # switch skips WeightedGraph's checks and sort; the reference lists the
    # same weights in reverse order with swapped ends, so __init__ must sort
    rng = np.random.default_rng(seed)
    delta = 1 if g.tails else int(rng.choice([-1, 1]))
    sv = SignVector(tuple(int(x) for x in rng.choice([-1, 1], size=g.n)), delta)
    gt = switch(g, sv)
    built = WeightedGraph(g.n, tuple((b, a, delta * sv.d[a] * sv.d[b] * w)
                                     for a, b, w in reversed(g.edges)), g.tails)
    assert gt == built
    assert all(type(w) is float for _, _, w in gt.edges)
    assert gt.weight_map == built.weight_map
    assert np.array_equal(gt.core_adjacency(), built.core_adjacency())


@settings(max_examples=30, deadline=None)
@given(small_graphs(), st.integers(0, 10 ** 6))
def test_switching_covariance(g, seed):
    rng = np.random.default_rng(seed)
    sv = SignVector(tuple(int(x) for x in rng.choice([-1, 1], size=g.n)),
                    int(rng.choice([-1, 1])))
    a, b, *_ = rng.permutation(g.n)[:2]
    u, v = pair_state(int(a), int(b)), plus_state(int(a), int(b))
    t = float(rng.uniform(0.1, 3.0))
    f1 = fidelity(g, u, v, t)
    f2 = fidelity(switch(g, sv), sv.apply_to_state(u), sv.apply_to_state(v),
                  sv.delta * t)
    assert abs(f1 - f2) < 1e-10


@settings(max_examples=30, deadline=None)
@given(small_graphs(), st.integers(0, 10 ** 6))
def test_fidelity_curve_matches_exp_oracle(g, seed):
    rng = np.random.default_rng(seed)
    a = g.core_adjacency()
    u = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    v = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    ts = rng.uniform(-5.0, 5.0, size=4)
    curve = FidelityCurve.of(SpectralDecomposition.of(a), u, v)
    expected = [np.conj(v) @ exp_oracle(a, t) @ u for t in ts]
    np.testing.assert_allclose(curve(ts), expected, rtol=0, atol=1e-9)


def random_curve(size: int, lam_max: float, seed: int) -> FidelityCurve:
    """A curve with `size` random eigenvalues in [-lam_max, lam_max] and random
    complex weights with sum |w| = 1, as for two unit states."""
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(-lam_max, lam_max, size))
    w = rng.normal(size=size) + 1j * rng.normal(size=size)
    return FidelityCurve(lam, w / np.abs(w).sum() if size else w)


curve_args = dict(size=st.integers(0, 60), lam_max=st.floats(0.1, 8.0),
                  seed=st.integers(0, 2 ** 32 - 1),
                  # 16 and 200 cut the baby steps and split the giant steps
                  block=st.sampled_from([1, 16, 200, CURVE_BLOCK]))


def _grid(curve, step, count, first, block):
    with patch.object(spectral, "CURVE_BLOCK", block):
        return curve.grid(step, count, first)


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, 3000), first=st.integers(1, 5000),
       frac=st.floats(1e-3, 1.0), **curve_args)
# 60 x 16 entries: 16 baby steps instead of 50, and 157 giant steps in 10 blocks
@example(size=60, lam_max=4.0, seed=1, count=2500, first=3, frac=1.0, block=960)
def test_grid_matches_pointwise_curve(size, lam_max, seed, count, first, frac, block):
    # k * step * max|lam| <= 1e3
    curve = random_curve(size, lam_max, seed)
    step = frac * 1e3 / ((first + count - 1) * lam_max)
    expected = curve(np.arange(first, first + count) * step)
    got = _grid(curve, step, count, first, block)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, 3000), t_end=st.floats(1.0, 1e4), **curve_args)
@example(size=60, lam_max=4.0, seed=2, count=2500, t_end=1e4, block=960)
def test_grid_matches_pointwise_curve_at_long_horizons(size, lam_max, seed, count,
                                                        t_end, block):
    _long_horizon_grid_matches(size, lam_max, seed, count, t_end, block)


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, 3000), t_end=st.floats(1.0, 1e4), **curve_args)
def test_anchored_tables_match_pointwise_curve_at_long_horizons(size, lam_max, seed, count,
                                                                t_end, block):
    # every table built from anchors and near powers, however small: each
    # entry is the product of two exponentials, within the same roundoff
    with patch.object(spectral, "_PHASE_TABLE_MIN", 0):
        _long_horizon_grid_matches(size, lam_max, seed, count, t_end, block)


def _long_horizon_grid_matches(size, lam_max, seed, count, t_end, block):
    # pgst_witness's grid (step 1/(64 M)) out to t ~ 1e4: the phases carry a
    # roundoff of a few ulps of t * lam, so the tolerance scales with it
    curve = random_curve(size, lam_max, seed)
    step = 1 / (64 * lam_max)
    last = max(count, int(t_end / step))
    first = last - count + 1
    expected = curve(np.arange(first, last + 1) * step)
    got = _grid(curve, step, count, first, block)
    tol = (1e-15 * (1 + last * step * np.abs(curve.eigenvalues).max(initial=0.0))
           * np.abs(curve.weights).sum())
    np.testing.assert_allclose(got, expected, rtol=0, atol=tol)


GOLDEN = (math.sqrt(5.0) - 1) / 2


def _scalar_golden_max(f, lo, hi):
    """Reference: golden section over one bracket with a scalar f, then a
    parabolic polish; the routine that safeguarded Newton replaced.  Returns
    the best of the golden point, the polished point and both ends, as
    _refine does: the polish's difference quotients can land it off a
    maximum that golden section had found, and where f dips inside the
    bracket golden section may converge to the lower end."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > TIME_RESOLUTION:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
    t = (a + b) / 2
    points = [(t, f(t)), (lo, f(lo)), (hi, f(hi))]
    h = min(1e-5 * max(1.0, abs(t)), (hi - lo) / 8)
    if lo + h < t < hi - h:
        fm, f0, fp = f(t - h), f(t), f(t + h)
        denom = fp - 2.0 * f0 + fm
        if denom < 0:
            shift = 0.5 * h * (fm - fp) / denom
            if abs(shift) < h:
                points.append((t + shift, f(t + shift)))
    return max(points, key=lambda p: p[1])


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 30), lam_max=st.floats(0.1, 8.0),
       seed=st.integers(0, 2 ** 32 - 1), brackets=st.integers(1, 40),
       sign=st.sampled_from([1.0, -1.0]))
# the parabolic polish lands 5e-10 off this minimum, 2.8e-11 above it
@example(size=25, lam_max=6.90625, seed=1112, brackets=12, sign=-1.0)
# on bracket 29 |f| dips inside: the maximum is the left end, while golden
# section converges to the lower right end
@example(size=18, lam_max=2.748456556019053, seed=148224, brackets=30, sign=1.0)
# bracket 19 starts downhill: sign * g'/2 is -1.3e-4, +8.7e-5 and -6.8e-5 at
# lo, mid and hi, and its maximum inside [mid, hi] must still be refined
@example(size=12, lam_max=6.34765625, seed=164, brackets=25, sign=1.0)
def test_newton_refinement_beats_grid_and_matches_golden(size, lam_max, seed,
                                                         brackets, sign):
    curve = random_curve(size, lam_max, seed)
    rng = np.random.default_rng(seed)
    # brackets up to 8 scan steps of 1/(64 M) wide, some reaching t = 0
    lo = np.where(rng.random(brackets) < 0.2, TIME_RESOLUTION,
                  rng.uniform(0.0, 60.0, brackets))
    hi = lo + rng.uniform(TIME_RESOLUTION, 1 / (8 * lam_max), brackets)
    ts, fs = _refine(curve, lo, hi, sign)
    np.testing.assert_allclose(fs, curve(ts), rtol=0, atol=1e-15)
    assert np.all((lo <= ts) & (ts <= hi))
    values = sign * np.abs(fs)
    scale = np.abs(curve.weights).sum()
    # golden section stops up to TIME_RESOLUTION short of an end maximum,
    # where the value still changes by up to sum |w lam| per unit time
    slack = TIME_RESOLUTION * np.abs(curve.weights * curve.eigenvalues).sum()
    for i in range(brackets):
        grid = sign * np.abs(curve(np.linspace(lo[i], hi[i], 2001)))
        assert values[i] >= grid.max() - 1e-14 * scale
        _, f_ref = _scalar_golden_max(lambda t: sign * abs(curve(t)[0]), lo[i], hi[i])
        assert f_ref - 1e-12 <= values[i] <= f_ref + 1e-12 + slack


def _grid_scans():
    """Patch FidelityCurve.grid to record (curve, count) per call."""
    scans = []
    grid = FidelityCurve.grid

    def recorded(self, step, count, first=1):
        scans.append((self, count))
        return grid(self, step, count, first)

    return scans, patch.object(FidelityCurve, "grid", recorded)


def _sedentary_scan(curve, horizon):
    """sedentary_estimate on `curve` (M = 1), walked on the grid (a two-point
    curve too), and the point count of its scan.  The curve is injected where
    sedentary_estimate builds its own, FidelityCurve.of, and every grid
    evaluation must be of it."""
    scans, recording = _grid_scans()
    with recording, patch.object(FidelityCurve, "of", lambda *args: curve), \
            patch.object(transfer, "_cosine", lambda curve: None):
        est = transfer.sedentary_estimate(path_graph(2), vertex_state(0), horizon)
    assert scans and all(scanned is curve for scanned, _ in scans)
    return est, sum(count for _, count in scans)


def _lowest_points_min(curve, horizon, count):
    """Reference: the sedentary rule that refined the 32 lowest points of a
    `count`-point grid, several of them often in one basin."""
    step = horizon / count
    f = np.abs(curve.grid(step, count))
    lows = (np.argpartition(f, 32)[:32] + 1) * step
    _, amps = _refine(curve, np.maximum(lows - step, TIME_RESOLUTION),
                      np.minimum(lows + step, horizon), sign=-1.0)
    return min(float(f.min()), float(np.abs(amps).min()))


def _phase_roundoff(curve, horizon):
    """The roundoff of |f| from the phases t * lam at t <= horizon."""
    return (1e-15 * (1 + horizon * np.abs(curve.eigenvalues).max())
            * np.abs(curve.weights).sum())


@settings(max_examples=30, deadline=None)
@given(size=st.integers(1, 30), lam_max=st.floats(0.1, 8.0),
       seed=st.integers(0, 2 ** 32 - 1), horizon=st.floats(1.0, 300.0))
def test_sedentary_basins_reach_no_higher_than_lowest_points(size, lam_max, seed,
                                                             horizon):
    # every basin the lowest points lie in has its minimum point among the 32
    # lowest local minima, so refining the basins can only lower grid_min
    curve = random_curve(size, lam_max, seed)
    est, count = _sedentary_scan(curve, horizon)
    reference = _lowest_points_min(curve, est.horizon, count)
    # one basin's minimum, evaluated at two points within TIME_RESOLUTION of
    # each other, differs by the roundoff of the phases t * lam
    assert est.grid_min <= reference + _phase_roundoff(curve, est.horizon)


@settings(max_examples=30, deadline=None)
@given(size=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1),
       horizon=st.floats(1.0, 300.0))
def test_sedentary_scan_is_within_its_step_bound(size, seed, horizon):
    # g = |f|^2 has |g''| <= spread^2 S^2 (spread = lam_max - lam_min,
    # S = sum |w|).  The minimum of g over [h, horizon] is a grid point, or
    # lies within h/2 of one where g' = 0; so the grid minimum's square
    # exceeds it by at most spread^2 S^2 h^2 / 8, whatever refinement adds
    curve = random_curve(size, 1.0, seed)  # |lam| <= 1 = M of P_2
    period = _exact_period(curve.eigenvalues)
    assume(period is None or period <= 300.0)  # a short reference grid
    est, count = _sedentary_scan(curve, horizon)
    h = est.horizon / count
    # reference: every local minimum of a 4x finer grid on [h, horizon],
    # refined without leaving it
    fine = h / 4
    f = np.abs(curve.grid(fine, 4 * count - 3, first=4))
    ext = np.concatenate(([np.inf], f, [np.inf]))
    mins = (np.flatnonzero((f <= ext[:-2]) & (f <= ext[2:])) + 4) * fine
    _, amps = _refine(curve, np.maximum(mins - fine, h),
                      np.minimum(mins + fine, est.horizon), sign=-1.0)
    ref = min(float(f.min()), float(np.abs(amps).min()))
    lam, scale = curve.eigenvalues, np.abs(curve.weights).sum()
    bound = (lam.max() - lam.min()) ** 2 * scale ** 2 * h ** 2 / 8
    # squares of values <= 1, each off by the phase roundoff
    assert est.grid_min ** 2 <= ref ** 2 + bound + 4 * _phase_roundoff(curve, est.horizon)


def _fraction_period(support):
    """Reference: _exact_period with one Fraction.limit_denominator(1000)
    per eigenvalue ratio."""
    vals = support[np.diff(support, prepend=-np.inf) > 1e-8]
    if vals.size < 2:
        return None
    diffs = vals[1:] - vals[0]
    f0 = diffs[0]
    fracs = []
    for d in diffs:
        fr = Fraction(d / f0).limit_denominator(1000)
        if abs(d / f0 - fr) > 1e-9:
            return None
        fracs.append(fr)
    q = math.lcm(*(fr.denominator for fr in fracs))
    if q > 10 ** 6:
        return None
    gg = math.gcd(*(fr.numerator * (q // fr.denominator) for fr in fracs))
    period = 2 * math.pi * q / (f0 * gg)
    return period if period < 1e6 else None


@settings(max_examples=300, deadline=None)
@given(offset=st.floats(-3.0, 3.0), scale=st.floats(0.01, 5.0),
       ratios=st.lists(st.tuples(st.integers(1, 10 ** 6), st.integers(1, 1200)),
                       max_size=6),
       # off p/q by about the 1e-9 fit tolerance, or by far more
       shift=st.sampled_from([0.0, 0.5e-9, 0.999e-9, 1.001e-9, 2e-9, 1e-6, math.sqrt(2)]),
       sign=st.sampled_from([1.0, -1.0]))
def test_exact_period_matches_the_fraction_loop(offset, scale, ratios, shift, sign):
    # the vectorised rejection of an irrational ratio changes no period
    x = [0.0, 1.0] + [1.0 + p / q + sign * shift for p, q in ratios]
    support = np.sort(offset + scale * np.array(x))
    assert transfer._exact_period(support) == _fraction_period(support)


@st.composite
def one_sided_instances(draw):
    """A bipartite host (a random tree or an even cycle, with no tail or one
    unit tail), a real state on one side of it (a vertex, pair or plus
    state) and a horizon."""
    if draw(st.booleans()):
        g = random_tree(draw(st.integers(2, 9)), draw(st.integers(0, 10 ** 6)))
    else:
        g = cycle_graph(2 * draw(st.integers(2, 5)))
    tails = tuple(TailSpec(draw(st.integers(0, g.n - 1)))
                  for _ in range(draw(st.integers(0, 1))))
    g = WeightedGraph(g.n, g.edges, tails)
    a = draw(st.integers(0, g.n - 1))
    side = g.two_colouring
    same = [b for b in range(g.n) if b != a and side[b] == side[a]]
    kind = draw(st.sampled_from([vertex_state, pair_state, plus_state]))
    u = vertex_state(a)
    if kind is not vertex_state and same:
        u = kind(a, draw(st.sampled_from(same)))
    return g, u, draw(st.floats(0.5, 8.0))


@settings(max_examples=40, deadline=None)
@given(one_sided_instances())
def test_a_zero_proven_by_sign_change_is_the_refined_minimum(inst):
    # a real curve: a proven zero is what the refinement of the lowest basins
    # finds, within twice the curve's error E; with no zero proven, the
    # estimate is the refinement's, bit for bit
    g, u, horizon = inst
    assert transfer._one_sided(g, u)
    errors, error = [], transfer._curve_error
    with patch.object(transfer, "_curve_error",
                      lambda *args: errors.append(error(*args)) or errors[-1]):
        est = transfer.sedentary_estimate(g, u, horizon)
    with patch.object(transfer, "_one_sided", lambda g, u: False):
        old = transfer.sedentary_estimate(g, u, horizon)
    if est.bracket is None:
        assert est == old
        return
    (err,) = errors
    lo, hi = est.bracket
    assert est.grid_min == 0.0 and 0 < lo < hi <= est.horizon
    assert (est.horizon, est.period) == (old.horizon, old.period)
    assert old.bracket is None and old.grid_min <= 2 * err


def _pgst_outcome(curve, dst, target, t_cap, window):
    """pgst_witness on `curve` (M = 1) from windows of `window` points
    doubling up to PGST_WINDOW: (tau, fidelity), or (None, best fidelity)."""
    with patch.object(transfer, "transfer_curve", lambda *args: (curve, None)), \
            patch.object(transfer, "GRID_FLOOR", window):
        try:
            rep = transfer.pgst_witness(path_graph(2), vertex_state(0), dst,
                                        target, t_cap)
        except Unreached as exc:
            return None, exc.best_fidelity
    return rep.tau, rep.fidelity


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 30), lam_max=st.floats(0.1, 2.0),
       seed=st.integers(0, 2 ** 32 - 1), t_cap=st.floats(1.0, 300.0),
       target=st.floats(0.3, 0.99), dst=st.sampled_from([0, 1]),
       # 16 and 256 cut the grid into many more windows than GRID_FLOOR does
       window=st.sampled_from([16, 256, transfer.GRID_FLOOR]))
def test_doubling_pgst_scan_matches_one_window(size, lam_max, seed, t_cap, target,
                                              dst, window):
    # dst 0 is the source itself: the initial plateau is skipped first
    curve = random_curve(size, lam_max, seed)
    args = curve, vertex_state(dst), target, t_cap
    with patch.object(transfer, "PGST_WINDOW", 1 << 16):  # > 64 * t_cap
        tau, fid = _pgst_outcome(*args, 1 << 16)
    got_tau, got_fid = _pgst_outcome(*args, window)
    # the windows evaluate the same grid points to within the roundoff of the
    # phases t * lam
    tol = (1e-15 * (1 + t_cap * np.abs(curve.eigenvalues).max())
           * np.abs(curve.weights).sum())
    assert abs(got_fid - fid) <= tol
    assert (got_tau is None) == (tau is None)
    if tau is not None and abs(got_tau - tau) > 1e-12:
        # only a run whose maxima tie within that roundoff (a curve of
        # constant modulus, or equal periodic maxima) may be refined at
        # another of its maxima
        lo, hi = sorted((got_tau, tau))
        between = np.abs(curve(np.arange(math.ceil(lo * 64), hi * 64) / 64))
        assert between.min() >= target - 0.005 - tol


def _two_point_answers(curve, horizon, target, closed):
    """search_pst (u != v and u = v), pgst_witness (the same) and
    sedentary_estimate on `curve` (M = 1), with the closed form for a single
    cosine on or off: report lists, (tau, fidelity) or best fidelity, and the
    estimate."""
    g, u, v = path_graph(2), vertex_state(0), vertex_state(1)

    def pgst(dst):
        try:
            rep = transfer.pgst_witness(g, u, dst, target, horizon)
        except Unreached as exc:
            return None, exc.best_fidelity
        return rep.tau, rep.fidelity

    with patch.object(transfer, "transfer_curve", lambda *args: (curve, None)), \
            patch.object(FidelityCurve, "of", lambda *args: curve), \
            patch.object(transfer, "_cosine", transfer._cosine if closed else lambda c: None):
        return ([transfer.search_pst(g, u, dst, horizon) for dst in (v, u)],
                [pgst(dst) for dst in (v, u)],
                transfer.sedentary_estimate(g, u, horizon))


@settings(max_examples=60, deadline=None)
@given(lam=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1.0, 0.97]),
       horizon=st.floats(0.5, 300.0), target=st.floats(0.3, 0.99))
def test_two_point_curves_answer_in_closed_form_as_on_the_grid(lam, seed, scale,
                                                               horizon, target):
    # a two-point curve is one cosine: the closed form finds the grid's
    # extrema and refines them to the same answers
    assume(abs(lam[1] - lam[0]) >= 1e-3)
    w = random_curve(2, 1.0, seed).weights * scale  # sum |w| = scale
    assume(2 * abs(w[0] * w[1]) >= 1e-6)
    curve = FidelityCurve(np.array(lam), w)
    closed = _two_point_answers(curve, horizon, target, True)
    grid = _two_point_answers(curve, horizon, target, False)
    for got, ref in zip(closed[0], grid[0]):
        assert [r.kind for r in got] == [r.kind for r in ref]
        for a, b in zip(got, ref):
            assert abs(a.tau - b.tau) <= 1e-9
            assert abs(a.fidelity - b.fidelity) <= 1e-12
    for (tau, fid), (ref_tau, ref_fid) in zip(closed[1], grid[1]):
        assert (tau is None) == (ref_tau is None)
        assert tau is None or abs(tau - ref_tau) <= 1e-9
        assert abs(fid - ref_fid) <= 1e-12
    est, ref = closed[2], grid[2]
    assert (est.horizon, est.period) == (ref.horizon, ref.period)
    assert abs(est.grid_min - ref.grid_min) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_coarsest_equitable_is_equitable_and_idempotent(g):
    ed = coarsest_equitable(g, Partition.single(g.n))
    assert not isinstance(check_equitable(g, ed.partition), EquitableFailure)
    again = coarsest_equitable(g, ed.partition)
    assert again.partition == ed.partition


def _matchings(vertices: list[int]):
    """Every set of disjoint pairs (u, v), u < v, on the vertices."""
    if not vertices:
        yield ()
        return
    first, rest = vertices[0], vertices[1:]
    yield from _matchings(rest)
    for k, v in enumerate(rest):
        for m in _matchings(rest[:k] + rest[k + 1:]):
            yield ((first, v),) + m


def _brute_force_twins(g: WeightedGraph, cap: int) -> list:
    """Every non-empty matching of at most cap pairs, off the tail-attach
    vertices, whose swap maps the adjacency onto itself, sorted by pairs."""
    a = g.core_adjacency()
    attached = {t.attach for t in g.tails}
    found = []
    for m in _matchings([v for v in range(g.n) if v not in attached]):
        if not 0 < len(m) <= cap:
            continue
        perm = list(range(g.n))
        for u, v in m:
            perm[u], perm[v] = v, u
        if np.max(np.abs(a[np.ix_(perm, perm)] - a)) <= WEIGHT_TOL:
            found.append(tuple(sorted(m)))
    return sorted(found)


@st.composite
def maybe_tailed_graphs(draw):
    g = draw(small_graphs())
    attach = draw(st.lists(st.integers(0, g.n - 1), max_size=2, unique=True))
    return WeightedGraph(g.n, g.edges, tuple(TailSpec(x, ()) for x in attach))


def _pairs(found) -> list:
    return [tuple(zip(t.x1, t.x2)) for t in found]


@settings(max_examples=60, deadline=None)
@given(maybe_tailed_graphs(), st.integers(1, 4))
@example(complete_graph(7), 3)
@example(blow_up(cycle_graph(4), 2), 4)
@example(WeightedGraph(6, complete_graph(6).edges, (TailSpec(2, ()),)), 3)
def test_twin_detection_matches_brute_force(g, cap):
    assert _pairs(detect_twin_structures(g, cap, 10 ** 6)) == _brute_force_twins(g, cap)


@settings(max_examples=60, deadline=None)
@given(maybe_tailed_graphs(), st.integers(1, 40), st.integers(1, 3))
@example(complete_graph(8), 17, 2)
def test_twin_detection_truncates_and_caps_in_order(g, k, cap):
    full = _pairs(detect_twin_structures(g, g.n, 10 ** 6))
    assert _pairs(detect_twin_structures(g, g.n, k)) == full[:k]
    assert (_pairs(detect_twin_structures(g, cap, 10 ** 6))
            == [p for p in full if len(p) <= cap])


def _shallow(g: WeightedGraph) -> np.ndarray:
    # each tail materialized 2 vertices past its prefix, as the twin and
    # partition checks once did to decide questions about the infinite graph
    return adjacency(g, 2 + max((len(t.prefix) for t in g.tails), default=0))


def _shallow_block_residual(g: WeightedGraph, ts: TwinStructure) -> float:
    """CHECK_HORIZON ||A B - B T||_F on the shallow truncation, with T built
    entry by entry from the weights."""
    a = _shallow(g)
    k = len(ts.x1)
    bcols = np.zeros((a.shape[0], k))
    for i in range(k):
        bcols[ts.x1[i], i] = 1 / math.sqrt(2)
        bcols[ts.x2[i], i] = -1 / math.sqrt(2)
    top = np.array([[g.weight(u, v) - g.weight(u, w) for v, w in zip(ts.x1, ts.x2)]
                    for u in ts.x1])
    return CHECK_HORIZON * float(np.linalg.norm(a @ bcols - bcols @ top))


@settings(max_examples=60, deadline=None)
@given(maybe_tailed_graphs())
@example(blow_up(cycle_graph(4), 2))
@example(WeightedGraph(6, complete_graph(6).edges, (TailSpec(2, ()),)))
def test_detected_twins_have_equitable_orbits_and_core_residuals(g):
    # the swap is an automorphism, so its orbit partition is equitable and
    # refinement never splits a pair; no attach vertex is paired, so the
    # residual on the core is the residual with the tails materialized
    for ts in detect_twin_structures(g):
        p = ts.pair_partition()
        assert isinstance(check_equitable(g, p), EquitableData)
        assert coarsest_equitable(g, p).partition == p
        bc = verify_twin_structure(g, ts)
        assert abs(bc.max_residual - _shallow_block_residual(g, ts)) <= 1e-15


@st.composite
def attach_singleton_partitions(draw):
    """A small graph with one or two tails (random prefixes) and a partition
    of its core with every attach vertex a singleton: random cells, or their
    coarsest equitable refinement, so that equitable partitions are common."""
    g = draw(small_graphs())
    weights = st.sampled_from([1.0, -1.0, 2.0, 0.5])
    tails = tuple(
        TailSpec(draw(st.integers(0, g.n - 1)),
                 tuple(draw(st.lists(weights, max_size=2))))
        for _ in range(draw(st.integers(1, 2))))
    g = WeightedGraph(g.n, g.edges, tails)
    attached = {t.attach for t in tails}
    labels = draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    cells: dict[int, list[int]] = {}
    for v in range(g.n):
        cells.setdefault(-1 - v if v in attached else labels[v], []).append(v)
    p = Partition.of(cells.values())
    if draw(st.booleans()):
        p = coarsest_equitable(g, p).partition
    return g, p


@settings(max_examples=100, deadline=None)
@given(attach_singleton_partitions())
def test_core_equitability_decides_the_tailed_graph(inst):
    # oracle: equitability on the shallow truncation with every tail vertex
    # a singleton cell
    g, p = inst
    a = _shallow(g)
    ext = Partition.of(list(p.cells) + [(v,) for v in range(g.n, a.shape[0])])
    assert (isinstance(check_equitable(g, p), EquitableFailure)
            == isinstance(_check_on_matrix(a, ext), EquitableFailure))


def _check_by_cells(a: np.ndarray, p: Partition):
    """_check_on_matrix as a loop over cells and vertices: the constants,
    or the failure of the first vertex, in (cell, vertex) order, whose sums
    differ from its cell's first vertex, at its first column."""
    n = a.shape[0]
    d = len(p.cells)
    sums = np.zeros((n, d))
    for k, cell in enumerate(p.cells):
        sums[:, k] = a[:, list(cell)].sum(axis=1)
    constants = np.zeros((d, d))
    for j, cell in enumerate(p.cells):
        ref = cell[0]
        constants[j] = sums[ref]
        for v in cell[1:]:
            bad = np.nonzero(np.abs(sums[v] - sums[ref]) > CELL_SUM_TOL)[0]
            if bad.size:
                return EquitableFailure(j, int(bad[0]), ref, v)
    return constants


def _coarsest_by_cells(a: np.ndarray, seed: Partition) -> Partition:
    """coarsest_equitable's partition by splitting each cell, vertex by
    vertex, on its sums into the last round's cells, until none splits."""
    cells = [list(c) for c in seed.cells]
    changed = True
    while changed:
        changed = False
        new_cells: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sigs: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple(int(round(a[v, other].sum() / SIGNATURE_QUANTUM))
                            for other in cells)
                sigs.setdefault(sig, []).append(v)
            if len(sigs) > 1:
                changed = True
            for sig in sorted(sigs):
                new_cells.append(sigs[sig])
        cells = new_cells
    return Partition.of(cells)


DYADIC = st.sampled_from([1.0, -1.0, 2.0, 0.5])
DECIMAL = st.sampled_from([0.1, -0.3, 0.7, 1.1, -2.2])


@st.composite
def seeded_graphs(draw):
    """A graph on 0 to 9 vertices with dyadic, decimal or arbitrary weights,
    0 to 2 tails, and a seed partition with every attach vertex a singleton
    (random cells, or one cell besides those); and whether every weighted
    sum is exact in floating point."""
    n = draw(st.integers(0, 9))
    exact = draw(st.booleans())
    arbitrary = st.floats(-3.0, 3.0).filter(lambda w: abs(w) > 1e-3)
    weights = DYADIC if exact else draw(st.sampled_from([DECIMAL, arbitrary]))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple((a, b, draw(weights)) for a, b in chosen)
    attach = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)) if n else []
    tails = tuple(TailSpec(x, tuple(draw(st.lists(DYADIC, max_size=2)))) for x in attach)
    labels = draw(st.lists(st.integers(0, draw(st.integers(0, 3))), min_size=n, max_size=n))
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(-1 - v if v in attach else labels[v], []).append(v)
    return WeightedGraph(n, edges, tails), Partition.of(cells.values()), exact


def _same_constants(got: np.ndarray, ref: np.ndarray, exact: bool) -> None:
    # with exact sums every order of summation gives the same bits; else the
    # product may sum a row in another order than the loop over cells
    assert got.shape == ref.shape
    if exact:
        assert got.tobytes() == ref.tobytes()
    else:
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)


@settings(max_examples=300, deadline=None)
@given(seeded_graphs())
@example((path_graph(9), Partition.single(9), True))
@example((WeightedGraph(0, ()), Partition.of([]), True))
@example((blow_up(cycle_graph(4), 2), Partition.single(8), True))
def test_refinement_matches_the_loops_over_cells(inst):
    g, p, exact = inst
    a = g.core_adjacency()
    got, ref = _check_on_matrix(a, p), _check_by_cells(a, p)
    if isinstance(ref, EquitableFailure):
        assert got == ref
    else:
        _same_constants(got, ref, exact)
    ed = coarsest_equitable(g, p)
    assert ed.partition == _coarsest_by_cells(a, p)
    _same_constants(ed.constants, _check_by_cells(a, ed.partition), exact)


@settings(max_examples=100, deadline=None)
@given(maybe_tailed_graphs(), st.data())
def test_negate_edges_matches_the_validating_constructor(g, data):
    # present edges either way round, repeated, and now and then a pair
    # with no edge
    listed = data.draw(st.lists(st.sampled_from(
        [(a, b) for a, b, _ in g.edges] + [(b, a) for a, b, _ in g.edges]
        + [(a, b) for a in range(g.n) for b in range(g.n) if a != b]), max_size=6))
    if any(g.weight(a, b) == 0 for a, b in listed):
        with pytest.raises(MissingEdge):
            negate_edges(g, listed)
        return
    counts = Counter(tuple(sorted(e)) for e in listed)
    odd = {key for key, count in counts.items() if count % 2}
    ref = WeightedGraph(g.n, tuple((a, b, -w if (a, b) in odd else w)
                                   for a, b, w in g.edges), g.tails)
    assert negate_edges(g, listed) == ref


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_unitarity_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    a = rng.normal(size=(n, n))
    a = (a + a.T) / 2
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    u /= np.linalg.norm(u)
    out = SpectralDecomposition.of(a).apply(float(rng.uniform(-5, 5)), u)
    assert abs(np.linalg.norm(out) - 1) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_twin_transport_matches_reduced_hamiltonian(seed):
    rng = np.random.default_rng(seed)
    ts = random_twin_instance(rng)
    g = ts.graph
    k = len(ts.x1)
    red = SpectralDecomposition.of(reduced_hamiltonian(ts))
    big = SpectralDecomposition.of(g.core_adjacency())
    bmat = np.zeros((g.n, k))
    for i in range(k):
        bmat[ts.x1[i], i] = 1 / math.sqrt(2)
        bmat[ts.x2[i], i] = -1 / math.sqrt(2)
    for _ in range(3):
        u = rng.normal(size=k)
        u /= np.linalg.norm(u)
        v = rng.normal(size=k)
        v /= np.linalg.norm(v)
        t = float(rng.uniform(0.1, 4.0))
        f_small = abs(v @ red.unitary(t) @ u)
        f_big = abs((bmat @ v) @ big.unitary(t) @ (bmat @ u))
        assert abs(f_small - f_big) < 1e-9


def _validate_by_slices(ts: TwinStructure) -> None:
    """Reference: the three double loops that checked the swap one slice at a
    time (X1 onto X2, the outside attachment with the tails, the cross
    edges), after the same checks of sizes, disjointness and range."""
    g, x1, x2 = ts.graph, ts.x1, ts.x2
    if len(x1) != len(x2) or len(set(x1) | set(x2)) != 2 * len(x1):
        raise StructureViolation("sizes")
    if not all(0 <= v < g.n for v in x1 + x2):
        raise StructureViolation("range")
    inside = set(x1) | set(x2)
    for i, a in enumerate(x1):
        for j, b in enumerate(x1):
            if abs(g.weight(x2[i], x2[j]) - g.weight(a, b)) > WEIGHT_TOL:
                raise StructureViolation("isomorphism")
    nbrs = g.adjacency_lists
    for i, a in enumerate(x1):
        for y in sorted(set(nbrs[a]).union(nbrs[x2[i]]) - inside):
            if abs(g.weight(x2[i], y) - g.weight(a, y)) > WEIGHT_TOL:
                raise StructureViolation("outside attachment")
        for t in g.tails:
            if (t.attach == a) != (t.attach == x2[i]):
                raise StructureViolation("tail")
    for i, a in enumerate(x1):
        for j, b in enumerate(x1):
            if abs(g.weight(a, x2[j]) - g.weight(x2[i], b)) > WEIGHT_TOL:
                raise StructureViolation("cross edge")


def _refuses(check, ts: TwinStructure) -> bool:
    try:
        check(ts)
    except StructureViolation:
        return True
    return False


@st.composite
def perturbed_twins(draw):
    """A planted twin instance with up to three weights moved (by less than,
    about, or more than WEIGHT_TOL; an edge can appear or vanish), half of
    them between twins, and with probability 1/4 each: a tail anywhere, x2
    reordered, one listed vertex replaced (perhaps by one off the core)."""
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 9)))
    ts = random_twin_instance(rng)
    n, x1, x2 = ts.graph.n, list(ts.x1), list(ts.x2)

    def end() -> int:
        return int(rng.choice(x1 + x2) if rng.random() < 0.5 else rng.integers(n))

    weights = {(a, b): w for a, b, w in ts.graph.edges}
    for _ in range(rng.integers(4)):
        a, b = sorted((end(), end()))
        if a != b:
            w = weights.pop((a, b), 0.0)
            w += rng.choice([4e-13, -9e-13, 1e-12, 2e-12, 0.5, -1.0, -w])
            if w != 0:
                weights[a, b] = float(w)
    tails = (TailSpec(int(rng.integers(n))),) if rng.random() < 0.25 else ()
    if rng.random() < 0.25:
        x2 = list(rng.permutation(x2))
    if rng.random() < 0.25:
        x1[rng.integers(len(x1))] = int(rng.integers(-1, n + 1))
    graph = WeightedGraph(n, tuple((a, b, w) for (a, b), w in weights.items()), tails)
    return TwinStructure(graph, tuple(map(int, x1)), tuple(map(int, x2)))


@settings(max_examples=300, deadline=None)
@given(perturbed_twins())
def test_one_pass_validation_matches_the_three_loops(ts):
    assert _refuses(TwinStructure.validate, ts) == _refuses(_validate_by_slices, ts)


def test_pure_state_norm_tolerance():
    eps = 5e-13  # inside the 1e-12 norm tolerance
    s = PureState(((0, math.sqrt(0.5 + eps) + 0j),
                   (1, -math.sqrt(0.5) + 0j)))
    assert s.vertices == (0, 1)


def test_prufer_uniformity_n5():
    from qwalk.experiments import random_tree
    counts: dict = {}
    samples = 50_000
    rng_seed = 99
    for k in range(samples):
        g = random_tree(5, (rng_seed, k))
        counts[g.edges] = counts.get(g.edges, 0) + 1
    assert len(counts) == 125
    expected = samples / 125
    sigma = math.sqrt(expected * (1 - 1 / 125))
    worst = max(abs(c - expected) for c in counts.values())
    assert worst <= 4 * sigma  # allow a slightly generous band over 125 cells
