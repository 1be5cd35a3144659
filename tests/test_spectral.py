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
    CURVE_BLOCK,
    FidelityCurve,
    SpectralDecomposition,
    required_truncation,
    series_tail,
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


def test_required_truncation_doubles():
    L = required_truncation(4.0, 2.0, 1e-9)
    assert L in (16, 32, 64)
    assert truncation_bound(4.0, 2.0, L) < 1e-9
    with pytest.raises(NonConvergent):
        required_truncation(1e6, 1e6, 1e-9, cap=64)


def test_certificate_bound_dominates_observed_drift():
    g = WeightedGraph(2, ((0, 1, 1.0),), (TailSpec(1),))
    t = 2.0
    decomp, cert = prepare(g, t, tol=1e-9)
    out, _ = evolve(g, vertex_state(0), t)
    # doubling the truncation changes the answer by less than the bound
    from qwalk.spectral import adjacency as adj
    big = SpectralDecomposition.of(adj(g, 2 * cert.L))
    ref = big.apply(t, vertex_state(0).vector(2 + 2 * cert.L))
    drift = np.linalg.norm(ref[: out.shape[0]] - out)
    assert drift < cert.bound


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
    # the pair state sees 3 of the 1033 eigenvalues of the truncation
    ("flyswatter", {"tail_len": 0}, None, 50.0, 3),
    # the attach vertex couples to the tail: most of the 522 stay
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
