"""Property-based invariants over randomized inputs."""

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qwalk import (
    Partition,
    PureState,
    SignVector,
    WeightedGraph,
    build_graph,
    coarsest_equitable,
    exp_oracle,
    fidelity,
    graph_to_document,
    pair_state,
    plus_state,
    reduced_hamiltonian,
    switch,
)
from qwalk.partition import EquitableFailure, check_equitable
from qwalk.spectral import FidelityCurve, SpectralDecomposition
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


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_graph_document_roundtrip(g):
    assert build_graph(json.dumps(graph_to_document(g))) == g


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


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_coarsest_equitable_is_equitable_and_idempotent(g):
    ed = coarsest_equitable(g, Partition.single(g.n))
    assert not isinstance(check_equitable(g, ed.partition), EquitableFailure)
    again = coarsest_equitable(g, ed.partition)
    assert again.partition == ed.partition


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
