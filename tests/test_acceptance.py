"""End-to-end acceptance suite: ten numbered criteria, each emitting a single
pass/fail line with its measured result."""

import time
from math import pi, sqrt

import numpy as np

from qwalk import (
    CayleySpec,
    Partition,
    SignVector,
    blow_up,
    cayley,
    check_pst,
    coarsest_equitable,
    complete_graph,
    cycle_graph,
    exhaustive_tree_experiment,
    fiber_sum_state,
    fidelity,
    named_gadget,
    negate_edges,
    pair_state,
    path_graph,
    pgst_witness,
    plus_state,
    quotient,
    run_tree_experiment,
    sedentary_estimate,
    switch,
    vertex_state,
    verify_twin_structure,
)
from qwalk.errors import NoTransfer
from qwalk.graphs import WeightedGraph
from qwalk.spectral import (
    AMPLITUDE,
    DEFAULT_TAIL_TOL,
    STATE,
    SpectralDecomposition,
    _prepare,
    adjacency,
    evolve,
    exp_oracle,
    transfer_amplitude,
)
from conftest import random_twin_instance

PST_TOL = 1e-9


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({label}): {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _pst_ok(g, src, dst, tau) -> float:
    try:
        return check_pst(g, src, dst, tau).fidelity
    except NoTransfer as exc:
        return exc.fidelity


def test_criterion_01_quotient_demo_and_switches():
    t0 = time.perf_counter()
    tau = pi / (2 * sqrt(2.0))
    gd = named_gadget("c4_quotient")
    fids = [_pst_ok(gd.graph, gd.src, gd.dst, tau)]
    g_pair = switch(gd.graph, SignVector((1, -1, 1, 1, -1, 1)))
    fids.append(_pst_ok(g_pair, pair_state(0, 1), pair_state(3, 4), tau))
    g_mixed = switch(gd.graph, SignVector((1, 1, 1, 1, -1, 1)))
    fids.append(_pst_ok(g_mixed, plus_state(0, 1), pair_state(3, 4), tau))
    elapsed = time.perf_counter() - t0
    ok = min(fids) >= 1 - PST_TOL and elapsed < 1.0
    _report(1, "quotient demo", ok,
            f"worst fidelity {min(fids):.12f}, {elapsed:.2f}s")


def test_criterion_02_gadget_suite():
    rng = np.random.default_rng(7)
    mask = rng.random((10, 10)) < 0.35
    rand10 = WeightedGraph(10, tuple(
        (i, j, 1.0) for i in range(10) for j in range(i + 1, 10) if mask[i, j]))
    hosts = [None, path_graph(4), cycle_graph(5), rand10]
    fids = []
    for name in ("p2_twins", "p2_twins_signed_plusplus",
                 "p2_twins_signed_pluspair"):
        for h in hosts:
            gd = named_gadget(name, h=h)
            fids.append(_pst_ok(gd.graph, gd.src, gd.dst, gd.tau))
    for name in ("p3_twins_spur", "p3_twins_path"):
        gd = named_gadget(name)
        fids.append(_pst_ok(gd.graph, gd.src, gd.dst, gd.tau))
    ok = min(fids) >= 1 - PST_TOL
    _report(2, "gadget suite", ok,
            f"{len(fids)} transfers, worst fidelity {min(fids):.12f}")


def test_criterion_03_blowup_scaling():
    fids = []
    for n in (2, 3, 4):
        g = blow_up(path_graph(2), n)
        fids.append(_pst_ok(g, fiber_sum_state(2, n, 0),
                            fiber_sum_state(2, n, 1), pi / (2 * n)))
    g = blow_up(path_graph(3), 2)
    fids.append(_pst_ok(g, fiber_sum_state(3, 2, 0),
                        fiber_sum_state(3, 2, 2), pi / (2 * sqrt(2.0))))
    # cross-copy negated doubles carry the pair fibers at half the base time
    for h, tau, a, b in ((path_graph(2), pi / 2, 0, 1),
                         (path_graph(3), pi / sqrt(2.0), 0, 2)):
        g = blow_up(h, 2)
        cross = [(x, y) for x, y, _ in g.edges if (x < h.n) != (y < h.n)]
        g = negate_edges(g, cross)
        fids.append(_pst_ok(g, pair_state(a, h.n + a), pair_state(b, h.n + b),
                            tau / 2))
    ok = min(fids) >= 1 - PST_TOL
    _report(3, "blow-up scaling", ok, f"worst fidelity {min(fids):.12f}")


def test_criterion_04_sedentariness():
    margins = []
    for n in (3, 5, 8):
        est = sedentary_estimate(complete_graph(n), vertex_state(0), 10.0)
        margins.append(est.grid_min - ((n - 2) / n - 1e-6))
    for n in (3, 4, 5):
        gd = named_gadget("kn_twin_gadget", n=n)
        est = sedentary_estimate(gd.graph, gd.src, 60.0)
        margins.append(est.grid_min - (1 - 2 / n - 1e-6))
    for n in (3, 5, 8):
        g = blow_up(complete_graph(n), 2)
        est = sedentary_estimate(g, plus_state(0, n), 10.0)
        margins.append(est.grid_min - ((n - 2) / n - 1e-6))
    ok = min(margins) >= 0
    _report(4, "sedentariness", ok,
            f"9 states, smallest margin above bound {min(margins):.3g}")


def test_criterion_05_cayley_examples():
    t0 = time.perf_counter()
    from qwalk import compose_signed
    fids = [_pst_ok(negate_edges(cycle_graph(6), [(3, 4), (0, 5)]),
                    plus_state(1, 5), plus_state(2, 4), pi / 2)]
    g24 = compose_signed(
        cayley(CayleySpec((6, 4), ((1, 0), (5, 0)))),
        cayley(CayleySpec((6, 4), tuple((0, j) for j in range(1, 4)))))
    for j in range(4):
        fids.append(_pst_ok(g24, pair_state(j, 8 + j), pair_state(12 + j, 20 + j),
                            pi / 2))
    g32 = compose_signed(
        cayley(CayleySpec((8, 2, 2), ((1, 0, 0), (7, 0, 0)))),
        cayley(CayleySpec((8, 2, 2), ((0, 0, 1), (0, 1, 0), (0, 1, 1)))))
    for j in range(4):
        fids.append(_pst_ok(g32, plus_state(j, 16 + j), plus_state(8 + j, 24 + j),
                            pi / 2))
    elapsed = time.perf_counter() - t0
    ok = min(fids) >= 1 - PST_TOL and elapsed < 10.0
    _report(5, "signed Cayley compositions", ok,
            f"worst fidelity {min(fids):.12f}, {elapsed:.2f}s")


def test_criterion_06_tails():
    fids = []
    for tail_len in (1, 2, 4, 8, 0):
        gd = named_gadget("flyswatter", tail_len=tail_len)
        fids.append(_pst_ok(gd.graph, gd.src, gd.dst, gd.tau))
    for p in (3, 5, 4, 6):
        for tail_len in (3, 0):
            gd = named_gadget("h2p", p=p, tail_len=tail_len)
            fids.append(_pst_ok(gd.graph, gd.src, gd.dst, gd.tau))
    gd = named_gadget("p3_twins_spur", tail_len=0)
    fids.append(_pst_ok(gd.graph, gd.src, gd.dst, gd.tau))

    # certificate honesty, like with like, against a truncation 4x deeper
    # than the one certified for the same rule: the whole evolved state
    # against evolve's certificate, and the pair amplitude against
    # transfer_amplitude's
    gd = named_gadget("flyswatter", tail_len=0)
    g, src, dst = gd.graph, gd.src, gd.dst
    tau = pi / sqrt(2.0)
    state, scert = evolve(g, src, tau)
    deep_L = 4 * _prepare(g, tau, DEFAULT_TAIL_TOL, STATE)[1].L
    dim = g.n + deep_L
    ref = SpectralDecomposition.of(adjacency(g, deep_L)).apply(tau, src.vector(dim))
    state_drift = float(np.linalg.norm(ref - np.pad(state, (0, dim - state.size))))
    amp, acert = transfer_amplitude(g, src, dst, tau)
    deep_L = 4 * _prepare(g, tau, DEFAULT_TAIL_TOL, AMPLITUDE)[1].L
    dim = g.n + deep_L
    deep = SpectralDecomposition.of(adjacency(g, deep_L))
    ref_amp = deep.amplitude_curve(src.vector(dim), dst.vector(dim), np.array([tau]))[0]
    amp_drift = abs(ref_amp - amp)
    ok = (min(fids) >= 1 - PST_TOL and state_drift < scert.bound
          and amp_drift < acert.bound)
    _report(6, "tail families", ok,
            f"worst fidelity {min(fids):.12f}; state L={scert.L}, drift "
            f"{state_drift:.3g} < bound {scert.bound:.3g}; amplitude "
            f"L={acert.L}, drift {amp_drift:.3g} < bound {acert.bound:.3g}")


def test_criterion_07_structure_property_suites():
    rng = np.random.default_rng(0xACE)
    worst_block = 0.0
    for _ in range(200):
        ts = random_twin_instance(rng)
        bc = verify_twin_structure(ts.graph, ts)
        worst_block = max(worst_block, bc.max_residual)

    worst_intertwine = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 13))
        mask = rng.random((n, n)) < 0.4
        g = WeightedGraph(n, tuple(
            (i, j, float(rng.choice([1.0, -1.0, 2.0])))
            for i in range(n) for j in range(i + 1, n) if mask[i, j]))
        ed = coarsest_equitable(g, Partition.single(n))
        b = quotient(ed)
        da = SpectralDecomposition.of(g.core_adjacency())
        db = SpectralDecomposition.of(b)
        for t in rng.uniform(0.1, 4.0, size=2):
            resid = float(np.max(np.abs(
                da.unitary(t) @ ed.charmatrix - ed.charmatrix @ db.unitary(t))))
            worst_intertwine = max(worst_intertwine, resid)
    ok = worst_block < 1e-9 and worst_intertwine < 1e-10
    _report(7, "structure properties", ok,
            f"200 twin residual max {worst_block:.3g}; "
            f"100 quotient intertwine max {worst_intertwine:.3g}")


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(0xBEEF)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        t = float(rng.uniform(-4, 4))
        u1 = SpectralDecomposition.of(a).unitary(t)
        u2 = exp_oracle(a, t)
        worst = max(worst, float(np.max(np.abs(u1 - u2))))
    ok = worst < 1e-9
    _report(8, "matrix exponential oracle", ok,
            f"100 instances, worst entrywise gap {worst:.3g}")


def test_criterion_09_pgst_witnesses():
    g = blow_up(cycle_graph(8), 2)
    rep1 = pgst_witness(g, fiber_sum_state(8, 2, 0), fiber_sum_state(8, 2, 4),
                        0.999, 1e4)
    g2 = negate_edges(cycle_graph(8), [(0, 7), (3, 4)])
    rep2 = pgst_witness(g2, plus_state(1, 7), plus_state(3, 5), 0.99, 1e4)
    ok = rep1.fidelity >= 0.999 and rep2.fidelity >= 0.99
    _report(9, "high-fidelity witnesses", ok,
            f"double C_8: {rep1.fidelity:.6f} at t={rep1.tau:.3f}; "
            f"signed C_8: {rep2.fidelity:.6f} at t={rep2.tau:.3f}")


def test_criterion_10_tree_experiment():
    t0 = time.perf_counter()
    exact = exhaustive_tree_experiment(6, verify=True)
    reports = run_tree_experiment((8, 12, 16), 200, seed=2024)
    elapsed = time.perf_counter() - t0
    all_verified = all(r.verified_count == r.hit_count for r in reports)
    ok = (exact.sample_count == 1296 and exact.hit_count == 360
          and exact.verified_count == 360 and all_verified and elapsed < 60.0)
    _report(10, "tree experiment", ok,
            f"n=6 exact 360/1296; hits "
            + ", ".join(f"n={r.size}: {r.hit_count}/200" for r in reports)
            + f"; {elapsed:.1f}s")
