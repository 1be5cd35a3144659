import math
from unittest.mock import patch

import numpy as np
import pytest

from qwalk import (
    blow_up,
    check_pst,
    complete_graph,
    cycle_graph,
    degree_profile,
    fiber_sum_state,
    fidelity,
    named_gadget,
    pair_state,
    path_graph,
    pgst_witness,
    plus_state,
    search_pst,
    sedentary_estimate,
    vertex_state,
    WeightedGraph,
)
from qwalk import transfer
from qwalk.errors import BadParam, NoTransfer, Unreached
from qwalk.reproduce import CLAIM_SETS
from qwalk.spectral import FidelityCurve, adjacency, exp_oracle, prepare
from qwalk.transfer import GRID_FLOOR, MAX_GRID, _grid_count, _refine, _windows


def test_check_pst_p2():
    rep = check_pst(path_graph(2), vertex_state(0), vertex_state(1), math.pi / 2)
    assert rep.kind == "PST"
    assert rep.fidelity >= 1 - 1e-12
    np.testing.assert_allclose(rep.gamma, 1j, atol=1e-9)


def test_check_pst_failure_carries_fidelity():
    with pytest.raises(NoTransfer) as exc:
        check_pst(path_graph(2), vertex_state(0), vertex_state(1), 1.0)
    assert 0 < exc.value.fidelity < 1


def test_check_pst_periodic_at_zero():
    rep = check_pst(cycle_graph(5), vertex_state(2), vertex_state(2), 0.0)
    assert rep.kind == "periodic"
    np.testing.assert_allclose(rep.gamma, 1.0, atol=1e-12)


def test_check_pst_tailed_gadget():
    gd = named_gadget("h2p", p=3, tail_len=3)
    rep = check_pst(gd.graph, gd.src, gd.dst, gd.tau)
    assert rep.fidelity >= 1 - 1e-9


def test_search_autocorrelation_skips_t0():
    # C_4's return amplitude to a vertex is cos^2 t; the t=0 plateau, refined
    # onto the grid's lower clip, is not a return
    reps = search_pst(cycle_graph(4), vertex_state(0), vertex_state(0), 10.0)
    assert [rep.kind for rep in reps] == ["periodic"] * 3
    np.testing.assert_allclose([rep.tau for rep in reps],
                               [math.pi, 2 * math.pi, 3 * math.pi], rtol=1e-14)


def test_search_recovers_p2_time():
    reps = search_pst(path_graph(2), vertex_state(0), vertex_state(1), 4.0)
    assert len(reps) == 1
    assert abs(reps[0].tau - math.pi / 2) < 1e-8


def test_search_k3_is_empty():
    assert search_pst(complete_graph(3), vertex_state(0), vertex_state(1),
                      10.0) == []


def test_search_demo_graph_time():
    gd = named_gadget("c4_quotient")
    reps = search_pst(gd.graph, gd.src, gd.dst, 3.0)
    assert any(abs(r.tau - math.pi / (2 * math.sqrt(2))) < 1e-7 for r in reps)


def test_search_agrees_with_exp_oracle():
    gd = named_gadget("p2_twins")
    reps = search_pst(gd.graph, gd.src, gd.dst, 5.0)
    a = gd.graph.core_adjacency()
    for r in reps:
        u = gd.src.vector(a.shape[0])
        v = gd.dst.vector(a.shape[0])
        f = abs(np.conj(v) @ exp_oracle(a, r.tau) @ u)
        assert abs(f - r.fidelity) < 1e-8


# the grid path on every curve: the closed form for single cosines off
ON_THE_GRID = patch("qwalk.transfer._cosine", lambda curve: None)
# sedentary_estimate without the proof of a zero by sign change: every
# curve takes the refinement of its lowest basins
NO_SIGN_PROOF = patch("qwalk.transfer._one_sided", lambda g, u: False)


def _grid_windows():
    """Patch FidelityCurve.grid to record (first, count) per call."""
    windows = []
    grid = FidelityCurve.grid

    def recorded(self, step, count, first=1):
        windows.append((first, count))
        return grid(self, step, count, first)

    return windows, patch.object(FidelityCurve, "grid", recorded)


def test_pgst_witness_found_and_unreached():
    g = blow_up(cycle_graph(8), 2)
    rep = pgst_witness(g, fiber_sum_state(8, 2, 0), fiber_sum_state(8, 2, 4),
                       0.999, 1e4)
    assert rep.kind == "PGST-witness"
    assert rep.fidelity >= 0.999
    # P_6 end-to-end cannot reach 0.9999 quickly, and the scan that says so
    # covers the whole grid up to t_cap: ceil(50 * 64 M) points, M = 2
    windows, recording = _grid_windows()
    with recording, pytest.raises(Unreached) as exc:
        pgst_witness(path_graph(6), vertex_state(0), vertex_state(5),
                     0.9999, 50.0)
    assert 0 < exc.value.best_fidelity < 0.9999
    ends = np.cumsum([count for _, count in windows])
    assert [first for first, _ in windows] == [1, *(ends[:-1] + 1)]
    assert ends[-1] == 50 * 64 * 2


@pytest.mark.parametrize("claim, most", [("pgst-signed-c8", GRID_FLOOR),
                                         ("pgst-double-c8", 3 * GRID_FLOOR)])
def test_pgst_scan_stops_near_its_witness(claim, most):
    # the witnesses sit at grid points 284 and 11660 of a 1.28e6-point grid:
    # the scan evaluates the windows up to the one that answers, not the grid
    run = {cid: fn for cid, _, fn in CLAIM_SETS["pgst"]}[claim]
    windows, recording = _grid_windows()
    with recording:
        assert run()[2]
    assert sum(count for _, count in windows) <= most


def test_pgst_autocorrelation_skips_t0():
    rep = pgst_witness(cycle_graph(4), vertex_state(0), vertex_state(0),
                       0.999, 50.0)
    assert rep.tau > 0.5  # the t=0 plateau is excluded


def test_scan_extrema_take_a_plateau_once():
    # |f| = 0 1 1 1 0 2 2 on the grid 1..7, in windows of 3: each plateau
    # gives its first point alone, as maximum or as minimum
    three = FidelityCurve(np.array([0.0, 1.0, 3.0]), np.ones(3, dtype=complex))
    values = [np.array([0.0, 1, 1]), np.array([1.0, 0, 2]), np.array([2.0])]

    def walk(lowest):
        with patch.object(transfer, "_scan", lambda *args: iter(values)):
            return np.concatenate([k for k, _ in transfer._scan_extrema(
                three, 1.0, 7, lowest)]).tolist()

    assert walk(False) == [2, 6]
    assert walk(True) == [1, 5]


def test_a_state_in_the_kernel_gives_one_report():
    # the frozen pair of the perturbed P_2 twins is an eigenvector with
    # eigenvalue 0: its curve is flat at 1, and every grid point was once a
    # report
    g = named_gadget("p2_twins_perturbed").graph
    state = pair_state(0, 4)
    reps = search_pst(g, state, state, 10.0)
    assert len(reps) == 1 and reps[0].fidelity >= 1 - 1e-12
    # the whole curve is its initial plateau; its first point is a witness
    rep = pgst_witness(g, state, state, 0.999, 10.0)
    step = 10.0 / math.ceil(64 * 10.0 * degree_profile(g).m)
    assert 0 < rep.tau <= 2 * step
    assert abs(sedentary_estimate(g, state, 10.0).grid_min - 1) <= 1e-12


@pytest.mark.parametrize("g, state", [
    (path_graph(2), plus_state(0, 1)),         # eigenvalue 1
    (complete_graph(4), pair_state(0, 1)),     # eigenvalue -1
], ids=["p2-plus", "k4-pair"])
def test_a_stationary_state_gives_one_report(g, state):
    # an eigenvector of eigenvalue lam != 0 has the one-point curve
    # e^(i lam t): its modulus is 1, but jitters in the last bits on the grid,
    # where hundreds of grid points are strict local maxima.  The walk
    # answers it in closed form: its first grid point alone
    reps = search_pst(g, state, state, 10.0)
    step = 10.0 / (64 * 10.0 * degree_profile(g).m)
    assert len(reps) == 1 and 0 < reps[0].tau <= 2 * step
    assert reps[0].fidelity >= 1 - 1e-12 and reps[0].kind == "periodic"
    windows, recording = _grid_windows()
    with recording:
        rep = pgst_witness(g, state, state, 0.999, 10.0)
        est = sedentary_estimate(g, state, 10.0)
    assert windows == [] and 0 < rep.tau <= 2 * step
    assert abs(est.grid_min - 1) <= 1e-12
    # on the grid, the jitter: many reports, each within roundoff of 1
    with ON_THE_GRID:
        grid = search_pst(g, state, state, 10.0)
    assert len(grid) > 100 and min(r.fidelity for r in grid) >= 1 - 1e-12


def test_pgst_autocorrelation_plateau_ends_at_the_first_minimum():
    # K_8 from a vertex to itself: |f(t)| = |7 e^(-it) + e^(7it)| / 8 never
    # falls below 0.75, dips to it at pi/8 and returns to 1 at pi/4
    rep = pgst_witness(complete_graph(8), vertex_state(0), vertex_state(0), 0.7, 10.0)
    assert abs(rep.tau - math.pi / 4) < 1e-9
    assert rep.fidelity > 1 - 1e-12


def test_pgst_witness_returns_the_earliest_run():
    # P_4 end to end passes 0.99 near t = 28.1 (0.9962) and again near 53.4
    # (0.99996): both runs lie in the first scan window and are refined
    # together, and the earlier one is the witness
    g = path_graph(4)
    rep = pgst_witness(g, vertex_state(0), vertex_state(3), 0.99, 100.0)
    assert abs(rep.tau - 28.0992589) < 1e-6
    assert 0.99 <= rep.fidelity < 0.997
    assert fidelity(g, vertex_state(0), vertex_state(3), 53.389) > 0.9999


def test_pgst_witness_is_the_earliest_refined_maximum():
    # this curve stays above 0.645 over [1.71, 5.67], with local maxima 0.8614
    # at 2.5434 and 0.9092 at 4.7281: both are refined, and the earlier one,
    # which reaches the target 0.65, is the witness, not the stretch's highest
    curve = FidelityCurve(np.array((-1.841, -0.111, 0.148, 0.806)),
                          np.array((-0.107 + 0.039j, 0.114 - 0.055j,
                                    0.116 - 0.145j, -0.48 + 0.279j)))
    with patch("qwalk.transfer.transfer_curve", lambda *args: (curve, None)):
        rep = pgst_witness(path_graph(2), vertex_state(0), vertex_state(1), 0.65, 10.0)
    assert abs(rep.tau - 2.5433704) < 1e-6
    assert abs(rep.fidelity - 0.8614492) < 1e-6


def test_pgst_witness_refines_a_run_cut_by_t_cap():
    # the run around the P_4 witness (28.0992589) ends at the grid's last
    # point, t_cap; no later window decides it, so it is refined at once
    rep = pgst_witness(path_graph(4), vertex_state(0), vertex_state(3), 0.99, 28.1)
    assert abs(rep.tau - 28.0992589) < 1e-6


def _counted_curve_calls():
    """Patch FidelityCurve.__call__ to record the number of times per call."""
    calls = []
    call = FidelityCurve.__call__

    def counted(self, ts):
        calls.append(np.size(ts))
        assert len(calls) < 1000, "refinement does not terminate"
        return call(self, ts)

    return calls, patch.object(FidelityCurve, "__call__", counted)


# |f(t)| = |cos(t/2)|: maxima at t = 2 pi k, minima at t = pi (2k + 1)
HALF_COS = FidelityCurve(np.array([0.0, 1.0]), np.array([0.5, 0.5]))


# |f(t)|^2 = 17.25 + 4 cos t - cos 2t: a flat (quartic, g'' = 0) maximum 4.5
# at t = 2 pi k, where Newton converges slowly and bisection takes over
FLAT = FidelityCurve(np.array([0.0, 1.0, 2.0]), np.array([1.0, 4.0, -0.5]) + 0j)


@pytest.mark.parametrize("curve, top, max_calls, t_tol", [
    (HALF_COS, 1.0, 10, 1e-11), (FLAT, 4.5, 200, 1e-6)], ids=["newton", "bisection"])
def test_refinement_stops_where_one_ulp_exceeds_the_resolution(curve, top, max_calls,
                                                               t_tol):
    # past t = 8192 one ulp is wider than TIME_RESOLUTION; every bracket must
    # stop there instead of looping forever (HALF_COS by Newton, not in
    # closed form)
    peaks = 2 * math.pi * np.array([1432, 1910])  # t ~ 9000 and 12000
    calls, counting = _counted_curve_calls()
    with counting, ON_THE_GRID:
        ts, fs = _refine(curve, peaks - 0.01, peaks + 0.005)
    assert len(calls) <= max_calls
    np.testing.assert_allclose(ts, peaks, rtol=0, atol=t_tol)
    np.testing.assert_allclose(np.abs(fs), top, rtol=1e-15)


def test_refinement_of_a_cosine_is_one_evaluation():
    # HALF_COS is one cosine: every bracket's extremum, maximum or minimum,
    # is found in closed form, with one curve evaluation for all of them
    for sign, extrema in ((1.0, 2 * math.pi * np.array([1432, 1910])),
                          (-1.0, math.pi * np.array([2863, 3821]))):
        calls, counting = _counted_curve_calls()
        with counting:
            ts, fs = _refine(HALF_COS, extrema - 0.01, extrema + 0.005, sign)
        assert calls == [3 * extrema.size]
        np.testing.assert_allclose(ts, extrema, rtol=0, atol=1e-11)
        # |f| = |cos(t/2)| moves by half the roundoff of t ~ 1e4
        np.testing.assert_allclose(np.abs(fs), max(sign, 0.0), rtol=0, atol=1e-12)


def test_refinement_of_no_bracket_is_empty():
    for sign in (1.0, -1.0):
        ts, fs = _refine(HALF_COS, [], [], sign)
        assert ts.shape == fs.shape == (0,)


def test_refinement_returns_an_end_extremum_exactly():
    # |cos(t/2)| falls over (2 pi k, pi (2k + 1)): the maximum is the left end,
    # the minimum the right end
    lo, hi = 12000 * math.pi + np.array([0.1, 0.2]), 12000 * math.pi + np.array([0.6, 3.0])
    ts, _ = _refine(HALF_COS, lo, hi)
    np.testing.assert_array_equal(ts, lo)
    ts, _ = _refine(HALF_COS, lo, hi, sign=-1.0)
    np.testing.assert_array_equal(ts, hi)


def test_search_refines_in_few_curve_evaluations():
    # every one of the 315 peaks is refined in the same few lockstep calls
    gd = named_gadget("flyswatter", tail_len=0)
    calls, counting = _counted_curve_calls()
    with counting:
        reps = search_pst(gd.graph, gd.src, gd.dst, 1400.0)
    assert len(reps) == 315
    assert len(calls) <= 8


# horizons whose grid on P_2 (M = 1) is just over MAX_GRID points: search
# walks 64 t_max points, pgst ceil(64 t_cap)
OVER_THE_GRID = MAX_GRID / 64 * (1 + 1e-9)


@pytest.mark.parametrize("query", [
    lambda g, u, v: search_pst(g, u, v, 1e308),
    lambda g, u, v: pgst_witness(g, u, v, 0.9, 1e308),
    lambda g, u, v: search_pst(g, u, v, 1e200),
    lambda g, u, v: pgst_witness(g, u, v, 0.9, 1e200),
    lambda g, u, v: search_pst(g, u, v, OVER_THE_GRID),
    lambda g, u, v: pgst_witness(g, u, v, 0.9, OVER_THE_GRID),
], ids=["search", "pgst", "search-1e200", "pgst-1e200", "search-over", "pgst-over"])
def test_infinite_grid_is_a_bad_parameter(query):
    # an infinite grid, or a finite one too long to walk (which used to scan
    # without end), is refused before the curve is built
    def refuse(*args):
        raise AssertionError("built the curve of a grid that cannot be walked")

    with patch("qwalk.transfer.transfer_curve", refuse), pytest.raises(BadParam):
        query(path_graph(2), vertex_state(0), vertex_state(1))


def test_grid_limit_is_inclusive():
    assert MAX_GRID == 2 ** 32
    assert _grid_count(float(MAX_GRID)) == MAX_GRID
    for points in (MAX_GRID + 1.0, math.inf, math.nan):
        with pytest.raises(BadParam):
            _grid_count(points)


def test_sedentary_refines_one_point_per_basin():
    # the 32 lowest grid points of h2p's attach vertex at horizon 30 include
    # neighbours in one basin (5.2448, 5.25, 5.2552, 5.2604); its lowest local
    # minima lie at least two grid steps apart
    gd = named_gadget("h2p", p=5, tail_len=0)
    brackets = []

    def spy(curve, lo, hi, sign=1.0):
        brackets.append((lo, hi))
        return _refine(curve, lo, hi, sign)

    windows, recording = _grid_windows()
    # the curve is real and reaches 0: the refinement runs only without the
    # proof by sign change
    with recording, patch("qwalk.transfer._refine", spy), NO_SIGN_PROOF:
        est = sedentary_estimate(gd.graph, vertex_state(5), 30.0)
    (lo, hi), = brackets
    (_, count), = windows
    step = est.horizon / count
    assert np.all(np.diff(np.sort((lo + hi) / 2)) > 1.5 * step)


def _walks():
    """Patch transfer._scan_extrema to record (curve, total) per walk."""
    walks = []
    walk = transfer._scan_extrema

    def recorded(curve, step, total, *args, **kwargs):
        walks.append((curve, total))
        return walk(curve, step, total, *args, **kwargs)

    return walks, patch.object(transfer, "_scan_extrema", recorded)


def test_sedentary_grid_follows_the_search_rule():
    # max(GRID_FLOOR, 64 M horizon) points: 64 * 3 * 30 = 5760 on h2p (M = 3)
    gd = named_gadget("h2p", p=5, tail_len=0)
    windows, recording = _grid_windows()
    with recording:
        sedentary_estimate(gd.graph, vertex_state(5), 30.0)
    assert windows == [(1, 5760)]
    # every sedentary claim case snaps to a short period: the floor; each is
    # a two-point curve, walked in closed form with no grid evaluation
    for claim, _, run in CLAIM_SETS["sedentary"]:
        windows, recording = _grid_windows()
        walks, walking = _walks()
        with recording, walking:
            assert run()[2], claim
        assert windows == [], claim
        assert walks and all(curve.eigenvalues.size == 2 and total == GRID_FLOOR
                             for curve, total in walks), claim


def test_cosine_walk_evaluates_no_grid():
    # the h2p (p = 5) pair is a two-point curve: one curve evaluation at the
    # window's 10 peaks (the last point is no peak) and one for the 10
    # brackets, none of the grid; the flyswatter pair (three points) evaluates
    # every window of its grid, 64 * 4 * 50 points (M = 4)
    gd = named_gadget("h2p", p=5, tail_len=0)
    windows, recording = _grid_windows()
    calls, counting = _counted_curve_calls()
    with recording, counting:
        reps = search_pst(gd.graph, gd.src, gd.dst, 30.0)
    assert len(reps) == 10 and windows == []
    assert calls == [10, 3 * 10]
    fly = named_gadget("flyswatter", tail_len=0)
    windows, recording = _grid_windows()
    with recording:
        search_pst(fly.graph, fly.src, fly.dst, 50.0)
    assert windows == list(_windows(12800)) == [(1, 12800)]


@pytest.mark.parametrize("g, u, horizon", [
    (named_gadget("h2p", p=5, tail_len=0).graph, vertex_state(5), 30.0),
    (complete_graph(5), vertex_state(0), 10.0),
], ids=["h2p", "k5"])
def test_windowed_sedentary_matches_one_window(g, u, horizon):
    # on the grid: K_5's two-point curve too; h2p's real curve refined, not
    # proven to reach 0
    with ON_THE_GRID, NO_SIGN_PROOF:
        _windowed_sedentary_matches_one_window(g, u, horizon)


def test_windowed_sedentary_matches_one_window_in_closed_form():
    # K_5's vertex state is one cosine: its windows are walked in closed form,
    # with no grid, and answer as the grid does
    g, u = complete_graph(5), vertex_state(0)
    windows, recording = _grid_windows()
    with recording:
        est = _windowed_sedentary_matches_one_window(g, u, 10.0)
    assert windows == []
    with ON_THE_GRID:
        grid = sedentary_estimate(g, u, 10.0)
    assert (est.horizon, est.period) == (grid.horizon, grid.period)
    assert abs(est.grid_min - grid.grid_min) <= 1e-12


def _windowed_sedentary_matches_one_window(g, u, horizon):
    """sedentary_estimate of (g, u) over horizon, asserted to be the same in
    windows that cut its grid near the lowest minimum."""
    ref = sedentary_estimate(g, u, horizon)
    refined = []

    def spy(curve, lo, hi, sign=1.0):
        refined.append(_refine(curve, lo, hi, sign))
        return refined[-1]

    walks, walking = _walks()
    with walking, patch("qwalk.transfer._refine", spy):
        assert sedentary_estimate(g, u, horizon) == ref
    (_, count), = walks
    assert list(_windows(count)) == [(1, count)]  # the reference scan is one window
    # windows ending just before, at and just after the lowest minimum's grid
    # point, so the carry across a window edge decides it
    (ts, amps), = refined
    k = round(ts[np.argmin(np.abs(amps))] / (ref.horizon / count))
    for window in (1000, k - 1, k, k + 1):
        with patch("qwalk.transfer.PGST_WINDOW", window):
            assert sedentary_estimate(g, u, horizon) == ref
    return ref


def _refine_spy():
    """Patch transfer._refine to record the number of brackets per call."""
    calls = []

    def spy(curve, lo, hi, sign=1.0):
        calls.append(np.size(lo))
        return _refine(curve, lo, hi, sign)

    return calls, patch("qwalk.transfer._refine", spy)


def test_sedentary_proves_a_zero_by_sign_change():
    # h2p is bipartite, and so is its infinite tail: the attach vertex's
    # autocorrelation is real, and it changes sign between two grid points
    # far beyond its error.  grid_min is exactly 0, with no refinement
    gd, u = named_gadget("h2p", p=5, tail_len=0), vertex_state(5)
    assert transfer._one_sided(gd.graph, u)
    calls, spying = _refine_spy()
    windows, recording = _grid_windows()
    with spying, recording:
        est = sedentary_estimate(gd.graph, u, 30.0)
    assert calls == [] and windows == [(1, 5760)]
    assert est.grid_min == 0.0 and (est.horizon, est.period) == (30.0, None)
    lo, hi = est.bracket
    step = 30.0 / 5760
    k = round(lo / step)
    assert (lo, hi) == (k * step, (k + 1) * step) and 0 < lo < hi <= 30.0
    assert est.to_document()["bracket"] == [lo, hi]
    # an independent oracle on the certified truncation: the real parts at
    # the two ends have opposite signs, beyond the certificate's bound
    _, cert = prepare(gd.graph, 30.0)
    a = adjacency(gd.graph, cert.L)
    ends = np.array([exp_oracle(a, t)[5, 5] for t in (lo, hi)])
    assert ends[0].real * ends[1].real < 0
    assert np.all(np.abs(ends.real) > cert.bound) and np.all(np.abs(ends.imag) <= 1e-12)
    # a window edge at or beside the bracket: the same proof, and the walk
    # stops at the window that holds it
    for window in (k - 1, k, k + 1):
        windows, recording = _grid_windows()
        with recording, patch("qwalk.transfer.PGST_WINDOW", window):
            assert sedentary_estimate(gd.graph, u, 30.0) == est
            assert windows == list(_windows(5760))[:2 if window <= k else 1]
    # the refinement reaches that zero to roundoff
    with NO_SIGN_PROOF:
        old = sedentary_estimate(gd.graph, u, 30.0)
    assert old.bracket is None and 0 < old.grid_min <= 1e-12


# a complex curve, whose real part changes sign: 0.5 cos t dominates it
COMPLEX = FidelityCurve(np.array([-1.0, 0.3, 0.9]), np.array([0.5, 0.3j, 0.2]))


@pytest.mark.parametrize("g, u, curve", [
    (complete_graph(5), vertex_state(0), None),   # an odd cycle
    (path_graph(5), plus_state(0, 1), None),      # both sides
    (path_graph(2), vertex_state(0), COMPLEX),    # the guard on Im f
], ids=["k5", "two-sided-plus", "complex-curve-on-p2"])
def test_sedentary_refines_without_a_proof(g, u, curve):
    # each takes the refinement of its lowest basins, unchanged; K_5's
    # cosine is walked on the grid, as a curve of more points would be
    assert transfer._one_sided(g, u) == (curve is not None)
    of = FidelityCurve.of if curve is None else (lambda *args: curve)

    def estimate():
        with ON_THE_GRID, patch.object(FidelityCurve, "of", of):
            return sedentary_estimate(g, u, 10.0)

    calls, spying = _refine_spy()
    with spying:
        est = estimate()
    with NO_SIGN_PROOF:
        old = estimate()
    assert len(calls) == 1 and est.bracket is None and est == old


def _dense_random_graph():
    # a non-periodic weighted graph on 12 vertices, M = 10.3
    rng = np.random.default_rng(3)
    n = 12
    return WeightedGraph(n, tuple((i, j, float(rng.choice([1.0, 1.3, 0.7])))
                                  for i in range(n) for j in range(i + 1, n)
                                  if rng.random() < 0.8))


def test_sedentary_long_horizon_finds_the_dip():
    # 64 M horizon grid points (6.6e6 at 1e4); a grid of fixed size misses
    # the deepest dips once 64 M horizon is far above it, and can read higher
    # over a longer horizon, though the infimum can only fall
    g = _dense_random_graph()
    assert degree_profile(g).m == pytest.approx(10.3)
    short = sedentary_estimate(g, vertex_state(0), 3000.0)
    long = sedentary_estimate(g, vertex_state(0), 1e4)
    assert short.period is None and long.period is None
    assert long.grid_min <= 1e-5
    assert long.grid_min <= short.grid_min


def test_sedentary_huge_horizon():
    # a periodic curve snaps to its period; a non-periodic one needs
    # 64 M horizon grid points, more than MAX_GRID, as search_pst does
    est = sedentary_estimate(complete_graph(5), vertex_state(0), 1e200)
    np.testing.assert_allclose(est.period, 2 * math.pi / 5, rtol=1e-9)
    assert est.horizon == est.period and est.grid_min >= 3 / 5 - 1e-6
    with pytest.raises(BadParam, match="grid points"):
        sedentary_estimate(path_graph(4), vertex_state(0), 1e200)


def test_sedentary_certifies_a_tailed_state_at_its_period():
    # h2p's pair state never reaches the tail, and its curve has period pi:
    # the certificate is made at the snapped horizon, not at 1e200
    gd = named_gadget("h2p", p=5, tail_len=0)
    near = sedentary_estimate(gd.graph, gd.src, 1e4)
    far = sedentary_estimate(gd.graph, gd.src, 1e200)
    assert abs(far.period - math.pi) < 1e-12 and far.horizon == far.period
    assert abs(far.grid_min - near.grid_min) <= 1e-12


def test_sedentary_kn_exact_period():
    est = sedentary_estimate(complete_graph(5), vertex_state(0), 10.0)
    assert est.period is not None
    np.testing.assert_allclose(est.period, 2 * math.pi / 5, rtol=1e-9)
    assert est.grid_min >= 3 / 5 - 1e-6


def test_sedentary_p2_not_sedentary():
    est = sedentary_estimate(path_graph(2), vertex_state(0), 10.0)
    assert est.grid_min < 1e-6


def test_sedentary_blowup_plus_state():
    g = blow_up(complete_graph(4), 2)
    est = sedentary_estimate(g, plus_state(0, 4), 10.0)
    assert est.grid_min >= 0.5 - 1e-6


def test_sedentary_excludes_pst_source():
    # a state with grid_min >= C > 1/sqrt2 cannot also show PST to elsewhere
    g = complete_graph(8)
    est = sedentary_estimate(g, vertex_state(0), 10.0)
    assert est.grid_min > 1 / math.sqrt(2)
    assert search_pst(g, vertex_state(0), vertex_state(1), 10.0) == []


def test_report_serialization():
    rep = check_pst(path_graph(2), vertex_state(0), vertex_state(1), math.pi / 2)
    doc = rep.to_document()
    assert doc["kind"] == "PST"
    assert abs(doc["tau"] - math.pi / 2) < 1e-9
    assert doc["truncation"]["L"] == 0 and doc["truncation"]["dim"] == 2
    assert doc["truncation"]["residual"] == 0.0
    # on an infinite tail the pair state is answered on its Krylov space in
    # the core
    gd = named_gadget("flyswatter", tail_len=0)
    trunc = check_pst(gd.graph, gd.src, gd.dst, gd.tau).to_document()["truncation"]
    assert trunc["L"] == 0 and trunc["dim"] == 3 and trunc["residual"] < 1e-14
    est = sedentary_estimate(complete_graph(3), vertex_state(0), 5.0)
    doc = est.to_document()
    assert doc["period"] is not None


def test_decoupled_search_reaches_long_horizons():
    # far past the horizon a truncation can certify (t ~ 1500): every odd
    # multiple of pi/sqrt2, each pinned by Newton on the exact derivatives
    gd = named_gadget("flyswatter", tail_len=0)
    reps = search_pst(gd.graph, gd.src, gd.dst, 1400.0)
    period = math.pi / math.sqrt(2)
    assert len(reps) == 315
    assert all(abs(r.tau - (2 * k + 1) * period) < 1e-11 for k, r in enumerate(reps))
    cert = reps[0].certificate
    assert cert.L == 0 and cert.dim == 3 and cert.residual * cert.t < 1e-11


def _flyswatter_pair():
    gd = named_gadget("flyswatter", tail_len=0)
    return gd.graph, gd.src, gd.dst


@pytest.mark.parametrize("instance, pst_tol", [
    (_flyswatter_pair, 1e-9),
    # P_4 has no PST: reporting every refined grid peak above 0.99 compares
    # the peak detection itself
    (lambda: (path_graph(4), vertex_state(0), vertex_state(3)), 1e-2),
], ids=["flyswatter", "p4"])
def test_windowed_search_matches_one_window(instance, pst_tol):
    g, u, v = instance()
    t_max = 200.0
    ref = search_pst(g, u, v, t_max, pst_tol)
    n = max(4096, int(64 * t_max * max(degree_profile(g).m, 1.0)))
    assert len(ref) > 3 and n < 200_000  # the reference scan is one window
    # windows ending just before, at and just after the first peak's grid
    # point, so the carry across a window edge decides it
    k = round(ref[0].tau / (t_max / n))
    for window in (1000, k - 2, k - 1, k, k + 1):
        with patch("qwalk.transfer.PGST_WINDOW", window):
            assert search_pst(g, u, v, t_max, pst_tol) == ref


@pytest.mark.parametrize("g, u, v, target, t_cap", [
    (blow_up(cycle_graph(8), 2), fiber_sum_state(8, 2, 0), fiber_sum_state(8, 2, 4),
     0.999, 100.0),
    (path_graph(4), vertex_state(0), vertex_state(3), 0.99, 200.0),
], ids=["double-c8", "p4"])
def test_windowed_pgst_matches_one_window(g, u, v, target, t_cap):
    step = 1 / (64 * degree_profile(g).m)
    assert t_cap / step < 1 << 20
    with patch("qwalk.transfer.GRID_FLOOR", 1 << 20), \
            patch("qwalk.transfer.PGST_WINDOW", 1 << 20):
        ref = pgst_witness(g, u, v, target, t_cap)  # one window
    assert pgst_witness(g, u, v, target, t_cap) == ref
    # fixed windows ending just before, at and just after the first peak's
    # grid point: a run cut by a window edge is refined around its peak
    k = round(ref.tau / step)
    for window in range(k - 6, k + 2):
        with patch("qwalk.transfer.GRID_FLOOR", window), \
                patch("qwalk.transfer.PGST_WINDOW", window):
            assert pgst_witness(g, u, v, target, t_cap) == ref
