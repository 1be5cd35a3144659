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
from qwalk.errors import BadParam, NoTransfer, Unreached
from qwalk.reproduce import CLAIM_SETS
from qwalk.spectral import FidelityCurve, exp_oracle
from qwalk.transfer import GRID_FLOOR, MAX_GRID, _grid_count, _refine


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


def test_pgst_witness_returns_the_earliest_run():
    # P_4 end to end passes 0.99 near t = 28.1 (0.9962) and again near 53.4
    # (0.99996): both runs lie in the first scan window and are refined
    # together, and the earlier one is the witness
    g = path_graph(4)
    rep = pgst_witness(g, vertex_state(0), vertex_state(3), 0.99, 100.0)
    assert abs(rep.tau - 28.0992589) < 1e-6
    assert 0.99 <= rep.fidelity < 0.997
    assert fidelity(g, vertex_state(0), vertex_state(3), 53.389) > 0.9999


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
    # stop there instead of looping forever
    peaks = 2 * math.pi * np.array([1432, 1910])  # t ~ 9000 and 12000
    calls, counting = _counted_curve_calls()
    with counting:
        ts, fs = _refine(curve, peaks - 0.01, peaks + 0.005)
    assert len(calls) <= max_calls
    np.testing.assert_allclose(ts, peaks, rtol=0, atol=t_tol)
    np.testing.assert_allclose(np.abs(fs), top, rtol=1e-15)


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
    with recording, patch("qwalk.transfer._refine", spy):
        est = sedentary_estimate(gd.graph, vertex_state(5), 30.0)
    (lo, hi), = brackets
    (_, count), = windows
    step = est.horizon / count
    assert np.all(np.diff(np.sort((lo + hi) / 2)) > 1.5 * step)


def test_sedentary_grid_follows_the_search_rule():
    # max(GRID_FLOOR, 64 M horizon) points: 64 * 3 * 30 = 5760 on h2p (M = 3)
    gd = named_gadget("h2p", p=5, tail_len=0)
    windows, recording = _grid_windows()
    with recording:
        sedentary_estimate(gd.graph, vertex_state(5), 30.0)
    assert windows == [(1, 5760)]
    # every sedentary claim case snaps to a short period: the floor
    for claim, _, run in CLAIM_SETS["sedentary"]:
        windows, recording = _grid_windows()
        with recording:
            assert run()[2], claim
        assert windows and all(w == (1, GRID_FLOOR) for w in windows), claim


@pytest.mark.parametrize("g, u, horizon", [
    (named_gadget("h2p", p=5, tail_len=0).graph, vertex_state(5), 30.0),
    (complete_graph(5), vertex_state(0), 10.0),
], ids=["h2p", "k5"])
def test_windowed_sedentary_matches_one_window(g, u, horizon):
    ref = sedentary_estimate(g, u, horizon)
    refined = []

    def spy(curve, lo, hi, sign=1.0):
        refined.append(_refine(curve, lo, hi, sign))
        return refined[-1]

    windows, recording = _grid_windows()
    with recording, patch("qwalk.transfer._refine", spy):
        assert sedentary_estimate(g, u, horizon) == ref
    (_, count), = windows  # the reference scan is one window
    # windows ending just before, at and just after the lowest minimum's grid
    # point, so the carry across a window edge decides it
    (ts, amps), = refined
    k = round(ts[np.argmin(np.abs(amps))] / (ref.horizon / count))
    for window in (1000, k - 1, k, k + 1):
        with patch("qwalk.transfer.PGST_WINDOW", window):
            assert sedentary_estimate(g, u, horizon) == ref


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
