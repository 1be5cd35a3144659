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
)
from qwalk.errors import NoTransfer, Unreached
from qwalk.spectral import exp_oracle
from qwalk.transfer import _golden_max


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


def test_pgst_witness_found_and_unreached():
    g = blow_up(cycle_graph(8), 2)
    rep = pgst_witness(g, fiber_sum_state(8, 2, 0), fiber_sum_state(8, 2, 4),
                       0.999, 1e4)
    assert rep.kind == "PGST-witness"
    assert rep.fidelity >= 0.999
    # P_6 end-to-end cannot reach 0.9999 quickly
    with pytest.raises(Unreached) as exc:
        pgst_witness(path_graph(6), vertex_state(0), vertex_state(5),
                     0.9999, 50.0)
    assert 0 < exc.value.best_fidelity < 0.9999


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


def test_golden_max_stops_where_one_ulp_exceeds_the_resolution():
    # past t = 8192 one ulp is wider than TIME_RESOLUTION; the bracket must
    # stop shrinking there instead of looping forever
    calls = []

    def f(ts):
        calls.append(len(ts))
        assert len(calls) < 1000, "refinement does not terminate"
        return -np.abs(ts - 9000.0031)

    ts, fs = _golden_max(f, [9000.0, 12000.0], [9000.01, 12000.5])
    np.testing.assert_allclose(ts, [9000.0031, 12000.0], rtol=0, atol=1e-11)
    assert _golden_max(f, [], [])[0].size == 0


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
    # on an infinite tail the pair state is answered on the decoupled
    # subspace of the core
    gd = named_gadget("flyswatter", tail_len=0)
    trunc = check_pst(gd.graph, gd.src, gd.dst, gd.tau).to_document()["truncation"]
    assert trunc["L"] == 0 and trunc["dim"] == 4 and trunc["residual"] < 1e-14
    est = sedentary_estimate(complete_graph(3), vertex_state(0), 5.0)
    doc = est.to_document()
    assert doc["period"] is not None


def test_decoupled_search_reaches_long_horizons():
    # far past the horizon a truncation can certify (t ~ 1500): every odd
    # multiple of pi/sqrt2, each pinned by the parabolic polish
    gd = named_gadget("flyswatter", tail_len=0)
    reps = search_pst(gd.graph, gd.src, gd.dst, 1400.0)
    period = math.pi / math.sqrt(2)
    assert len(reps) == 315
    assert all(abs(r.tau - (2 * k + 1) * period) < 1e-9 for k, r in enumerate(reps))
    cert = reps[0].certificate
    assert cert.L == 0 and cert.dim == 4 and cert.residual * cert.t < 1e-11


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
