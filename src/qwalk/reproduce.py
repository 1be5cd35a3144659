"""Reproduction matrix: a registry of numbered claims, each with a runner
that reports expected vs observed, grouped into named sets for the CLI."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .constructions import (
    CayleySpec,
    blow_up,
    cayley,
    complete_graph,
    cycle_graph,
    fiber_sum_state,
    named_gadget,
    path_graph,
)
from .errors import NoTransfer, QwalkError, Unreached
from .experiments import exhaustive_tree_experiment, limb_tree, run_tree_experiment
from .graphs import (
    WeightedGraph,
    negate_edges,
    pair_state,
    plus_state,
    vertex_state,
)
from .partition import Partition, coarsest_equitable, quotient
from .signed import SignVector, compose_signed, switch
from .transfer import check_pst, pgst_witness, sedentary_estimate

PST_EXPECT = "fidelity >= 1 - 1e-9"


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    description: str
    expected: str
    observed: str
    ok: bool
    runtime: float

    def to_row(self) -> dict:
        return {
            "id": self.claim_id,
            "description": self.description,
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.ok,
            "runtime_s": round(self.runtime, 3),
        }


def _pst(g, src, dst, tau) -> tuple[str, str, bool]:
    try:
        rep = check_pst(g, src, dst, tau)
        return PST_EXPECT, f"fidelity {rep.fidelity:.12f} at t={tau:.12g}", True
    except NoTransfer as exc:
        return PST_EXPECT, f"fidelity {exc.fidelity:.12f} at t={tau:.12g}", False


def _gadget_pst(name, **kw) -> tuple[str, str, bool]:
    gd = named_gadget(name, **kw)
    return _pst(gd.graph, gd.src, gd.dst, gd.tau)


# -- claim runners --------------------------------------------------------


def _quotient_demo_base() -> WeightedGraph:
    return named_gadget("c4_quotient").graph


def _claim_quotient_plus():
    return _gadget_pst("c4_quotient")


def _claim_quotient_switch_pair():
    g = switch(_quotient_demo_base(),
               SignVector((1, -1, 1, 1, -1, 1)))
    return _pst(g, pair_state(0, 1), pair_state(3, 4), pi / (2 * sqrt(2.0)))


def _claim_quotient_switch_mixed():
    g = switch(_quotient_demo_base(),
               SignVector((1, 1, 1, 1, -1, 1)))
    return _pst(g, plus_state(0, 1), pair_state(3, 4), pi / (2 * sqrt(2.0)))


def _claim_quotient_matrix():
    g = _quotient_demo_base()
    ed = coarsest_equitable(g, Partition.of([(0, 1), (2,), (3, 4), (5,)]))
    b = quotient(ed)
    target = sqrt(2.0) * cycle_graph(4).core_adjacency()
    resid = float(np.max(np.abs(b - target)))
    return ("quotient = sqrt2 * C_4 within 1e-10",
            f"max residual {resid:.3g}", resid < 1e-10)


def _h_variants() -> list[tuple[str, WeightedGraph | None, int]]:
    rng = np.random.default_rng(7)
    n = 10
    mask = rng.random((n, n)) < 0.35
    edges = tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                  if mask[i, j])
    rand10 = WeightedGraph(n, edges)
    return [("K1", None, 0), ("P4", path_graph(4), 0),
            ("C5", cycle_graph(5), 0), ("rand10", rand10, 0)]


def _claim_p2_family(kind: str):
    worst = 1.0
    for label, h, root in _h_variants():
        gd = named_gadget(kind, h=h, h_root=root)
        try:
            rep = check_pst(gd.graph, gd.src, gd.dst, gd.tau)
            worst = min(worst, rep.fidelity)
        except NoTransfer as exc:
            return (PST_EXPECT, f"failed for H={label}: {exc.fidelity:.12f}",
                    False)
    return PST_EXPECT, f"worst fidelity over 4 hosts {worst:.12f}", True


def _claim_p3_layouts():
    for name in ("p3_twins_spur", "p3_twins_path"):
        expected, observed, ok = _gadget_pst(name)
        if not ok:
            return expected, f"{name}: {observed}", False
    return PST_EXPECT, "both hub layouts pass at pi/sqrt2", True


def _claim_blowup_p2():
    for n in (2, 3, 4):
        g = blow_up(path_graph(2), n)
        src = fiber_sum_state(2, n, 0)
        dst = fiber_sum_state(2, n, 1)
        expected, observed, ok = _pst(g, src, dst, pi / (2 * n))
        if not ok:
            return expected, f"n={n}: {observed}", False
    return PST_EXPECT, "copies 2,3,4 pass at pi/(2n)", True


def _claim_blowup_p3():
    g = blow_up(path_graph(3), 2)
    return _pst(g, fiber_sum_state(3, 2, 0), fiber_sum_state(3, 2, 2),
                pi / (2 * sqrt(2.0)))


def _cross_negated_double(h: WeightedGraph) -> WeightedGraph:
    g = blow_up(h, 2)
    cross = [(a, b) for a, b, _ in g.edges
             if (a < h.n) != (b < h.n)]
    return negate_edges(g, cross)


def _claim_blowup_signed():
    # cross-copy negation turns the frozen pair fibers into carriers at tau/2
    for h, tau, a, b in ((path_graph(2), pi / 2, 0, 1),
                         (path_graph(3), pi / sqrt(2.0), 0, 2)):
        g = _cross_negated_double(h)
        src = pair_state(a, h.n + a)
        dst = pair_state(b, h.n + b)
        expected, observed, ok = _pst(g, src, dst, tau / 2)
        if not ok:
            return expected, observed, False
    return PST_EXPECT, "signed double copies of P_2 and P_3 pass at tau/2", True


def _claim_sedentary_kn():
    for n in (3, 5, 8):
        est = sedentary_estimate(complete_graph(n), vertex_state(0), 10.0)
        bound = (n - 2) / n - 1e-6
        if est.grid_min < bound:
            return (f"grid min >= (n-2)/n - 1e-6",
                    f"K_{n}: {est.grid_min:.6f} < {bound:.6f}", False)
    return ("grid min >= (n-2)/n - 1e-6 over one period",
            "K_3, K_5, K_8 vertex states pass", True)


def _claim_sedentary_twins():
    for n in (3, 4, 5):
        gd = named_gadget("kn_twin_gadget", n=n)
        est = sedentary_estimate(gd.graph, gd.src, 60.0)
        bound = 1 - 2 / n - 1e-6
        if est.grid_min < bound:
            return ("grid min >= 1 - 2/n - 1e-6",
                    f"n={n}: {est.grid_min:.6f} < {bound:.6f}", False)
    return ("grid min >= 1 - 2/n - 1e-6",
            "clique-twin pair states pass for n=3,4,5", True)


def _claim_sedentary_blowup():
    for n in (3, 5, 8):
        g = blow_up(complete_graph(n), 2)
        est = sedentary_estimate(g, plus_state(0, n), 10.0)
        bound = (n - 2) / n - 1e-6
        if est.grid_min < bound:
            return ("grid min >= (n-2)/n - 1e-6",
                    f"double K_{n}: {est.grid_min:.6f} < {bound:.6f}", False)
    return ("grid min >= (n-2)/n - 1e-6",
            "double-copy clique plus states pass for n=3,5,8", True)


def _claim_signed_c6():
    g = negate_edges(cycle_graph(6), [(3, 4), (0, 5)])
    return _pst(g, plus_state(1, 5), plus_state(2, 4), pi / 2)


def _compose_z6z4() -> WeightedGraph:
    moduli = (6, 4)
    s1 = CayleySpec(moduli, ((1, 0), (5, 0)))
    s2 = CayleySpec(moduli, tuple((0, j) for j in range(1, 4)))
    return compose_signed(cayley(s1), cayley(s2))


def _claim_cayley_z6z4():
    g = _compose_z6z4()
    for j in range(4):
        src = pair_state(0 * 4 + j, 2 * 4 + j)
        dst = pair_state(3 * 4 + j, 5 * 4 + j)
        expected, observed, ok = _pst(g, src, dst, pi / 2)
        if not ok:
            return expected, f"j={j}: {observed}", False
    return PST_EXPECT, "pair transfer passes for all 4 layers at pi/2", True


def _claim_cayley_z8z2z2():
    moduli = (8, 2, 2)
    s1 = CayleySpec(moduli, ((1, 0, 0), (7, 0, 0)))
    s2 = CayleySpec(moduli, ((0, 0, 1), (0, 1, 0), (0, 1, 1)))
    g = compose_signed(cayley(s1), cayley(s2))
    for j in range(4):
        src = plus_state(0 * 4 + j, 4 * 4 + j)
        dst = plus_state(2 * 4 + j, 6 * 4 + j)
        expected, observed, ok = _pst(g, src, dst, pi / 2)
        if not ok:
            return expected, f"layer {j}: {observed}", False
    return PST_EXPECT, "plus transfer passes on all 4 layers at pi/2", True


def _claim_flyswatter_tails():
    for tail_len in (1, 2, 4, 8, 0):
        gd = named_gadget("flyswatter", tail_len=tail_len)
        try:
            check_pst(gd.graph, gd.src, gd.dst, gd.tau)
        except NoTransfer as exc:
            return (PST_EXPECT,
                    f"tail {tail_len or 'inf'}: fidelity {exc.fidelity:.12f}",
                    False)
    return PST_EXPECT, "tail lengths 1,2,4,8 and certified infinite pass", True


def _claim_h2p_tails():
    for p in (3, 4, 5, 6):
        for tail_len in (1, 3, 0):
            gd = named_gadget("h2p", p=p, tail_len=tail_len)
            try:
                check_pst(gd.graph, gd.src, gd.dst, gd.tau)
            except NoTransfer as exc:
                return (PST_EXPECT,
                        f"p={p}, tail {tail_len or 'inf'}: "
                        f"fidelity {exc.fidelity:.12f}", False)
    return PST_EXPECT, "p=3..6 with finite and infinite handles pass", True


def _claim_rooted_p3_tail():
    gd = named_gadget("p3_twins_spur", tail_len=0)
    return _pst(gd.graph, gd.src, gd.dst, gd.tau)


def _claim_pgst_double_c8():
    g = blow_up(cycle_graph(8), 2)
    src = fiber_sum_state(8, 2, 0)
    dst = fiber_sum_state(8, 2, 4)
    try:
        rep = pgst_witness(g, src, dst, 0.999, 1e4)
        return ("fidelity >= 0.999 for some t <= 1e4",
                f"fidelity {rep.fidelity:.6f} at t={rep.tau:.6f}", True)
    except Unreached as exc:
        return ("fidelity >= 0.999 for some t <= 1e4",
                f"best fidelity {exc.best_fidelity:.6f}", False)


def _claim_pgst_signed_c8():
    g = negate_edges(cycle_graph(8), [(0, 7), (3, 4)])
    try:
        rep = pgst_witness(g, plus_state(1, 7), plus_state(3, 5), 0.99, 1e4)
        return ("fidelity >= 0.99 for some t <= 1e4",
                f"fidelity {rep.fidelity:.6f} at t={rep.tau:.6f}", True)
    except Unreached as exc:
        return ("fidelity >= 0.99 for some t <= 1e4",
                f"best fidelity {exc.best_fidelity:.6f}", False)


def _claim_trees_exhaustive():
    rep = exhaustive_tree_experiment(6, verify=True)
    ok = rep.hit_count == 360 and rep.verified_count == rep.hit_count
    return ("360 of 1296 labelled 6-vertex trees carry the limb, all verified",
            f"{rep.hit_count} hits / {rep.sample_count}, "
            f"{rep.verified_count} verified", ok)


def _claim_trees_exact():
    # the limb and its two signed variants (the p2_twins_signed_* patterns)
    # on limb_tree(100): arms 0-1 and 4-3 on the centre 2
    rep = exhaustive_tree_experiment(100)
    share = f"{rep.hit_fraction:.6f}"
    g = limb_tree(100)
    for label, h, src, dst in (
            ("pair", g, pair_state(0, 4), pair_state(1, 3)),
            ("plus-plus", negate_edges(g, [(2, 3)]), plus_state(0, 4), plus_state(1, 3)),
            ("plus-pair", negate_edges(g, [(3, 4)]), plus_state(0, 4), pair_state(1, 3))):
        expected, observed, ok = _pst(h, src, dst, pi / 2)
        if not ok:
            return expected, f"{label}: {observed}", False
    return ("limb share 0.602517 at n=100; 3 limb transfers at pi/2",
            f"share {share}; all three transfers pass", share == "0.602517")


def _claim_trees_sampled():
    reports = run_tree_experiment((8, 12, 16), 200, seed=2024)
    for rep in reports:
        if rep.verified_count != rep.hit_count:
            return ("every structural hit verifies at pi/2",
                    f"size {rep.size}: {rep.verified_count}/{rep.hit_count}",
                    False)
    obs = ", ".join(f"n={r.size}: {r.hit_count}/200" for r in reports)
    return "every structural hit verifies at pi/2", obs, True


CLAIM_SETS: dict[str, list[tuple[str, str, object]]] = {
    "quotient": [
        ("quotient-plus", "6-vertex demo: plus transfer at pi/(2*sqrt2)",
         _claim_quotient_plus),
        ("quotient-switch-pair", "switched variant: pair-to-pair transfer",
         _claim_quotient_switch_pair),
        ("quotient-switch-mixed", "switched variant: plus-to-pair transfer",
         _claim_quotient_switch_mixed),
        ("quotient-matrix", "symmetrized quotient equals sqrt2 * C_4",
         _claim_quotient_matrix),
    ],
    "gadgets": [
        ("p2-pair", "twin P_2 arms: pair transfer at pi/2 over 4 host graphs",
         lambda: _claim_p2_family("p2_twins")),
        ("p2-plusplus", "switched twin P_2 arms: plus-to-plus at pi/2",
         lambda: _claim_p2_family("p2_twins_signed_plusplus")),
        ("p2-pluspair", "switched twin P_2 arms: plus-to-pair at pi/2",
         lambda: _claim_p2_family("p2_twins_signed_pluspair")),
        ("p3-layouts", "twin P_3 arms, both hub layouts, at pi/sqrt2",
         _claim_p3_layouts),
    ],
    "blowups": [
        ("blowup-p2", "copies of P_2: fiber-sum transfer at pi/(2n)",
         _claim_blowup_p2),
        ("blowup-p3", "double P_3: fiber plus transfer at pi/(2*sqrt2)",
         _claim_blowup_p3),
        ("blowup-signed", "cross-negated double copies: pair fibers at tau/2",
         _claim_blowup_signed),
    ],
    "sedentary": [
        ("sedentary-kn", "clique vertex states stay near start",
         _claim_sedentary_kn),
        ("sedentary-twins", "clique-twin pair states stay near start",
         _claim_sedentary_twins),
        ("sedentary-blowup", "double-clique plus states stay near start",
         _claim_sedentary_blowup),
    ],
    "cayley": [
        ("signed-c6", "two-negative-edge C_6: plus transfer at pi/2",
         _claim_signed_c6),
        ("cayley-z6z4", "signed circulant composition on 24 vertices",
         _claim_cayley_z6z4),
        ("cayley-z8z2z2", "signed circulant composition on 32 vertices",
         _claim_cayley_z8z2z2),
    ],
    "tails": [
        ("flyswatter-tails", "grid-with-handle pair transfer, all tail lengths",
         _claim_flyswatter_tails),
        ("h2p-tails", "matched-cycle pair transfer, finite/infinite handles",
         _claim_h2p_tails),
        ("rooted-p3-tail", "hub-tail twin P_3 arms with infinite tail",
         _claim_rooted_p3_tail),
    ],
    "pgst": [
        ("pgst-double-c8", "double C_8 antipodal plus fibers reach 0.999",
         _claim_pgst_double_c8),
        ("pgst-signed-c8", "signed C_8 plus states reach 0.99",
         _claim_pgst_signed_c8),
    ],
    "trees": [
        ("trees-exhaustive", "all labelled 6-vertex trees, exact limb count",
         _claim_trees_exhaustive),
        ("trees-exact", "all labelled 100-vertex trees, exact limb share; "
         "signed limbs", _claim_trees_exact),
        ("trees-sampled", "sampled trees n=8,12,16: hits all verify",
         _claim_trees_sampled),
    ],
}


def available_sets() -> list[str]:
    return ["all"] + sorted(CLAIM_SETS)


def run_claims(set_name: str) -> list[ClaimResult]:
    if set_name == "all":
        claims = [c for name in sorted(CLAIM_SETS) for c in CLAIM_SETS[name]]
    elif set_name in CLAIM_SETS:
        claims = list(CLAIM_SETS[set_name])
    else:
        raise QwalkError(f"unknown claim set {set_name!r}; "
                         f"choose from {', '.join(available_sets())}")

    def run_one(claim) -> ClaimResult:
        claim_id, desc, fn = claim
        t0 = time.perf_counter()
        try:
            expected, observed, ok = fn()
        except QwalkError as exc:
            expected, observed, ok = "claim runs cleanly", f"error: {exc}", False
        return ClaimResult(claim_id, desc, expected, observed, ok,
                           time.perf_counter() - t0)

    return [run_one(claim) for claim in claims]


def matrix_json(results: list[ClaimResult]) -> str:
    return json.dumps({"claims": [r.to_row() for r in results]}, indent=2)


def matrix_table(results: list[ClaimResult]) -> str:
    rows = [("id", "pass", "expected", "observed")]
    rows += [(r.claim_id, "PASS" if r.ok else "FAIL", r.expected, r.observed)
             for r in results]
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
