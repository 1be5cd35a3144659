"""Reproduction matrix: the paper's claims, grouped into named sets for the CLI.

A transfer, sedentary or PGST claim is a list of labelled cases run by one
of three checks (``_pst``, ``_sedentary``, ``_pgst``).  A claim's ``expected``
text is the same on PASS and FAIL; a FAIL row's ``observed`` text names the
first failing case.  A claim builds its graphs when it runs, not at import."""

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
from .experiments import exhaustive_tree_experiment, run_tree_experiment
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
FIDELITY_AT = "fidelity {fidelity:.12f} at t={tau:.12g}"


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


# -- the three checks -----------------------------------------------------


def _pst(cases, passed: str = FIDELITY_AT) -> tuple[str, str, bool]:
    """check_pst on each (label, graph, src, dst, tau) case, in order.

    On a pass, ``passed`` is formatted with the worst fidelity and the last
    case's time."""
    worst = 1.0
    for label, g, src, dst, tau in cases:
        try:
            worst = min(worst, check_pst(g, src, dst, tau).fidelity)
        except NoTransfer as exc:
            observed = FIDELITY_AT.format(fidelity=exc.fidelity, tau=tau)
            return PST_EXPECT, f"{label}: {observed}", False
    return PST_EXPECT, passed.format(fidelity=worst, tau=tau), True


def _sedentary(expected: str, cases, passed: str) -> tuple[str, str, bool]:
    """sedentary_estimate on each (label, graph, state, horizon, bound) case:
    its grid minimum must reach the bound."""
    for label, g, state, horizon, bound in cases:
        est = sedentary_estimate(g, state, horizon)
        if est.grid_min < bound:
            return expected, f"{label}: {est.grid_min:.6f} < {bound:.6f}", False
    return expected, passed, True


def _pgst(g, src, dst, target: float) -> tuple[str, str, bool]:
    expected = f"fidelity >= {target} for some t <= 1e4"
    try:
        rep = pgst_witness(g, src, dst, target, 1e4)
    except Unreached as exc:
        return expected, f"best fidelity {exc.best_fidelity:.6f}", False
    return expected, f"fidelity {rep.fidelity:.6f} at t={rep.tau:.6f}", True


# -- cases ----------------------------------------------------------------


def _gadget(name: str, label: str | None = None, **kw):
    """A transfer case: a named gadget with its designated states and time."""
    gd = named_gadget(name, **kw)
    return label or name, gd.graph, gd.src, gd.dst, gd.tau


def _switched_c4(signs, src, dst):
    g = switch(named_gadget("c4_quotient").graph, SignVector(signs))
    return [("switched c4_quotient", g, src, dst, pi / (2 * sqrt(2.0)))]


def _quotient_matrix():
    g = named_gadget("c4_quotient").graph
    b = quotient(coarsest_equitable(g, Partition.of([(0, 1), (2,), (3, 4), (5,)])))
    target = sqrt(2.0) * cycle_graph(4).core_adjacency()
    resid = float(np.max(np.abs(b - target)))
    return ("quotient = sqrt2 * C_4 within 1e-10",
            f"max residual {resid:.3g}", resid < 1e-10)


def _hosts() -> list[tuple[str, WeightedGraph | None]]:
    rng = np.random.default_rng(7)
    n = 10
    mask = rng.random((n, n)) < 0.35
    edges = tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                  if mask[i, j])
    return [("K1", None), ("P4", path_graph(4)), ("C5", cycle_graph(5)),
            ("rand10", WeightedGraph(n, edges))]


def _p2_family(kind: str):
    return _pst((_gadget(kind, f"H={label}", h=h) for label, h in _hosts()),
                "worst fidelity over 4 hosts {fidelity:.12f}")


def _cross_negated_double(h: WeightedGraph) -> WeightedGraph:
    g = blow_up(h, 2)
    return negate_edges(g, [(a, b) for a, b, _ in g.edges if (a < h.n) != (b < h.n)])


def _layers(moduli, s1, s2, state, src, dst):
    """Transfer at pi/2 between the same two states in each of the four
    layers of a signed Cayley composition: vertex x of layer j is 4x + j."""
    g = compose_signed(cayley(CayleySpec(moduli, s1)), cayley(CayleySpec(moduli, s2)))
    return ((f"layer {j}", g, state(4 * src[0] + j, 4 * src[1] + j),
             state(4 * dst[0] + j, 4 * dst[1] + j), pi / 2) for j in range(4))


def _trees_exhaustive():
    rep = exhaustive_tree_experiment(6, verify=True)
    ok = rep.hit_count == 360 and rep.verified_count == rep.hit_count
    return ("360 of 1296 labelled 6-vertex trees carry the limb, all verified",
            f"{rep.hit_count} hits / {rep.sample_count}, "
            f"{rep.verified_count} verified", ok)


def _trees_exact():
    share = f"{exhaustive_tree_experiment(100).hit_fraction:.6f}"
    # the limb and its two signed variants on a star of 95 leaves: the
    # gadgets hang it on the star's centre, which gives limb_tree(100)
    star = WeightedGraph(96, tuple((0, v, 1.0) for v in range(1, 96)))
    _, observed, ok = _pst(
        (_gadget(kind, label, h=star) for label, kind in (
            ("pair", "p2_twins"), ("plus-plus", "p2_twins_signed_plusplus"),
            ("plus-pair", "p2_twins_signed_pluspair"))),
        f"share {share}; all three transfers pass")
    return ("limb share 0.602517 at n=100; 3 limb transfers at pi/2",
            observed, ok and share == "0.602517")


def _trees_sampled():
    reports = run_tree_experiment((8, 12, 16), 200, seed=2024)
    bad = [f"size {r.size}: {r.verified_count}/{r.hit_count}"
           for r in reports if r.verified_count != r.hit_count]
    observed = bad[0] if bad else ", ".join(f"n={r.size}: {r.hit_count}/200" for r in reports)
    return "every structural hit verifies at pi/2", observed, not bad


CLAIM_SETS: dict[str, list[tuple[str, str, object]]] = {
    "quotient": [
        ("quotient-plus", "6-vertex demo: plus transfer at pi/(2*sqrt2)",
         lambda: _pst([_gadget("c4_quotient")])),
        ("quotient-switch-pair", "switched variant: pair-to-pair transfer",
         lambda: _pst(_switched_c4((1, -1, 1, 1, -1, 1),
                                   pair_state(0, 1), pair_state(3, 4)))),
        ("quotient-switch-mixed", "switched variant: plus-to-pair transfer",
         lambda: _pst(_switched_c4((1, 1, 1, 1, -1, 1),
                                   plus_state(0, 1), pair_state(3, 4)))),
        ("quotient-matrix", "symmetrized quotient equals sqrt2 * C_4",
         _quotient_matrix),
    ],
    "gadgets": [
        ("p2-pair", "twin P_2 arms: pair transfer at pi/2 over 4 host graphs",
         lambda: _p2_family("p2_twins")),
        ("p2-plusplus", "switched twin P_2 arms: plus-to-plus at pi/2",
         lambda: _p2_family("p2_twins_signed_plusplus")),
        ("p2-pluspair", "switched twin P_2 arms: plus-to-pair at pi/2",
         lambda: _p2_family("p2_twins_signed_pluspair")),
        ("p3-layouts", "twin P_3 arms, both hub layouts, at pi/sqrt2",
         lambda: _pst((_gadget(name) for name in ("p3_twins_spur", "p3_twins_path")),
                      "both hub layouts pass at pi/sqrt2")),
    ],
    "blowups": [
        ("blowup-p2", "copies of P_2: fiber-sum transfer at pi/(2n)",
         lambda: _pst(((f"n={n}", blow_up(path_graph(2), n), fiber_sum_state(2, n, 0),
                        fiber_sum_state(2, n, 1), pi / (2 * n)) for n in (2, 3, 4)),
                      "copies 2,3,4 pass at pi/(2n)")),
        ("blowup-p3", "double P_3: fiber plus transfer at pi/(2*sqrt2)",
         lambda: _pst([("double P_3", blow_up(path_graph(3), 2), fiber_sum_state(3, 2, 0),
                        fiber_sum_state(3, 2, 2), pi / (2 * sqrt(2.0)))])),
        # cross-copy negation turns the frozen pair fibers into carriers at tau/2
        ("blowup-signed", "cross-negated double copies: pair fibers at tau/2",
         lambda: _pst(((f"P_{m}", _cross_negated_double(path_graph(m)), pair_state(a, m + a),
                        pair_state(b, m + b), tau / 2)
                       for m, tau, a, b in ((2, pi / 2, 0, 1), (3, pi / sqrt(2.0), 0, 2))),
                      "signed double copies of P_2 and P_3 pass at tau/2")),
    ],
    "sedentary": [
        ("sedentary-kn", "clique vertex states stay near start",
         lambda: _sedentary(
             "grid min >= (n-2)/n - 1e-6 over one period",
             ((f"K_{n}", complete_graph(n), vertex_state(0), 10.0, (n - 2) / n - 1e-6)
              for n in (3, 5, 8)),
             "K_3, K_5, K_8 vertex states pass")),
        ("sedentary-twins", "clique-twin pair states stay near start",
         lambda: _sedentary(
             "grid min >= 1 - 2/n - 1e-6",
             ((f"n={n}", gd.graph, gd.src, 60.0, 1 - 2 / n - 1e-6) for n in (3, 4, 5)
              for gd in [named_gadget("kn_twin_gadget", n=n)]),
             "clique-twin pair states pass for n=3,4,5")),
        ("sedentary-blowup", "double-clique plus states stay near start",
         lambda: _sedentary(
             "grid min >= (n-2)/n - 1e-6",
             ((f"double K_{n}", blow_up(complete_graph(n), 2), plus_state(0, n), 10.0,
               (n - 2) / n - 1e-6) for n in (3, 5, 8)),
             "double-copy clique plus states pass for n=3,5,8")),
    ],
    "cayley": [
        ("signed-c6", "two-negative-edge C_6: plus transfer at pi/2",
         lambda: _pst([("signed C_6", negate_edges(cycle_graph(6), [(3, 4), (0, 5)]),
                        plus_state(1, 5), plus_state(2, 4), pi / 2)])),
        ("cayley-z6z4", "signed circulant composition on 24 vertices",
         lambda: _pst(_layers((6, 4), ((1, 0), (5, 0)), ((0, 1), (0, 2), (0, 3)),
                              pair_state, (0, 2), (3, 5)),
                      "pair transfer passes for all 4 layers at pi/2")),
        ("cayley-z8z2z2", "signed circulant composition on 32 vertices",
         lambda: _pst(_layers((8, 2, 2), ((1, 0, 0), (7, 0, 0)),
                              ((0, 0, 1), (0, 1, 0), (0, 1, 1)), plus_state, (0, 4), (2, 6)),
                      "plus transfer passes on all 4 layers at pi/2")),
    ],
    "tails": [
        ("flyswatter-tails", "grid-with-handle pair transfer, all tail lengths",
         lambda: _pst((_gadget("flyswatter", f"tail {t or 'inf'}", tail_len=t)
                       for t in (1, 2, 4, 8, 0)),
                      "tail lengths 1,2,4,8 and certified infinite pass")),
        ("h2p-tails", "matched-cycle pair transfer, finite/infinite handles",
         lambda: _pst((_gadget("h2p", f"p={p}, tail {t or 'inf'}", p=p, tail_len=t)
                       for p in (3, 4, 5, 6) for t in (1, 3, 0)),
                      "p=3..6 with finite and infinite handles pass")),
        ("rooted-p3-tail", "hub-tail twin P_3 arms with infinite tail",
         lambda: _pst([_gadget("p3_twins_spur", tail_len=0)])),
    ],
    "pgst": [
        ("pgst-double-c8", "double C_8 antipodal plus fibers reach 0.999",
         lambda: _pgst(blow_up(cycle_graph(8), 2), fiber_sum_state(8, 2, 0),
                       fiber_sum_state(8, 2, 4), 0.999)),
        ("pgst-signed-c8", "signed C_8 plus states reach 0.99",
         lambda: _pgst(negate_edges(cycle_graph(8), [(0, 7), (3, 4)]),
                       plus_state(1, 7), plus_state(3, 5), 0.99)),
    ],
    "trees": [
        ("trees-exhaustive", "all labelled 6-vertex trees, exact limb count",
         _trees_exhaustive),
        ("trees-exact", "all labelled 100-vertex trees, exact limb share; "
         "signed limbs", _trees_exact),
        ("trees-sampled", "sampled trees n=8,12,16: hits all verify",
         _trees_sampled),
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
