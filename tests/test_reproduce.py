"""The claims matrix: the row each claim gives, pinned as literals, and the
text a failing claim reports."""

from types import SimpleNamespace

from qwalk import reproduce
from qwalk.errors import NoTransfer, Unreached
from qwalk.experiments import limb_tree
from qwalk.graphs import negate_edges
from qwalk.reproduce import CLAIM_SETS, run_claims

# (id, description, expected, observed) of every claim, in run_claims("all")
# order; every one passes
RECORDED_ROWS = [
    ('blowup-p2', 'copies of P_2: fiber-sum transfer at pi/(2n)',
     'fidelity >= 1 - 1e-9', 'copies 2,3,4 pass at pi/(2n)'),
    ('blowup-p3', 'double P_3: fiber plus transfer at pi/(2*sqrt2)',
     'fidelity >= 1 - 1e-9', 'fidelity 1.000000000000 at t=1.11072073454'),
    ('blowup-signed', 'cross-negated double copies: pair fibers at tau/2',
     'fidelity >= 1 - 1e-9', 'signed double copies of P_2 and P_3 pass at tau/2'),
    ('signed-c6', 'two-negative-edge C_6: plus transfer at pi/2',
     'fidelity >= 1 - 1e-9', 'fidelity 1.000000000000 at t=1.57079632679'),
    ('cayley-z6z4', 'signed circulant composition on 24 vertices',
     'fidelity >= 1 - 1e-9', 'pair transfer passes for all 4 layers at pi/2'),
    ('cayley-z8z2z2', 'signed circulant composition on 32 vertices',
     'fidelity >= 1 - 1e-9', 'plus transfer passes on all 4 layers at pi/2'),
    ('p2-pair', 'twin P_2 arms: pair transfer at pi/2 over 4 host graphs',
     'fidelity >= 1 - 1e-9', 'worst fidelity over 4 hosts 1.000000000000'),
    ('p2-plusplus', 'switched twin P_2 arms: plus-to-plus at pi/2',
     'fidelity >= 1 - 1e-9', 'worst fidelity over 4 hosts 1.000000000000'),
    ('p2-pluspair', 'switched twin P_2 arms: plus-to-pair at pi/2',
     'fidelity >= 1 - 1e-9', 'worst fidelity over 4 hosts 1.000000000000'),
    ('p3-layouts', 'twin P_3 arms, both hub layouts, at pi/sqrt2',
     'fidelity >= 1 - 1e-9', 'both hub layouts pass at pi/sqrt2'),
    ('pgst-double-c8', 'double C_8 antipodal plus fibers reach 0.999',
     'fidelity >= 0.999 for some t <= 1e4', 'fidelity 0.999817 at t=45.546322'),
    ('pgst-signed-c8', 'signed C_8 plus states reach 0.99',
     'fidelity >= 0.99 for some t <= 1e4', 'fidelity 1.000000 at t=2.221441'),
    ('quotient-plus', '6-vertex demo: plus transfer at pi/(2*sqrt2)',
     'fidelity >= 1 - 1e-9', 'fidelity 1.000000000000 at t=1.11072073454'),
    ('quotient-switch-pair', 'switched variant: pair-to-pair transfer',
     'fidelity >= 1 - 1e-9', 'fidelity 1.000000000000 at t=1.11072073454'),
    ('quotient-switch-mixed', 'switched variant: plus-to-pair transfer',
     'fidelity >= 1 - 1e-9', 'fidelity 1.000000000000 at t=1.11072073454'),
    ('quotient-matrix', 'symmetrized quotient equals sqrt2 * C_4',
     'quotient = sqrt2 * C_4 within 1e-10', 'max residual 0'),
    ('sedentary-kn', 'clique vertex states stay near start',
     'grid min >= (n-2)/n - 1e-6 over one period', 'K_3, K_5, K_8 vertex states pass'),
    ('sedentary-twins', 'clique-twin pair states stay near start',
     'grid min >= 1 - 2/n - 1e-6', 'clique-twin pair states pass for n=3,4,5'),
    ('sedentary-blowup', 'double-clique plus states stay near start',
     'grid min >= (n-2)/n - 1e-6', 'double-copy clique plus states pass for n=3,5,8'),
    ('flyswatter-tails', 'grid-with-handle pair transfer, all tail lengths',
     'fidelity >= 1 - 1e-9', 'tail lengths 1,2,4,8 and certified infinite pass'),
    ('h2p-tails', 'matched-cycle pair transfer, finite/infinite handles',
     'fidelity >= 1 - 1e-9', 'p=3..6 with finite and infinite handles pass'),
    ('rooted-p3-tail', 'hub-tail twin P_3 arms with infinite tail',
     'fidelity >= 1 - 1e-9', 'fidelity 1.000000000000 at t=2.22144146908'),
    ('trees-exhaustive', 'all labelled 6-vertex trees, exact limb count',
     '360 of 1296 labelled 6-vertex trees carry the limb, all verified',
     '360 hits / 1296, 360 verified'),
    ('trees-exact', 'all labelled 100-vertex trees, exact limb share; signed limbs',
     'limb share 0.602517 at n=100; 3 limb transfers at pi/2',
     'share 0.602517; all three transfers pass'),
    ('trees-sampled', 'sampled trees n=8,12,16: hits all verify',
     'every structural hit verifies at pi/2', 'n=8: 28/200, n=12: 38/200, n=16: 38/200'),
]

# the label of each claim's first case, which a FAIL row's observed text names;
# the pgst claims have one case and report the best fidelity they reached
FIRST_CASE = {
    "blowup-p2": "n=2", "blowup-p3": "double P_3", "blowup-signed": "P_2",
    "signed-c6": "signed C_6", "cayley-z6z4": "layer 0", "cayley-z8z2z2": "layer 0",
    "p2-pair": "H=K1", "p2-plusplus": "H=K1", "p2-pluspair": "H=K1",
    "p3-layouts": "p3_twins_spur", "pgst-double-c8": "best fidelity",
    "pgst-signed-c8": "best fidelity", "quotient-plus": "c4_quotient",
    "quotient-switch-pair": "switched c4_quotient",
    "quotient-switch-mixed": "switched c4_quotient", "sedentary-kn": "K_3",
    "sedentary-twins": "n=3", "sedentary-blowup": "double K_3",
    "flyswatter-tails": "tail 1", "h2p-tails": "p=3, tail 1",
    "rooted-p3-tail": "p3_twins_spur", "trees-exact": "pair",
}


def test_claims_give_their_recorded_rows():
    results = run_claims("all")
    rows = [(r.claim_id, r.description, r.expected, r.observed) for r in results]
    assert rows == RECORDED_ROWS
    assert all(r.ok for r in results)


def test_failing_claims_keep_their_expectation_and_name_the_first_case(monkeypatch):
    def no_transfer(*args):
        raise NoTransfer(0.5)

    def unreached(*args):
        raise Unreached(0.5)

    monkeypatch.setattr(reproduce, "check_pst", no_transfer)
    monkeypatch.setattr(reproduce, "pgst_witness", unreached)
    monkeypatch.setattr(reproduce, "sedentary_estimate",
                        lambda *args: SimpleNamespace(grid_min=0.0))
    expected = {row[0]: row[2] for row in RECORDED_ROWS}
    results = {r.claim_id: r for r in run_claims("all")}
    assert set(results) == set(FIRST_CASE) | {"quotient-matrix", "trees-exhaustive",
                                              "trees-sampled"}
    for claim_id, label in FIRST_CASE.items():
        r = results[claim_id]
        assert not r.ok, claim_id
        assert r.expected == expected[claim_id], claim_id
        assert r.observed.startswith(label), (claim_id, r.observed)
    assert results["p2-pair"].observed == "H=K1: fidelity 0.500000000000 at t=1.57079632679"
    assert results["sedentary-kn"].observed == "K_3: 0.000000 < 0.333332"
    assert results["pgst-signed-c8"].observed == "best fidelity 0.500000"
    # these check their hits in experiments, not through the patched names
    assert all(results[c].ok for c in ("quotient-matrix", "trees-exhaustive",
                                       "trees-sampled"))



def test_tree_limb_transfers_run_on_limb_tree_100(monkeypatch):
    # the p2_twins gadgets on a 95-leaf star: the limb and its two signed
    # variants on limb_tree(100)
    seen = []

    def record(g, *args):
        seen.append(g)
        return SimpleNamespace(fidelity=1.0)

    monkeypatch.setattr(reproduce, "check_pst", record)
    run = next(fn for cid, _, fn in CLAIM_SETS["trees"] if cid == "trees-exact")
    assert run()[2]
    tree = limb_tree(100)
    assert seen == [tree, negate_edges(tree, [(2, 3)]), negate_edges(tree, [(3, 4)])]
