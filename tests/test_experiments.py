import heapq
import os
import random
import re
import sys
from itertools import combinations, permutations, product
from math import comb, e, factorial, perm, pi

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk import (
    LimbReport,
    TwinStructure,
    WeightedGraph,
    complete_graph,
    exhaustive_tree_experiment,
    find_p5_limb,
    named_gadget,
    path_graph,
    random_tree,
    run_tree_experiment,
)
from qwalk import experiments, spectral
from qwalk.errors import BadParam, NoTransfer, NotATree
from qwalk.experiments import (_limbs, _prufer_edges, _Stream, _tree_edges, _verify_hits,
                               limb_tree, prufer_decode)
from qwalk.graphs import pair_state
from qwalk.spectral import transfer_amplitude, transfer_curve
from qwalk.transfer import check_pst
from tree_census import _free_trees, _tree_class

# random_tree(n, (2024, n, k)) as drawn before the draws were unboxed with
# tolist(): the same seeds must keep giving the same trees
RECORDED_TREES = {
    (3, 0): [(0, 1), (0, 2)],
    (6, 1): [(0, 5), (1, 4), (1, 5), (2, 3), (3, 5)],
    (8, 2): [(0, 3), (1, 6), (2, 5), (2, 6), (2, 7), (3, 7), (4, 7)],
    (12, 3): [(0, 6), (0, 8), (0, 11), (1, 2), (1, 4), (1, 11), (3, 10), (4, 7),
              (5, 6), (8, 9), (8, 10)],
    (24, 4): [(0, 5), (0, 9), (0, 22), (1, 3), (1, 6), (2, 9), (2, 13), (2, 14),
              (3, 11), (3, 21), (4, 10), (6, 7), (6, 8), (6, 12), (6, 13),
              (8, 10), (9, 15), (10, 23), (12, 17), (13, 18), (16, 20),
              (16, 23), (17, 19)],
}

# OEIS A000055: free trees on n = 1..18 vertices
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551,
                    1301, 3159, 7741, 19320, 48629, 123867]

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_random_tree_basics():
    assert random_tree(2, 0) == path_graph(2)
    g = random_tree(3, 123)
    assert len(g.edges) == 2  # every 3-vertex tree is a path
    # deterministic per seed
    assert random_tree(8, 42) == random_tree(8, 42)
    assert random_tree(8, 42) != random_tree(8, 43)


def test_random_tree_keeps_recorded_draws():
    for (n, k), edges in RECORDED_TREES.items():
        assert [(a, b) for a, b, _ in random_tree(n, (2024, n, k)).edges] == edges


def test_prufer_decode_known():
    # sequence (3,3,3,4) on 6 vertices: classic worked example
    g = prufer_decode((3, 3, 3, 4), 6)
    assert len(g.edges) == 5
    assert sorted(len(g.neighbors(v)) for v in range(6)) == [1, 1, 1, 1, 2, 4]


@pytest.mark.parametrize("decode", [
    lambda: prufer_decode((), 4),          # too short
    lambda: prufer_decode((9,), 3),        # entry out of range
    lambda: prufer_decode((0, 0, 0), 4),   # too long
    lambda: prufer_decode((True, 0), 4),   # bool entry
    lambda: random_tree(7.5, 0),
    lambda: random_tree("8", 0),
    lambda: random_tree(8, None),          # would draw an unseeded tree
    lambda: random_tree(8, 1.5),
    lambda: random_tree(8, "x"),
    lambda: random_tree(8, -1),
    lambda: random_tree(8, (2024, 1.5)),
    lambda: random_tree(8, (2024, -1)),
    lambda: run_tree_experiment(8, 10, 1),  # sizes must be an iterable
    lambda: random_tree(8, ()),            # would draw seed 0's tree
])
def test_malformed_trees_are_refused(decode):
    with pytest.raises(BadParam):
        decode()


def test_find_limb_minimal_spider():
    # center 2 with two pendant P_2 arms: the 5-vertex path
    ts = find_p5_limb(path_graph(5))
    assert ts is not None
    assert set(ts.x1) | set(ts.x2) == {0, 1, 3, 4}


def test_find_limb_absent():
    star = WeightedGraph(8, tuple((0, i, 1.0) for i in range(1, 8)))
    assert find_p5_limb(star) is None
    assert find_p5_limb(path_graph(9)) is None  # no pendant P_2 pair
    with pytest.raises(NotATree):
        find_p5_limb(complete_graph(4))


def test_exhaustive_n6_matches_combinatorial_oracle():
    # oracle: trees with the limb on 6 labelled vertices are exactly the
    # "cross" trees: center c, one extra leaf e on c, and two P_2 arms from
    # the remaining 4 vertices
    oracle = set()
    for vertices in [tuple(range(6))]:
        for c in vertices:
            rest = [v for v in vertices if v != c]
            for e in rest:
                arm_pool = [v for v in rest if v != e]
                for mids in combinations(arm_pool, 2):
                    leaves = [v for v in arm_pool if v not in mids]
                    for pm in permutations(mids):
                        edges = frozenset({
                            frozenset({c, e}),
                            frozenset({c, pm[0]}), frozenset({pm[0], leaves[0]}),
                            frozenset({c, pm[1]}), frozenset({pm[1], leaves[1]}),
                        })
                        oracle.add(edges)
    assert len(oracle) == 360

    rep = exhaustive_tree_experiment(6)
    assert rep.sample_count == 6 ** 4
    assert rep.hit_count == 360
    assert rep.verified_count == rep.hit_count


def _transfers(g, arms):
    """Whether the pair transfer leaves -> midpoints of the limb ``arms``
    passes ``check_pst`` at pi/2: the survey verifier's oracle."""
    (l1, m1), (l2, m2) = arms
    try:
        check_pst(g, pair_state(l1, l2), pair_state(m1, m2), pi / 2)
    except NoTransfer:
        return False
    return True


def _labelled_walk(n):
    """The census's oracle: every one of the n^(n-2) Pruefer sequences."""
    total = hits = verified = 0
    for seq in product(range(n), repeat=n - 2):
        total += 1
        g = prufer_decode(seq, n)
        ts = find_p5_limb(g)
        if ts is not None:
            hits += 1
            verified += _transfers(g, (ts.x1, ts.x2))
    return total, hits, verified


@pytest.mark.parametrize("n", [6, 7])
def test_census_matches_labelled_walk(n):
    rep = exhaustive_tree_experiment(n, verify=True)
    assert (rep.sample_count, rep.hit_count, rep.verified_count) == _labelled_walk(n)


def test_census_n8_matches_recorded_walk():
    # the labelled walk over 262144 sequences gave these counts
    rep = exhaustive_tree_experiment(8, verify=True)
    assert (rep.sample_count, rep.hit_count, rep.verified_count) == (262144, 40320, 40320)


def test_census_rejects_bad_sizes():
    for n in (7.0, "7", None):
        with pytest.raises(BadParam):
            exhaustive_tree_experiment(n)
    with pytest.raises(NotATree):
        exhaustive_tree_experiment(5)


def test_free_trees_one_per_class():
    for n, count in enumerate(FREE_TREE_COUNTS[:12], start=1):
        trees = list(_free_trees(n))
        assert len(trees) == count
        assert all(g.n == n and len(g.edges) == n - 1 for g in trees)
        assert len({_tree_class(g)[0] for g in trees}) == count
        # Cayley: the classes' labellings n!/|Aut T| make up every labelled tree
        assert sum(factorial(n) // _tree_class(g)[1] for g in trees) == n ** (n - 2)


def test_automorphism_count_brute_force():
    for n in range(1, 8):
        for g in _free_trees(n):
            edges = {frozenset((a, b)) for a, b, _ in g.edges}
            brute = sum(
                all(frozenset((perm[a], perm[b])) in edges for a, b in map(tuple, edges))
                for perm in permutations(range(n)))
            assert _tree_class(g)[1] == brute


def test_exact_count_matches_census():
    for n in range(6, 13):
        total = hits = 0
        for g in _free_trees(n):
            weight = factorial(n) // _tree_class(g)[1]
            total += weight
            hits += weight * (find_p5_limb(g) is not None)
        rep = exhaustive_tree_experiment(n)
        assert (rep.sample_count, rep.hit_count) == (total, hits)


def _limb_free_by_comb(top):
    """The limb-free counts for n = 6, ..., top from exhaustive_tree_experiment's
    recurrence with one math.comb per term: its earlier form, kept as an
    oracle (a_k and b_k do not depend on n)."""
    a = [0] * (top + 1)
    b = [1] + [0] * top
    for k in range(1, top + 1):
        a[k] = k * b[k - 1] + (k * (k - 1) * (k - 2) * b[k - 3] if k >= 3 else 0)
        b[k] = sum(comb(k - 1, j - 1) * a[j] * b[k - j] for j in range(1, k + 1))
        if k >= 2:
            b[k] -= 2 * (k - 1) * b[k - 2]
    return {n: (a[n] - 2 * perm(n, 5) * b[n - 5]) // n for n in range(6, top + 1)}


def test_limb_count_matches_the_binomial_recurrence():
    for n, limb_free in _limb_free_by_comb(150).items():
        assert exhaustive_tree_experiment(n).hit_count == n ** (n - 2) - limb_free, n


def test_every_census_hit_class_verifies():
    # the per-class check that the one verification on limb_tree(n) replaces
    checked = 0
    for n in range(6, 10):
        for g in _free_trees(n):
            ts = find_p5_limb(g)
            if ts is not None:
                assert _transfers(g, (ts.x1, ts.x2))
                arms = np.array([[ts.x1, ts.x2]])
                assert _verify_hits(_tree_edges(g), arms, n).tolist() == [True]
                checked += 1
    assert checked > 0


def _refuse_all(edges, arms, n):
    return np.zeros(len(arms), bool)


def test_failed_verification_verifies_nothing(monkeypatch):
    monkeypatch.setattr(experiments, "_verify_hits", _refuse_all)
    rep = exhaustive_tree_experiment(8, verify=True)
    assert (rep.hit_count, rep.verified_count) == (40320, 0)


def test_failed_transfer_counts_as_unverified(monkeypatch):
    # arms that are not a limb: on limb_tree(9) (arms 0-1 and 4-3 on the
    # centre 2), a midpoint swapped for the centre's extra leaf 5
    edges = _tree_edges(limb_tree(9))
    arms = np.array([[[0, 1], [4, 3]], [[0, 1], [4, 5]], [[0, 5], [4, 3]]])
    assert _verify_hits(np.repeat(edges, 3, axis=0), arms, 9).tolist() == [True, False, False]
    # a verifier that passes nothing leaves every hit unverified and raises
    # nothing
    monkeypatch.setattr(experiments, "_verify_hits", _refuse_all)
    (rep,) = run_tree_experiment([8], 60, seed=7)
    assert rep.hit_count > 0 and rep.verified_count == 0


def test_limb_tree_carries_the_limb():
    g = limb_tree(9)
    ts = find_p5_limb(g)
    assert (ts.x1, ts.x2) == ((0, 1), (4, 3))
    assert sorted(len(g.neighbors(v)) for v in range(9)) == [1] * 6 + [2, 2, 6]


def _readme_rows(columns):
    """Cells of the README table rows that have ``columns`` cells and start
    with a number."""
    with open(README, encoding="utf-8") as fh:
        cells = [[c.strip() for c in line.strip().strip("|").split("|")]
                 for line in fh if line.startswith("|")]
    return [row for row in cells if len(row) == columns and row[0].isdigit()]


def test_readme_limb_table_is_true():
    rows = _readme_rows(5)
    assert [int(row[0]) for row in rows] == list(range(6, 19))
    for n, free, labelled, limb, fraction in rows:
        rep = exhaustive_tree_experiment(int(n))
        assert int(free) == FREE_TREE_COUNTS[int(n) - 1]
        assert (int(labelled), int(limb)) == (rep.sample_count, rep.hit_count)
        assert fraction == f"{rep.hit_fraction:.6f}"


def test_readme_large_n_shares_are_true():
    rows = _readme_rows(2)
    assert [int(row[0]) for row in rows] == [30, 50, 70, 100, 200]
    for n, share in rows:
        assert share == f"{exhaustive_tree_experiment(int(n)).hit_fraction:.6f}"


def test_limb_free_share_rate():
    # rho solves x(1+x^2)e^(1-x^2) = 1, where the limb-free planted trees'
    # generating function reaches 1; the share of limb-free trees decays
    # like C (e rho)^-n
    lo, hi = 0.3, 0.4
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid * (1 + mid ** 2) * e ** (1 - mid ** 2) < 1 else (lo, mid)
    stated = [f"rho = {lo:.6f}", f"e*rho = {e * lo:.6f}"]
    assert stated == ["rho = 0.371091", "e*rho = 1.008730"]
    for n, product in ((100, "0.9480"), (150, "0.9488"), (200, "0.9492")):
        rep = exhaustive_tree_experiment(n)
        share = (rep.sample_count - rep.hit_count) / rep.sample_count
        assert f"{share * (e * lo) ** n:.4f}" == product
        stated.append(product)
    for n, share in ((74, 0.5), (259, 0.9)):
        assert (exhaustive_tree_experiment(n - 1).hit_fraction < share
                <= exhaustive_tree_experiment(n).hit_fraction)
        stated.append(f"{share:g} at n = {n}")
    with open(README, encoding="utf-8") as fh:
        text = re.sub(r"\s+", " ", fh.read())
    assert all(s in text for s in stated)


def test_run_experiment_hits_all_verify():
    reports = run_tree_experiment([8], 60, seed=7)
    (rep,) = reports
    assert rep.sample_count == 60
    assert rep.verified_count == rep.hit_count
    assert 0 < rep.hit_fraction < 1


def test_empty_experiment():
    (rep,) = run_tree_experiment([8], 0, seed=1)
    assert rep.sample_count == 0 and rep.hit_fraction == 0.0


def test_run_experiment_rejects_bad_params():
    for sizes, samples, seed in (((7.5,), 3, 1), ((8,), 2.5, 1), ((8,), -1, 1),
                                 ((8,), 3, 1.0), ((8,), 3, -1), ((True,), 3, 1),
                                 (("8",), 3, 1), ((8,), None, 1)):
        with pytest.raises(BadParam):
            run_tree_experiment(sizes, samples, seed=seed)
    with pytest.raises(NotATree):
        run_tree_experiment((5,), 3, seed=1)


# -- the per-tree survey path, one validated graph per sampled tree, its limb
# found by a scan over centres and its transfer checked by check_pst: the
# oracle that the lockstep decoder, the limb finder and the verifier must
# agree with

def _heap_decode(seq, n):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v, 1.0))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w, 1.0))
    return WeightedGraph(n, tuple(edges))


def _centre_scan_limb(g):
    """First centre in vertex order with two arms, and its first two arms in
    (ascending) neighbour order."""
    nbrs = g.adjacency_lists
    for c in range(g.n):
        arms = []
        for m in nbrs[c]:
            mid = nbrs[m]
            if len(mid) != 2:
                continue
            leaf = mid[1] if mid[0] == c else mid[0]
            if len(nbrs[leaf]) == 1:
                arms.append((leaf, m))
                if len(arms) == 2:
                    return tuple(arms)
    return None


def _per_tree_survey(sizes, samples, seed):
    """Reports and (sequence, graph, arms) hits of the survey, one validated
    graph and twin structure per sampled tree."""
    reports, hits = [], []
    for size in sizes:
        hit_count = verified = 0
        rows = np.random.default_rng((seed, size)).integers(0, size, (samples, size - 2))
        for seq in rows.tolist():
            g = _heap_decode(seq, size)
            arms = _centre_scan_limb(g)
            if arms is None:
                continue
            hit_count += 1
            hits.append((seq, g, arms))
            TwinStructure.of(g, *arms)
            verified += _transfers(g, arms)
        reports.append(LimbReport(size, samples, hit_count, verified))
    return reports, hits


@pytest.mark.parametrize("seed", [0, 7, 2024, 2 ** 32 + 11, 3 ** 40])
def test_survey_matches_per_tree_path(seed, monkeypatch):
    rng = random.Random(seed)
    sizes = [rng.randint(6, 40) for _ in range(rng.randint(1, 3))]
    samples = rng.randint(0, 60)
    expected, expected_hits = _per_tree_survey(sizes, samples, seed)
    hits = []

    def record(edges, arms, n):
        hits.extend((WeightedGraph(n, tuple((a, b, 1.0) for a, b in e)),
                     tuple(map(tuple, a))) for e, a in zip(edges.tolist(), arms.tolist()))
        return _verify_hits(edges, arms, n)

    monkeypatch.setattr(experiments, "_verify_hits", record)
    assert run_tree_experiment(sizes, samples, seed) == expected
    assert len(hits) == len(expected_hits)
    for (g, arms), (seq, g_ref, arms_ref) in zip(hits, expected_hits):
        assert g == g_ref == prufer_decode(tuple(seq), g.n)
        assert arms == arms_ref


def test_list_decoder_and_leaf_limb_match_per_tree_path():
    # one block per size, decoded and searched as the survey does, rows with
    # and without a limb alike
    rng = np.random.default_rng(13)
    for n in range(2, 41):
        seqs = rng.integers(0, n, (40, n - 2))
        edges = _prufer_edges(seqs, n)
        assert edges.shape == (40, n - 1, 2)
        found, arms = _limbs(edges, n)
        limbs = dict(zip(found.tolist(), arms.tolist()))
        assert found.tolist() == sorted(limbs)  # one limb per row, rows in order
        for row, seq in enumerate(seqs.tolist()):
            g = _heap_decode(seq, n)
            assert {tuple(sorted(e)) for e in edges[row].tolist()} == {
                (a, b) for a, b, _ in g.edges}
            assert prufer_decode(tuple(seq), n) == g
            ts = find_p5_limb(g)
            expected = _centre_scan_limb(g)
            assert expected == (None if ts is None else (ts.x1, ts.x2))
            got = limbs.get(row)
            assert (None if got is None else tuple(map(tuple, got))) == expected
    found, arms = _limbs(np.zeros((0, 5, 2), np.int64), 6)
    assert found.shape == (0,) and arms.shape == (0, 2, 2)


@pytest.mark.parametrize("seed", [3, 29])
def test_verifier_amplitudes_match_transfer_amplitude(seed):
    # a limb's hit goes to its midpoints with amplitude exactly i
    rng = np.random.default_rng(seed)
    checked = 0
    for n in range(6, 41, 2):
        seqs = rng.integers(0, n, (30, n - 2))
        edges = _prufer_edges(seqs, n)
        found, arms = _limbs(edges, n)
        assert _verify_hits(edges[found], arms, n).all()
        for row, ((l1, m1), (l2, m2)) in zip(found.tolist(), arms.tolist()):
            g = prufer_decode(tuple(seqs[row].tolist()), n)
            ref, _ = transfer_amplitude(g, pair_state(l1, l2), pair_state(m1, m2), pi / 2)
            assert abs(ref - 1j) < 1e-12
            checked += 1
    assert checked > 50


def _dense_adjacency(edges, n):
    rows = np.arange(len(edges))[:, None]
    a = np.zeros((len(edges), n, n))
    a[rows, edges[:, :, 0], edges[:, :, 1]] = a[rows, edges[:, :, 1], edges[:, :, 0]] = 1
    return a


def _dense_amplitudes(edges, arms, n):
    """The verifier's oracle: v* e^(i pi A/2) u for the pair states of each
    row's leaves (l1, l2) and midpoints (m1, m2), on the full spectrum of the
    tree's dense adjacency A: sum_k (phi_k[m1] - phi_k[m2])(phi_k[l1] -
    phi_k[l2])/2 e^(i pi lambda_k/2)."""
    rows = np.arange(len(edges))
    lam, phi = np.linalg.eigh(_dense_adjacency(edges, n))
    (l1, m1), (l2, m2) = arms.transpose(1, 2, 0)
    d = (phi[rows, m1] - phi[rows, m2]) * (phi[rows, l1] - phi[rows, l2])
    return (d * np.exp(0.5j * pi * lam)).sum(axis=1) / 2


def _dense_signs(edges, arms, n):
    """x^T A y / 2 per row, for x = e_l1 - e_l2 and y = e_m1 - e_m2 on the
    dense adjacency: the s of A x = s y where that holds."""
    rows = np.arange(len(edges))
    (l1, m1), (l2, m2) = arms.transpose(1, 2, 0)
    a = _dense_adjacency(edges, n)
    return (a[rows, l1, m1] - a[rows, l1, m2] - a[rows, l2, m1] + a[rows, l2, m2]) / 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(6, 40), st.integers(0, 2 ** 32 - 1))
def test_krylov_amplitudes_match_the_dense_oracle(n, seed):
    # real hits, and wrong arms: a hit's second leaf moved to another vertex,
    # and four vertices drawn at random.  A verified row's transfer is
    # exact: its dense amplitude is i s, s = +1 on every real hit
    rng = np.random.default_rng(seed)
    edges = _prufer_edges(rng.integers(0, n, (30, n - 2)), n)
    found, arms = _limbs(edges, n)
    assert _verify_hits(edges[found], arms, n).all()
    assert np.all(_dense_signs(edges[found], arms, n) == 1)
    moved = arms.copy()
    moved[:, 1, 0] = rng.integers(0, n, len(arms))
    drawn = rng.integers(0, n, (len(edges), 2, 2))
    for rows, wrong in ((edges[found], arms), (edges[found], moved), (edges, drawn)):
        verified = _verify_hits(rows, wrong, n)
        amp = _dense_amplitudes(rows[verified], wrong[verified], n)
        sign = _dense_signs(rows[verified], wrong[verified], n)
        assert np.all(np.abs(sign) == 1) and np.all(np.abs(amp - 1j * sign) < 1e-12)


def test_wrong_arms_fail_on_the_amplitude_or_the_residual():
    # limb_tree(9)'s leaves 0 and 4 go to their midpoints 1 and 3; to the
    # midpoint 1 and the centre's extra leaf 5 only half the amplitude goes
    edges, arms = _tree_edges(limb_tree(9)), np.array([[[0, 1], [4, 5]]])
    assert abs(abs(_dense_amplitudes(edges, arms, 9)[0]) - 0.5) < 1e-15
    assert _verify_hits(edges, arms, 9).tolist() == [False]
    # arms that repeat a leaf or a midpoint make x or y zero, and A.0 = 0
    arms = np.array([[[0, 1], [0, 1]], [[0, 1], [0, 3]], [[0, 1], [4, 1]]])
    assert _verify_hits(np.repeat(edges, 3, axis=0), arms, 9).tolist() == [False] * 3
    # the arms 0-1 and 4-3 of the path 0-...-4, with a sixth vertex hung on
    # the leaf 0 or the midpoint 1: A.B != B.T, so the pair state's space
    # does not close, and the transfer is refused
    arms = np.array([[[0, 1], [4, 3]]] * 2)
    path = [(0, 1), (1, 2), (2, 3), (3, 4)]
    edges = np.array([path + [(0, 5)], path + [(1, 5)]])
    assert np.all(np.abs(_dense_amplitudes(edges, arms, 6)) < 1 - 1e-3)
    assert _verify_hits(edges, arms, 6).tolist() == [False, False]
    # the leaves 1 and 3 of the vertex 0, each as its own midpoint: A x = 0,
    # so their pair state stays put, with amplitude 1 to itself and -1 to
    # its negative, which is no transfer to the midpoints
    tree = [(0, 1), (0, 2), (0, 3), (2, 4), (4, 5)]
    edges, arms = np.array([tree] * 2), np.array([[[1, 1], [3, 3]], [[1, 3], [3, 1]]])
    assert np.allclose(_dense_amplitudes(edges, arms, 6), [1, -1], atol=1e-12)
    g = WeightedGraph(6, tuple((a, b, 1.0) for a, b in tree))
    amp, _ = transfer_amplitude(g, pair_state(1, 3), pair_state(1, 3), pi / 2)
    assert abs(amp - 1) < 1e-12
    assert _verify_hits(edges, arms, 6).tolist() == [False, False]


def test_survey_makes_no_dense_eigh(monkeypatch):
    # nor any eigensolver or Krylov basis at all: its verdicts are exact
    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError(f"the survey built {what}")
        return call

    monkeypatch.setattr(np.linalg, "eigh", refuse("an eigendecomposition"))
    lanczos = spectral._lanczos
    for name, module in list(sys.modules.items()):  # every imported copy
        if name.split(".")[0] == "qwalk" and getattr(module, "_lanczos", None) is lanczos:
            monkeypatch.setattr(module, "_lanczos", refuse("a Krylov basis"))
    (rep,) = run_tree_experiment((24,), 200, 5)
    assert rep.hit_count > 0 and rep.verified_count == rep.hit_count
    rep = exhaustive_tree_experiment(40, verify=True)
    assert rep.verified_count == rep.hit_count > 0
    # the refusals do see an eigensolver and a Krylov basis
    with pytest.raises(AssertionError, match="eigendecomposition"):
        np.linalg.eigh(np.eye(2))
    gd = named_gadget("flyswatter", tail_len=0)
    with pytest.raises(AssertionError, match="Krylov basis"):
        transfer_curve(gd.graph, gd.src, gd.dst, gd.tau)


def test_survey_builds_no_graph(monkeypatch):
    built = []
    init = WeightedGraph.__init__

    def count(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WeightedGraph, "__init__", count)
    (rep,) = run_tree_experiment((16,), 200, 5)
    assert rep.hit_count > 0 and rep.verified_count == rep.hit_count
    assert built == []
    prufer_decode((3, 3, 3, 4), 6)
    assert len(built) == 1  # the counter does see a graph being built


# -- the survey's draws against NumPy's generator, their reference

# row k of the survey's stream for seed 2024 at size n: the same seeds must
# keep giving the same trees
RECORDED_ROWS = {
    (6, 1): [5, 4, 5, 4],
    (8, 2): [4, 0, 5, 6, 2, 3],
    (12, 3): [6, 1, 0, 8, 6, 1, 8, 5, 9, 8],
    (24, 4): [16, 4, 21, 3, 17, 12, 22, 10, 5, 6, 3, 3, 9, 8, 2, 9, 9, 6, 13, 5,
              19, 1],
}


def _numpy_rows(seed, bound, rows, count):
    return np.random.default_rng(seed).integers(0, bound, (rows, count))


def _taken_rows(stream, splits, count):
    """The rows a stream gives when taken in blocks of ``splits`` rows."""
    rows = [stream.take(block * count).reshape(block, count) for block in splits]
    assert all(r.dtype == np.int64 for r in rows)
    return np.concatenate(rows)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 1, 2 ** 31 - 1, 2 ** 32, 2 ** 32 + 11, 3 ** 40, 2 ** 64])
def test_pinned_integers_match_numpy(seed):
    # 2 ** 32 and up give the seed two or three entropy words; the takes
    # split the rows at odd word counts, so values wait across them
    splits = (2, 1, 37, 20)
    for size in range(2, 65):
        got = _taken_rows(_Stream((seed, size), size), splits, size - 2)
        assert np.array_equal(got, _numpy_rows((seed, size), size, sum(splits), size - 2)), \
            (seed, size)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bound, count", [
    (3 * 2 ** 30 + 1, 50),      # ~25 % of words rejected: most takes draw again
    (4252017623, 49),           # ~1 % rejected: some takes draw again
])
def test_pinned_integers_reject_like_numpy(bound, count):
    splits = (5, 1, 34)
    got = _taken_rows(_Stream((2024, 7), bound), splits, count)
    assert np.array_equal(got, _numpy_rows((2024, 7), bound, sum(splits), count))


def test_pinned_integers_keep_recorded_draws():
    # the survey's own stream gives the recorded rows, not only NumPy's
    for (n, k), seq in RECORDED_ROWS.items():
        rows = _taken_rows(_Stream((2024, n), n), (k, 1), n - 2)
        assert rows[k].tolist() == seq
        assert _numpy_rows((2024, n), n, k + 1, n - 2)[k].tolist() == seq


def _survey_rows(monkeypatch, sizes, samples, seed):
    """The Pruefer rows the survey decodes, per size."""
    rows = {}

    def record(seqs, n):
        rows.setdefault(n, []).append(seqs.copy())
        return _prufer_edges(seqs, n)

    monkeypatch.setattr(experiments, "_prufer_edges", record)
    run_tree_experiment(sizes, samples, seed)
    return {n: np.concatenate(blocks) for n, blocks in rows.items()}


@pytest.mark.parametrize("block", [40, 97, experiments.DRAW_BLOCK])
def test_survey_rows_are_one_stream_per_size(block, monkeypatch):
    # whatever the block, tree k of a size is row k of NumPy's draws for
    # (seed, size), and the same for any larger sample count
    monkeypatch.setattr(experiments, "DRAW_BLOCK", block)
    seed = 2 ** 32 + 11
    for samples in (23, 61):
        rows = _survey_rows(monkeypatch, (6, 24, 40), samples, seed)
        for n in (6, 24, 40):
            assert np.array_equal(rows[n], _numpy_rows((seed, n), n, samples, n - 2))


def test_survey_blocks_match_per_tree_path(monkeypatch):
    # 40 entries per block: blocks of 10, 1 and 1 trees for sizes 6, 24 and 40
    monkeypatch.setattr(experiments, "DRAW_BLOCK", 40)
    takes = []
    take = _Stream.take

    def record(stream, count):
        takes.append((int(stream._bound), count))
        return take(stream, count)

    monkeypatch.setattr(_Stream, "take", record)
    expected, _ = _per_tree_survey((6, 24, 40), 23, 2 ** 32 + 11)
    assert run_tree_experiment((6, 24, 40), 23, 2 ** 32 + 11) == expected
    assert [c for n, c in takes if n == 6] == [40, 40, 12]
    assert [c for n, c in takes if n == 40] == [38] * 23


def test_survey_builds_no_generator(monkeypatch):
    expected, _ = _per_tree_survey((8, 24), 50, 99)

    def refuse(*args, **kwargs):
        raise AssertionError("the survey built a per-tree generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert run_tree_experiment((8, 24), 50, 99) == expected


def test_survey_refuses_more_samples_than_one_entropy_word(monkeypatch):
    class Drawn(Exception):
        pass

    def draw(*args):
        raise Drawn

    # the cap stays where tree k's seed had to fit one entropy word; the
    # patched draw stops the survey of 2^32 trees at its first block
    monkeypatch.setattr(_Stream, "take", draw)
    with pytest.raises(BadParam):
        run_tree_experiment((8,), 2 ** 32 + 1, 1)
    with pytest.raises(Drawn):
        run_tree_experiment((8,), 2 ** 32, 1)


def test_survey_refuses_a_small_size_before_any_draw(monkeypatch):
    # a size below 6 later in the list must not cost the earlier sizes' surveys
    def draw(*args):
        raise AssertionError("drew trees before checking every size")

    monkeypatch.setattr(_Stream, "take", draw)
    with pytest.raises(NotATree):
        run_tree_experiment((24, 5), 3000, 1)
