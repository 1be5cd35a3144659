from itertools import combinations, permutations, product
from math import factorial

import pytest

from qwalk import (
    WeightedGraph,
    complete_graph,
    exhaustive_tree_experiment,
    find_p5_limb,
    path_graph,
    random_tree,
    run_tree_experiment,
)
from qwalk.errors import BadParam, NotATree
from qwalk.experiments import (
    _free_trees,
    _tree_class,
    _verify_hit,
    prufer_decode,
    report_csv,
    report_json,
)

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

# OEIS A000055: free trees on n = 1..12 vertices
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


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


def _labelled_walk(n):
    """The census's oracle: every one of the n^(n-2) Pruefer sequences."""
    total = hits = verified = 0
    for seq in product(range(n), repeat=n - 2):
        total += 1
        g = prufer_decode(seq, n)
        ts = find_p5_limb(g)
        if ts is not None:
            hits += 1
            verified += _verify_hit(g, ts)
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
    for n, count in enumerate(FREE_TREE_COUNTS, start=1):
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


def test_reports_serialize():
    reports = run_tree_experiment([8], 10, seed=3)
    csv = report_csv(reports)
    assert csv.startswith("size,samples,hits,verified,fraction")
    assert "Pruefer" in report_json(reports)
