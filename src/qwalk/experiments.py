"""Tree experiments: how often does a uniform labelled tree contain the
double-P_2 limb that forces pair transfer at pi/2?

Sampled surveys draw trees uniformly over labelled trees via random Pruefer
sequences.  The exhaustive survey is a census by isomorphism class: it walks
every free tree on n vertices once (Wright, Richmond, Odlyzko & McKay, 1986)
and counts it n!/|Aut T| times, the number of labelled trees in its class; the
weights must add up to Cayley's n^(n-2), or the census raises.  Both count
uniform labelled trees: this demonstrates the transfer mechanism on a
tractable tree model; it is not a statement about any other random-tree
measure.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from itertools import groupby
from math import factorial, pi

import numpy as np

from .errors import NotATree, require_int
from .graphs import WeightedGraph, pair_state
from .transfer import PST_TOL, check_pst
from .twins import TwinStructure


def prufer_decode(seq: tuple[int, ...], n: int) -> WeightedGraph:
    """Labelled tree on n vertices from a Pruefer sequence of length n-2."""
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


def random_tree(n: int, seed) -> WeightedGraph:
    """Uniform random labelled tree, deterministic per seed."""
    if n < 2:
        raise NotATree("a tree needs at least two vertices")
    if n == 2:
        return WeightedGraph(2, ((0, 1, 1.0),))
    rng = np.random.default_rng(seed)
    seq = tuple(rng.integers(0, n, size=n - 2).tolist())
    return prufer_decode(seq, n)


def _assert_tree(g: WeightedGraph) -> tuple[tuple[int, ...], ...]:
    """The graph's neighbour lists, once it is known to be a finite tree."""
    if g.tails or len(g.edges) != g.n - 1:
        raise NotATree("graph is not a finite tree")
    nbrs = g.adjacency_lists
    seen = {0}
    stack = [0]
    while stack:
        for v in nbrs[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != g.n:
        raise NotATree("graph is not connected")
    return nbrs


def find_p5_limb(g: WeightedGraph) -> TwinStructure | None:
    """Twin structure from a vertex carrying two pendant P_2 arms, if any.

    Looks for a vertex c with two neighbors of degree 2 whose other neighbor
    is a leaf; the two leaf+midpoint arms form twin P_2 subgraphs, giving pair
    transfer leaves -> midpoints at pi/2.  The first such c in vertex order
    and its first two arms in neighbour order are returned.
    """
    nbrs = _assert_tree(g)
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
                    return TwinStructure.of(g, *arms)
    return None


@dataclass(frozen=True)
class LimbReport:
    size: int
    sample_count: int
    hit_count: int
    verified_count: int

    @property
    def hit_fraction(self) -> float:
        return self.hit_count / self.sample_count if self.sample_count else 0.0

    def to_row(self) -> dict:
        return {
            "size": self.size,
            "samples": self.sample_count,
            "hits": self.hit_count,
            "verified": self.verified_count,
            "fraction": self.hit_fraction,
        }


def _verify_hit(g: WeightedGraph, ts: TwinStructure) -> bool:
    l1, m1 = ts.x1
    l2, m2 = ts.x2
    src = pair_state(l1, l2)
    dst = pair_state(m1, m2)
    report = check_pst(g, src, dst, pi / 2)
    return report.fidelity >= 1 - PST_TOL


def run_tree_experiment(sizes, samples_per_size: int, seed: int
                        ) -> list[LimbReport]:
    """Sample trees per size, detect the limb, and verify every hit at pi/2.

    Raises BadParam unless every size, the sample count and the seed are
    integers, the latter two nonnegative; a size below 6 is NotATree."""
    samples_per_size = require_int(samples_per_size, "sample count", 0)
    seed = require_int(seed, "seed", 0)
    sizes = [require_int(size, "tree size") for size in sizes]
    reports = []
    for size in sizes:
        if size < 6:
            raise NotATree("the limb needs at least six vertices")
        hits = verified = 0
        for k in range(samples_per_size):
            g = random_tree(size, (seed, size, k))
            ts = find_p5_limb(g)
            if ts is None:
                continue
            hits += 1
            if _verify_hit(g, ts):
                verified += 1
        reports.append(LimbReport(size, samples_per_size, hits, verified))
    return reports


def exhaustive_tree_experiment(n: int, verify: bool = False) -> LimbReport:
    """Census of every labelled tree on n vertices, one isomorphism class at a
    time.

    The limb and the fidelity do not depend on the labelling, so each free
    tree T is tested once and counts n!/|Aut T| times; with ``verify`` every
    hit class is checked once at pi/2.  The counts equal those of a walk over
    all n^(n-2) Pruefer sequences; the weights must sum to n^(n-2) (Cayley's
    formula), or the census raises ``RuntimeError``.
    """
    n = require_int(n, "tree size")
    if n < 6:
        raise NotATree("the limb needs at least six vertices")
    labellings = factorial(n)
    total = hits = verified = 0
    for g in _free_trees(n):
        weight = labellings // _tree_class(g)[1]
        total += weight
        ts = find_p5_limb(g)
        if ts is None:
            continue
        hits += weight
        if not verify or _verify_hit(g, ts):
            verified += weight
    if total != n ** (n - 2):
        raise RuntimeError(f"census weights sum to {total}, not {n}^{n - 2}")
    return LimbReport(n, total, hits, verified)


def _free_trees(n: int):
    """One tree per isomorphism class of free trees on n vertices.

    Wright, Richmond, Odlyzko & McKay (SIAM J. Comput. 1986): walk the
    canonical level sequences of rooted trees in reverse lexicographic order
    (Beyer & Hedetniemi), starting from the path rooted at its centre, keep
    those rooted at a centre with the root's first subtree no larger than the
    rest, and jump over each run of rejected ones.  Vertices are labelled in
    preorder.
    """
    if n <= 2:
        yield _level_tree(list(range(n)))
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        first, rest = _split_root(levels)
        if max(first) > max(rest) or (max(first) == max(rest)
                                      and (len(first), first) > (len(rest), rest)):
            # rejected: advance the first subtree; when its last vertex lay
            # below level 2, end the sequence in a path from the root as deep
            # as the new first subtree
            p = len(first)
            jumped = _next_rooted(levels, p)
            if levels[p] > 2:
                height = max(_split_root(jumped)[0])
                jumped[n - height - 1:] = range(1, height + 2)
            levels = jumped
        yield _level_tree(levels)
        levels = _next_rooted(levels)


def _split_root(levels: list[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree (levels from 0) and the tree without it."""
    try:
        m = levels.index(1, 2)
    except ValueError:
        m = len(levels)
    return [d - 1 for d in levels[1:m]], [0] + levels[m:]


def _next_rooted(levels: list[int], p: int | None = None) -> list[int] | None:
    """Next canonical level sequence of a rooted tree (Beyer & Hedetniemi):
    with q the parent of vertex p, entries from p on repeat levels[q:p].  By
    default p is the last vertex below level 1; None after the star."""
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    return levels[:p] + [levels[q + (i - p) % (p - q)] for i in range(p, len(levels))]


def _level_tree(levels: list[int]) -> WeightedGraph:
    """The tree whose preorder depths are ``levels``; vertex i is the i-th."""
    last = [0] * len(levels)  # latest vertex seen at each depth
    edges = []
    for v in range(1, len(levels)):
        d = levels[v]
        edges.append((last[d - 1], v, 1.0))
        last[d] = v
    return WeightedGraph(len(levels), tuple(edges))


def _tree_class(g: WeightedGraph) -> tuple[tuple, int]:
    """Canonical code of the free tree g and the order of its automorphism
    group.

    The code is the AHU code of g rooted at its centre, or at the midpoint of
    its central edge when g is bicentral: each vertex is the sorted tuple of
    its children.  |Aut g| is the product, over that root and every vertex, of
    m! for each group of m identical child subtrees; for a bicentral tree the
    root's factor is 2 exactly when its two halves are equal.
    """
    nbrs = g.adjacency_lists
    centre = _centre(nbrs)
    parent = [-1] * g.n
    if len(centre) == 2:
        a, b = centre
        parent[a], parent[b] = b, a
    order = list(centre)
    for v in order:
        for w in nbrs[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    code: list[tuple] = [()] * g.n
    aut = 1
    for v in reversed(order):
        kids = sorted(code[w] for w in nbrs[v] if w != parent[v])
        aut *= _symmetry(kids)
        code[v] = tuple(kids)
    if len(centre) == 1:
        return code[centre[0]], aut
    halves = sorted(code[v] for v in centre)
    return tuple(halves), aut * _symmetry(halves)


def _centre(nbrs: tuple[tuple[int, ...], ...]) -> list[int]:
    """The one or two central vertices of a tree, by peeling leaf layers."""
    degree = [len(x) for x in nbrs]
    layer = [v for v in range(len(nbrs)) if degree[v] <= 1]
    remaining = len(nbrs)
    while remaining > 2:
        remaining -= len(layer)
        inner = []
        for v in layer:
            for w in nbrs[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    inner.append(w)
        layer = inner
    return layer


def _symmetry(kids: list[tuple]) -> int:
    """Product of m! over each run of m equal codes in the sorted list."""
    out = 1
    for _, run in groupby(kids):
        out *= factorial(sum(1 for _ in run))
    return out


def report_csv(reports: list[LimbReport]) -> str:
    lines = ["size,samples,hits,verified,fraction"]
    for r in reports:
        lines.append(
            f"{r.size},{r.sample_count},{r.hit_count},{r.verified_count},"
            f"{r.hit_fraction:.6f}"
        )
    return "\n".join(lines) + "\n"


def report_json(reports: list[LimbReport]) -> str:
    header = ("uniform labelled trees via Pruefer sampling; demonstrates the "
              "pair-transfer mechanism, not an asymptotic constant")
    return json.dumps({"model": header, "rows": [r.to_row() for r in reports]},
                      indent=2)
