"""Random-tree experiment: how often does a uniform labelled tree contain the
double-P_2 limb that forces pair transfer at pi/2?

Trees are sampled uniformly over labelled trees via random Pruefer sequences.
This demonstrates the transfer mechanism on a tractable tree model; it is not
a statement about any other random-tree measure.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from itertools import product
from math import pi

import numpy as np

from .errors import NotATree
from .graphs import WeightedGraph, pair_state
from .transfer import check_pst
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
    seq = tuple(int(x) for x in rng.integers(0, n, size=n - 2))
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
    return report.fidelity >= 1 - 1e-9


def run_tree_experiment(sizes, samples_per_size: int, seed: int
                        ) -> list[LimbReport]:
    """Sample trees per size, detect the limb, and verify every hit at pi/2."""
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
    """Every labelled tree on n vertices (all n^(n-2) Pruefer sequences)."""
    if n < 6:
        raise NotATree("the limb needs at least six vertices")
    hits = verified = 0
    total = 0
    for seq in product(range(n), repeat=n - 2):
        total += 1
        g = prufer_decode(seq, n)
        ts = find_p5_limb(g)
        if ts is None:
            continue
        hits += 1
        if not verify or _verify_hit(g, ts):
            verified += 1
    return LimbReport(n, total, hits, verified)


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
