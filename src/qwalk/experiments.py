"""Tree experiments: how often does a uniform labelled tree contain the
double-P_2 limb that forces pair transfer at pi/2?

Sampled surveys draw trees uniformly over labelled trees via random Pruefer
sequences, stable per (seed, size, index).  Each sequence is decoded to
per-vertex neighbour lists and the limb is found on those; only a hit is
built as a validated graph with a validated twin structure and has its
transfer checked.  The exhaustive survey counts all n^(n-2) labelled trees
exactly: the trees without the limb are counted by their exponential
generating function (Flajolet & Sedgewick, Analytic Combinatorics, 2009,
VII.4), in one pass of an integer recurrence, and the rest carry it.  Both
count uniform labelled trees: this demonstrates the transfer mechanism on a
tractable tree model; it is not a statement about any other random-tree
measure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import comb, perm, pi
from operator import itemgetter

import numpy as np

from .errors import BadParam, NoTransfer, NotATree, require_int
from .graphs import WeightedGraph, pair_state
from .transfer import check_pst
from .twins import TwinStructure


def _draw(n: int, seed) -> list[int]:
    """The Pruefer sequence of the tree drawn on n vertices for ``seed``.
    The tests pin this stream: the same seed must keep giving the same tree."""
    return np.random.default_rng(seed).integers(0, n, size=n - 2).tolist()


def _prufer_lists(seq, n: int) -> list[list[int]]:
    """Per-vertex neighbour lists of the labelled tree on n vertices with
    Pruefer sequence ``seq``, which must hold n-2 ints in [0, n)."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    nbrs: list[list[int]] = [[] for _ in range(n)]
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        nbrs[leaf].append(v)
        nbrs[v].append(leaf)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = leaves  # every decoding step pops one leaf; two are left
    nbrs[u].append(w)
    nbrs[w].append(u)
    return nbrs


def _tree_graph(nbrs) -> WeightedGraph:
    """The unit-weight graph with these neighbour lists."""
    return WeightedGraph(len(nbrs), tuple((a, b, 1.0) for a, ends in enumerate(nbrs)
                                          for b in ends if a < b))


def prufer_decode(seq: tuple[int, ...], n: int) -> WeightedGraph:
    """Labelled tree on n vertices from a Pruefer sequence of length n-2.

    Raises BadParam unless n is an integer of at least 2 and seq holds n-2
    ints (not bools) in [0, n)."""
    n = require_int(n, "tree size", 2)
    if len(seq) != n - 2:
        raise BadParam(f"a Pruefer sequence for {n} vertices has length {n - 2}, "
                       f"got {len(seq)}")
    for v in seq:
        if type(v) is not int or not 0 <= v < n:
            raise BadParam(f"Pruefer entries must be integers in [0, {n}), got {v!r}")
    return _tree_graph(_prufer_lists(seq, n))


def random_tree(n: int, seed) -> WeightedGraph:
    """Uniform random labelled tree, deterministic per seed.

    Raises BadParam unless n is an integer and the seed a nonnegative integer
    or a tuple of them; a size below 2 is NotATree."""
    n = require_int(n, "tree size")
    if n < 2:
        raise NotATree("a tree needs at least two vertices")
    if isinstance(seed, tuple):
        seed = tuple(require_int(s, "seed entry", 0) for s in seed)
    else:
        seed = require_int(seed, "seed", 0)
    return prufer_decode(tuple(_draw(n, seed)), n)


def limb_tree(n: int) -> WeightedGraph:
    """The path 0-1-2-3-4 with n-5 further leaves 5..n-1 on its centre 2: the
    n-vertex tree on which the exhaustive survey verifies the limb."""
    edges = [(i, i + 1, 1.0) for i in range(4)] + [(2, v, 1.0) for v in range(5, n)]
    return WeightedGraph(n, tuple(edges))


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


def _limb(nbrs) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The two (leaf, midpoint) arms of a double-P_2 limb on a tree, if any.

    A leaf whose neighbour m has degree 2 ends an arm of the centre that is
    m's other neighbour.  The first centre in vertex order with two arms is
    taken, with its two arms of smallest midpoint, in ascending order."""
    arms: dict[int, list[tuple[int, int]]] = {}
    for leaf, ends in enumerate(nbrs):
        if len(ends) != 1:
            continue
        m = ends[0]
        mid = nbrs[m]
        if len(mid) == 2:
            arms.setdefault(mid[1] if mid[0] == leaf else mid[0], []).append((leaf, m))
    centres = [c for c, at in arms.items() if len(at) > 1]
    if not centres:
        return None
    first, second = sorted(arms[min(centres)], key=itemgetter(1))[:2]
    return first, second


def find_p5_limb(g: WeightedGraph) -> TwinStructure | None:
    """Twin structure from a vertex carrying two pendant P_2 arms, if any.

    Looks for a vertex c with two neighbors of degree 2 whose other neighbor
    is a leaf; the two leaf+midpoint arms form twin P_2 subgraphs, giving pair
    transfer leaves -> midpoints at pi/2.  The first such c in vertex order
    and its first two arms in neighbour order are returned.  Raises NotATree
    unless g is a finite tree.
    """
    arms = _limb(_assert_tree(g))
    return None if arms is None else TwinStructure.of(g, *arms)


@dataclass(frozen=True)
class LimbReport:
    size: int
    sample_count: int
    hit_count: int
    verified_count: int

    @property
    def hit_fraction(self) -> float:
        return self.hit_count / self.sample_count if self.sample_count else 0.0


def _verify_hit(g: WeightedGraph, ts: TwinStructure) -> bool:
    """Whether the pair transfer leaves -> midpoints passes at pi/2."""
    l1, m1 = ts.x1
    l2, m2 = ts.x2
    try:
        check_pst(g, pair_state(l1, l2), pair_state(m1, m2), pi / 2)
    except NoTransfer:
        return False
    return True


def run_tree_experiment(sizes, samples_per_size: int, seed: int
                        ) -> list[LimbReport]:
    """Sample trees per size, detect the limb, and verify every hit at pi/2.

    Tree k of each size decodes the Pruefer sequence that
    ``random_tree(size, (seed, size, k))`` draws, so the draws stay stable
    per (seed, size, k).  It is decoded to neighbour lists and the limb is
    looked for on them; only a hit is built as a validated graph, with a
    validated twin structure, for the transfer check.

    Raises BadParam unless the sizes are an iterable of integers, and the
    sample count and the seed nonnegative integers; a size below 6 is
    NotATree."""
    samples_per_size = require_int(samples_per_size, "sample count", 0)
    seed = require_int(seed, "seed", 0)
    try:
        sizes = list(sizes)
    except TypeError:
        raise BadParam(f"tree sizes must be an iterable of integers, got {sizes!r}") from None
    sizes = [require_int(size, "tree size") for size in sizes]
    reports = []
    for size in sizes:
        if size < 6:
            raise NotATree("the limb needs at least six vertices")
        hits = verified = 0
        for k in range(samples_per_size):
            nbrs = _prufer_lists(_draw(size, (seed, size, k)), size)
            arms = _limb(nbrs)
            if arms is None:
                continue
            hits += 1
            g = _tree_graph(nbrs)
            if _verify_hit(g, TwinStructure.of(g, *arms)):
                verified += 1
        reports.append(LimbReport(size, samples_per_size, hits, verified))
    return reports


def exhaustive_tree_experiment(n: int, verify: bool = False) -> LimbReport:
    """Exact limb count over all n^(n-2) labelled trees on n vertices.

    A planted tree hangs from an edge above its root.  It carries no limb
    when no vertex has two arms (pendant P_2's) among its children: its
    root's children are a set of such trees with at most one arm x^2, so
    their exponential generating function solves T = x(1+x^2)e^(T-x^2).
    A tree rooted at a vertex with no edge above may also carry a limb that
    runs up through the root, a leaf or the middle of an arm: 2x^5e^(T-x^2)
    such trees.  Each tree has n rootings, so with a_k = k![x^k]T and
    b_k = k![x^k]e^(T-x^2) (b_0 = 1; e^(T-x^2) has derivative
    (T' - 2x)e^(T-x^2))

        a_k = k b_(k-1) + k(k-1)(k-2) b_(k-3)
        b_k = sum_(j=1..k) C(k-1, j-1) a_j b_(k-j) - 2(k-1) b_(k-2)
        limb-free(n) = (a_n - 2 n!/(n-5)! b_(n-5)) / n,

    and the other n^(n-2) - limb-free(n) trees are the hits.  The division
    must be exact, or this raises ``RuntimeError``.

    With ``verify``, the pair transfer leaves -> midpoints is checked at pi/2
    once, on ``limb_tree(n)``, and ``verified_count`` is the hit count if it
    passes and 0 otherwise.  That one check covers every hit: with arms
    l1-m1 and l2-m2 on a centre, A(e_m1 - e_m2) = e_l1 - e_l2 and
    A(e_l1 - e_l2) = e_m1 - e_m2 in any tree, so A.B = B.T holds (B the
    arms' difference vectors, T the adjacency of P_2) wherever the limb
    occurs, and the twin theorem gives the same transfer there.
    """
    n = require_int(n, "tree size")
    if n < 6:
        raise NotATree("the limb needs at least six vertices")
    a = [0] * (n + 1)
    b = [1] + [0] * n
    for k in range(1, n + 1):
        a[k] = k * b[k - 1] + (k * (k - 1) * (k - 2) * b[k - 3] if k >= 3 else 0)
        b[k] = sum(comb(k - 1, j - 1) * a[j] * b[k - j] for j in range(1, k + 1))
        if k >= 2:
            b[k] -= 2 * (k - 1) * b[k - 2]
    limb_free, rest = divmod(a[n] - 2 * perm(n, 5) * b[n - 5], n)
    if rest:
        raise RuntimeError(f"the rooted limb-free count on {n} vertices is not "
                           f"divisible by {n}")
    total = n ** (n - 2)
    hits = total - limb_free
    verified = hits
    if verify:
        g = limb_tree(n)
        ts = find_p5_limb(g)
        if ts is None or not _verify_hit(g, ts):
            verified = 0
    return LimbReport(n, total, hits, verified)
