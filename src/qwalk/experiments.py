"""Tree experiments: how often does a uniform labelled tree contain the
double-P_2 limb that forces pair transfer at pi/2?

Sampled surveys draw trees uniformly over labelled trees via random Pruefer
sequences, stable per (seed, size, index): the trees of a size are the rows
of ``np.random.default_rng((seed, size)).integers(0, size, (samples,
size - 2))``, so tree k is the same for any larger sample count.  Each
block of sequences is then surveyed as arrays, with no per-tree Python loop
and no graph object: all its rows are decoded in lockstep to edge arrays,
the limb is found from each vertex's degree and neighbour sum, and each
hit's transfer is checked exactly: the adjacency must map the leaves'
difference vector to the midpoints' and back, up to one sign, which
integer products decide with no eigensolver and no tolerance.  The
exhaustive survey counts all n^(n-2) labelled trees exactly: the trees
without the limb are counted by their exponential generating function
(Flajolet & Sedgewick, Analytic Combinatorics, 2009, VII.4), in one pass of
an integer recurrence, and the rest carry it.  Both count uniform labelled
trees: this demonstrates the transfer mechanism on a tractable tree model;
it is not a statement about any other random-tree measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm
from operator import add, mul

import numpy as np

from .errors import BadParam, NotATree, require_int
from .graphs import WeightedGraph
from .twins import TwinStructure


# sequence entries the survey draws per block of trees
DRAW_BLOCK = 1 << 16


def _draw(n: int, seed) -> list[int]:
    """The Pruefer sequence of the tree drawn on n vertices for ``seed``, by
    NumPy's generator.  The tests pin this stream: the same seed must keep
    giving the same tree."""
    return np.random.default_rng(seed).integers(0, n, size=n - 2).tolist()


def _prufer_edges(seqs: np.ndarray, n: int) -> np.ndarray:
    """The (rows, n-1, 2) edges of the labelled trees on n >= 2 vertices
    whose Pruefer sequences are the rows of ``seqs`` (ints in [0, n)), all
    rows decoded in lockstep: step i joins every row's smallest current leaf
    to its entry i, and the last edge joins the leaf that remains to n-1.
    Each step scans whole rows, so a block costs O(rows n^2)."""
    rows = len(seqs)
    at = np.arange(rows) * n
    # degree is flat, row r at r*n; per_row is a (rows, n) view of it, in
    # which a decoded leaf's degree drops to 0
    degree = np.bincount((seqs + at[:, None]).ravel(), minlength=rows * n) + 1
    per_row = degree.reshape(rows, n)
    edges = np.empty((rows, n - 1, 2), np.int64)
    for i in range(n - 2):
        leaf = np.argmax(per_row == 1, axis=1)
        v = seqs[:, i]
        edges[:, i, 0] = leaf
        edges[:, i, 1] = v
        degree[at + leaf] = 0
        degree[at + v] -= 1
    edges[:, -1, 0] = np.argmax(per_row == 1, axis=1)
    edges[:, -1, 1] = n - 1
    return edges


def _limbs(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of (rows, n-1, 2) tree ``edges`` that carry a double-P_2
    limb, and their (hits, 2, 2) arms ((l1, m1), (l2, m2)).

    Each vertex's degree and the sum of its neighbours come from one
    bincount each.  A leaf l's neighbour is m = nsum[l]; when m has degree
    2, the arm l-m hangs from the centre c = nsum[m] - l.  Sorting the arms
    by (row, c, m) puts, first in each row, the first centre in vertex order
    with two arms and its two arms of smallest midpoint, in ascending
    order."""
    rows = len(edges)
    ends = (edges + (np.arange(rows) * n)[:, None, None]).ravel()
    degree = np.bincount(ends, minlength=rows * n)
    nsum = np.bincount(ends, weights=edges[:, :, ::-1].ravel(),
                       minlength=rows * n).astype(np.int64)
    at = np.flatnonzero(degree == 1)
    row = at // n
    leaf, mid = at - row * n, nsum[at]
    arm = degree[row * n + mid] == 2
    row, leaf, mid = row[arm], leaf[arm], mid[arm]
    centre = nsum[row * n + mid] - leaf
    owner = row * n + centre
    order = np.argsort(owner * n + mid)
    owner = owner[order]
    pair = np.flatnonzero(owner[1:] == owner[:-1])
    first = pair[np.diff(owner[pair] // n, prepend=-1) != 0]
    take = order[np.stack((first, first + 1), axis=1)]
    return row[take[:, 0]], np.stack((leaf[take], mid[take]), axis=2)


def _verify_hits(edges: np.ndarray, arms: np.ndarray, n: int) -> np.ndarray:
    """Per hit of (hits, n-1, 2) tree ``edges`` and (hits, 2, 2) ``arms``
    ((l1, m1), (l2, m2)), whether the pair transfer leaves -> midpoints
    passes at pi/2, decided exactly: read off the tree with no eigensolver,
    no tolerance and no use of the twin theorem.

    With x = e_l1 - e_l2 and y = e_m1 - e_m2, a hit passes iff l1 != l2,
    m1 != m2 and A x = s y, A y = s x for one s in {+1, -1}.  Then A^2 = I
    on span{x, y}, so e^(i pi A/2) x = i A x = i s y: the pair state of the
    leaves goes to that of the midpoints with amplitude i s.  A double-P_2
    limb has A.B = B.T (B the arms' difference vectors, T the adjacency of
    P_2), so its hits pass with s = +1.

    One bincount over the flat edge ends of all hits gives A(x + 4y).  Its
    entries are small integers, which float64 holds exactly, and as the
    entries of A x and y lie in {-1, 0, 1}, A(x + 4y) = s(y + 4x) iff
    A x = s y and A y = s x."""
    hits = len(edges)
    at = (np.arange(hits) * n)[:, None, None]
    flat = edges + at
    (l1, m1), (l2, m2) = (arms + at).transpose(1, 2, 0)
    x, y = np.zeros((2, hits * n))
    x[l1] = y[m1] = 1
    x[l2] -= 1
    y[m2] -= 1
    # each edge end gathers its neighbour's entry
    az = np.bincount(flat.ravel(), weights=(x + 4 * y)[flat[:, :, ::-1].ravel()],
                     minlength=hits * n).reshape(hits, n)
    w = (y + 4 * x).reshape(hits, n)
    closes = (az == w).all(axis=1) | (az == -w).all(axis=1)
    return closes & (l1 != l2) & (m1 != m2)


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
    edges = _prufer_edges(np.array(seq, np.int64).reshape(1, n - 2), n)[0]
    return WeightedGraph(n, tuple((a, b, 1.0) for a, b in edges.tolist()))


def random_tree(n: int, seed) -> WeightedGraph:
    """Uniform random labelled tree, deterministic per seed.

    Raises BadParam unless n is an integer and the seed a nonnegative integer
    or a nonempty tuple of them; a size below 2 is NotATree."""
    n = require_int(n, "tree size")
    if n < 2:
        raise NotATree("a tree needs at least two vertices")
    if isinstance(seed, tuple):
        if not seed:  # NumPy would draw seed 0's tree
            raise BadParam("a seed tuple needs at least one entry")
        seed = tuple(require_int(s, "seed entry", 0) for s in seed)
    else:
        seed = require_int(seed, "seed", 0)
    return prufer_decode(tuple(_draw(n, seed)), n)


def limb_tree(n: int) -> WeightedGraph:
    """The path 0-1-2-3-4 with n-5 further leaves 5..n-1 on its centre 2: the
    n-vertex tree on which the exhaustive survey verifies the limb."""
    edges = [(i, i + 1, 1.0) for i in range(4)] + [(2, v, 1.0) for v in range(5, n)]
    return WeightedGraph(n, tuple(edges))


def _tree_edges(g: WeightedGraph) -> np.ndarray:
    """The graph's edges as a (1, n-1, 2) array, once it is known to be a
    finite tree."""
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
    return np.array([(a, b) for a, b, _ in g.edges], np.int64).reshape(1, g.n - 1, 2)


def find_p5_limb(g: WeightedGraph) -> TwinStructure | None:
    """Twin structure from a vertex carrying two pendant P_2 arms, if any.

    Looks for a vertex c with two neighbors of degree 2 whose other neighbor
    is a leaf; the two leaf+midpoint arms form twin P_2 subgraphs, giving pair
    transfer leaves -> midpoints at pi/2.  The first such c in vertex order
    and its first two arms in neighbour order are returned.  Raises NotATree
    unless g is a finite tree.
    """
    rows, arms = _limbs(_tree_edges(g), g.n)
    return TwinStructure.of(g, *arms[0].tolist()) if len(rows) else None


@dataclass(frozen=True)
class LimbReport:
    size: int
    sample_count: int
    hit_count: int
    verified_count: int

    @property
    def hit_fraction(self) -> float:
        return self.hit_count / self.sample_count if self.sample_count else 0.0


def run_tree_experiment(sizes, samples_per_size: int, seed: int
                        ) -> list[LimbReport]:
    """Sample trees per size, detect the limb, and verify every hit at pi/2.

    Tree k of a size is row k of
    ``np.random.default_rng((seed, size)).integers(0, size, (samples,
    size - 2))``, so tree k stays the same for any larger sample count.  The
    rows are drawn in blocks of up to DRAW_BLOCK entries, by consecutive
    ``integers`` calls on that one generator: each call goes on from the
    32-bit word that the last one left in PCG64's buffer, so the blocks give
    the rows of one call.  Each block is surveyed with array operations:
    ``_prufer_edges`` decodes its rows in lockstep, ``_limbs`` finds the
    limbs from degrees and neighbour sums, and ``_verify_hits`` checks each
    hit's transfer exactly, with one integer product over all of the
    block's hits and no tolerance.  No graph object and no dense matrix is
    built.

    Raises BadParam unless the sizes are an iterable of integers, the
    sample count a nonnegative integer of at most 2^32 (the counts the
    survey accepted when tree k's seed had to fit one entropy word) and the
    seed a nonnegative integer; a size below 6 is NotATree.  All of these
    are checked before any tree is drawn."""
    samples_per_size = require_int(samples_per_size, "sample count", 0)
    if samples_per_size > 1 << 32:
        raise BadParam(f"at most 2^32 samples per size, got {samples_per_size}")
    seed = require_int(seed, "seed", 0)
    try:
        sizes = list(sizes)
    except TypeError:
        raise BadParam(f"tree sizes must be an iterable of integers, got {sizes!r}") from None
    sizes = [require_int(size, "tree size") for size in sizes]
    if any(size < 6 for size in sizes):
        raise NotATree("the limb needs at least six vertices")
    reports = []
    for size in sizes:
        hits = verified = 0
        rng = np.random.default_rng((seed, size))
        rows = max(1, DRAW_BLOCK // (size - 2))
        for start in range(0, samples_per_size, rows):
            block = min(rows, samples_per_size - start)
            edges = _prufer_edges(rng.integers(0, size, (block, size - 2)), size)
            found, arms = _limbs(edges, size)
            hits += len(found)
            verified += int(np.count_nonzero(_verify_hits(edges[found], arms, size)))
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
    row = [1]  # C(k - 1, j - 1) for j = 1, ..., k
    for k in range(1, n + 1):
        a[k] = k * b[k - 1] + (k * (k - 1) * (k - 2) * b[k - 3] if k >= 3 else 0)
        b[k] = sum(map(mul, row, map(mul, a[1:k + 1], b[k - 1::-1])))
        if k >= 2:
            b[k] -= 2 * (k - 1) * b[k - 2]
        row = [1, *map(add, row, row[1:]), 1]
    limb_free, rest = divmod(a[n] - 2 * perm(n, 5) * b[n - 5], n)
    if rest:
        raise RuntimeError(f"the rooted limb-free count on {n} vertices is not "
                           f"divisible by {n}")
    total = n ** (n - 2)
    hits = total - limb_free
    verified = hits
    if verify:
        edges = _tree_edges(limb_tree(n))
        found, arms = _limbs(edges, n)
        if not (len(found) and _verify_hits(edges, arms, n)[0]):
            verified = 0
    return LimbReport(n, total, hits, verified)
