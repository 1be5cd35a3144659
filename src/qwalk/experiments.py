"""Tree experiments: how often does a uniform labelled tree contain the
double-P_2 limb that forces pair transfer at pi/2?

Sampled surveys draw trees uniformly over labelled trees via random Pruefer
sequences, stable per (seed, size, index): tree k of a size is the sequence
``np.random.default_rng((seed, size, k))`` draws.  The survey computes that
stream (NumPy's SeedSequence hash, PCG64, and ``Generator.integers``'
bounded-integer rejection) for a whole block of trees in one vectorised
pass, so its pinned draws no longer depend on NumPy keeping
``Generator.integers`` stable (NEP 19 promises stream stability only for
bit generators).  Each block of sequences is then surveyed as arrays, with
no per-tree Python loop and no graph object: all its rows are decoded in
lockstep to edge arrays, the limb is found from each vertex's degree and
neighbour sum, and each hit's transfer is checked on the 2-dimensional
Krylov space of its leaves' pair state, with an a-posteriori error bound
and no eigensolver.  The exhaustive survey counts all n^(n-2) labelled
trees exactly: the trees without the limb are counted by their exponential
generating function (Flajolet & Sedgewick, Analytic Combinatorics, 2009,
VII.4), in one pass of an integer recurrence, and the rest carry it.  Both
count uniform labelled trees: this demonstrates the transfer mechanism on a
tractable tree model; it is not a statement about any other random-tree
measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, perm, pi

import numpy as np

from .errors import BadParam, NotATree, require_int
from .graphs import WeightedGraph
from .transfer import PST_TOL
from .twins import TwinStructure


# sequence entries the survey draws per block of trees
DRAW_BLOCK = 1 << 16

# numpy.random.SeedSequence: pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier, and masks, as Python ints: only the
# step constants of _pcg_jumps are computed with them
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_ONE, _32, _58, _63, _64 = (np.uint64(v) for v in (1, 32, 58, 63, 64))


def _draw(n: int, seed) -> list[int]:
    """The Pruefer sequence of the tree drawn on n vertices for ``seed``, by
    NumPy's generator.  The tests pin this stream: the same seed must keep
    giving the same tree.  The survey computes the same stream for a whole
    tree size at once in ``_pinned_integers``, which the tests check against
    this generator."""
    return np.random.default_rng(seed).integers(0, n, size=n - 2).tolist()


def _hash_consts(init, mult):
    """The (xor, multiplier) pairs of SeedSequence's successive hash calls."""
    while True:
        nxt = init * mult
        yield init, nxt
        init = nxt


def _seed_pool(words) -> list:
    """SeedSequence's mixed entropy pool for the entropy ``words``: uint32
    scalars, or uint32 arrays over rows for words that differ per row."""
    consts = _hash_consts(_INIT_A, _MULT_A)

    def hashmix(value):
        xor, mul = next(consts)
        value = (value ^ xor) * mul
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(words[i] if i < len(words) else np.uint32(0)) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg_seed(pool):
    """PCG64's (t, inc) from the pool, as (hi, lo) pairs of uint64 arrays:
    with the first four uint64 words of ``generate_state`` as (initstate,
    initseq), inc = 2 initseq + 1 and t = initstate + inc, so that the
    seeded state is t M + inc."""
    consts = _hash_consts(_INIT_B, _MULT_B)
    words = []
    for i in range(8):
        xor, mul = next(consts)
        value = (pool[i % _POOL] ^ xor) * mul
        words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    state_hi, state_lo, seq_hi, seq_lo = (words[i] | (words[i + 1] << _32)
                                          for i in range(0, 8, 2))
    inc = ((seq_hi << _ONE) | (seq_lo >> _63), (seq_lo << _ONE) | _ONE)
    return _add128((state_hi, state_lo), inc), inc


def _add128(x, y):
    """x + y mod 2^128 on (hi, lo) pairs of uint64 arrays."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]).astype(np.uint64), lo


def _mul128(x, y):
    """x y mod 2^128 on (hi, lo) pairs of uint64 arrays; the high half of
    the low words' product is built from their 32-bit halves."""
    (x_hi, x_lo), (y_hi, y_lo) = x, y
    x0, x1 = x_lo & _MASK32, x_lo >> _32
    y0, y1 = y_lo & _MASK32, y_lo >> _32
    p01, p10 = x0 * y1, x1 * y0
    carry = ((x0 * y0) >> _32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = (x1 * y1 + (p01 >> _32) + (p10 >> _32) + (carry >> _32)
          + x_hi * y_lo + x_lo * y_hi)
    return hi, x_lo * y_lo


def _split128(values) -> tuple[np.ndarray, np.ndarray]:
    """Integers below 2^128 as a read-only (hi, lo) pair of uint64 arrays."""
    pair = (np.array([v >> 64 for v in values], np.uint64),
            np.array([v & _MASK64 for v in values], np.uint64))
    for half in pair:
        half.flags.writeable = False
    return pair


@lru_cache(maxsize=16)
def _pcg_jumps(steps: int):
    """(M^(j+1), 1 + M + ... + M^j) for j = 1..steps as (hi, lo) pairs of
    uint64 arrays (M the PCG64 multiplier): the state j steps after seeding
    with (t, inc) is M^(j+1) t + (1 + ... + M^j) inc."""
    power, total = _PCG_MULT, 1
    powers, totals = [], []
    for _ in range(steps):
        total = (total + power) & _MASK128
        power = (power * _PCG_MULT) & _MASK128
        powers.append(power)
        totals.append(total)
    return _split128(powers), _split128(totals)


def _pcg_words(t, inc, steps: int) -> np.ndarray:
    """The first 2*steps uint32 words, as uint64, of the PCG64 stream of
    each row of (t, inc) (column arrays): the XSL-RR output of each step,
    low word first."""
    power, total = _pcg_jumps(steps)
    hi, lo = _add128(_mul128(t, power), _mul128(inc, total))
    turn = hi >> _58
    x = hi ^ lo
    out = (x >> turn) | (x << ((_64 - turn) & _63))
    return np.stack((out & _MASK32, out >> _32), axis=2).reshape(len(out), 2 * steps)


def _words32(value: int) -> list[int]:
    """A nonnegative integer as SeedSequence's little-endian uint32 words."""
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _pinned_integers(prefix, start: int, stop: int, bound: int, count: int) -> np.ndarray:
    """Rows k = start..stop-1 (0 <= k < 2^32) of
    ``np.random.default_rng((*prefix, k)).integers(0, bound, count)``, for
    nonnegative integers ``prefix`` and 1 <= bound < 2^32, computed for all
    rows at once.

    The stream is NumPy's: SeedSequence hashes the entropy words into its
    pool and generates PCG64's seed (O'Neill 2014), whose XSL-RR outputs
    give uint32 words low word first, and ``Generator.integers`` keeps a
    word x iff x bound mod 2^32 >= 2^32 mod bound, as x bound >> 32
    (Lemire, ACM TOMACS 2019).  Rows that reject so many words that they
    come up short are drawn again with twice the words."""
    rows = stop - start
    out = np.empty((rows, count), np.int64)
    if rows == 0 or count == 0:
        return out
    words = [np.uint32(w) for p in prefix for w in _words32(p)]
    words.append(np.arange(start, stop, dtype=np.uint32)[:, None])
    scale, threshold = np.uint64(bound), np.uint64((1 << 32) % bound)
    todo = np.arange(rows)
    steps = (count + 1) // 2
    with np.errstate(over="ignore"):
        t, inc = _pcg_seed(_seed_pool(words))
        while True:
            scaled = _pcg_words(t, inc, steps) * scale
            values = scaled >> _32
            accept = (scaled & _MASK32) >= threshold
            if accept[:, :count].all():
                out[todo] = values[:, :count]
                return out
            rank = np.cumsum(accept, axis=1)
            full = rank[:, -1] >= count
            out[todo[full]] = values[full][accept[full] & (rank[full] <= count)].reshape(-1, count)
            short = ~full
            todo, t, inc = todo[short], (t[0][short], t[1][short]), (inc[0][short], inc[1][short])
            if not todo.size:
                return out
            steps *= 2


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


def _pair_transfer(edges: np.ndarray, arms: np.ndarray, n: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per hit of (hits, n-1, 2) tree ``edges`` and (hits, 2, 2) ``arms``
    ((l1, m1), (l2, m2)): the amplitude v* e^(i pi A/2) u of the pair states
    u = (e_l1 - e_l2)/sqrt 2 and v = (e_m1 - e_m2)/sqrt 2 on the 2-dimensional
    Krylov space of u, and a bound on its error.

    Two Lanczos steps, A u = a1 u + b1 q and A q = b1 u + a2 q + r, give
    A Q = Q H + r e_2^T for Q = [u q] and the tridiagonal H = [[a1, b1],
    [b1, a2]].  The amplitude is v* Q e^(i pi H/2) e_1, by the closed form
    of a 2x2 exponential; by Duhamel it is within (pi/2)||r|| of the true
    one (Saad, SIAM J. Numer. Anal. 1992).  Each product A x is one bincount
    over the flat edge ends of all hits.  For a double-P_2 limb A.B = B.T
    (B the arms' difference vectors, T the adjacency of P_2), so r is 0 up
    to roundoff; nothing here assumes that, so wrong arms read a wrong
    amplitude or an open space.  When b1 = 0, u is an eigenvector and q
    is 0."""
    hits = len(edges)
    if not hits:  # an empty bincount is an integer array
        return np.empty(0, complex), np.empty(0)
    flat = edges + (np.arange(hits) * n)[:, None, None]
    ends, other = flat.ravel(), flat[:, :, ::-1].ravel()

    def times_a(x):  # each edge end gathers its neighbour's entry
        return np.bincount(ends, weights=x.ravel()[other],
                           minlength=hits * n).reshape(hits, n)

    (l1, m1), (l2, m2) = arms.transpose(1, 2, 0)
    h, s = np.arange(hits), 0.5 ** 0.5
    u, v = np.zeros((hits, n)), np.zeros((hits, n))
    u[h, l1] = v[h, m1] = s
    u[h, l2] -= s
    v[h, m2] -= s
    w = times_a(u)
    a1 = np.vecdot(u, w)
    w -= a1[:, None] * u
    b1 = np.sqrt(np.vecdot(w, w))
    q = w / np.where(b1 > 0, b1, 1.0)[:, None]
    z = times_a(q)
    a2 = np.vecdot(q, z)
    z -= b1[:, None] * u + a2[:, None] * q
    r = np.sqrt(np.vecdot(z, z))
    # e^(i t H) = e^(i t mean) (cos(t om) I + i sin(t om)/om K) for
    # K = H - mean I = [[d, b1], [b1, -d]], om^2 = d^2 + b1^2
    t = pi / 2
    mean, d = (a1 + a2) / 2, (a1 - a2) / 2
    om = np.hypot(d, b1)
    sin_over = t * np.sinc(t * om / pi)  # sin(t om)/om, and t at om = 0
    phase = np.exp(1j * t * mean)
    amp = phase * (np.vecdot(v, u) * (np.cos(t * om) + 1j * d * sin_over)
                   + np.vecdot(v, q) * 1j * b1 * sin_over)
    return amp, t * r


def _hit_amplitudes(edges: np.ndarray, arms: np.ndarray, n: int) -> np.ndarray:
    """The amplitudes of ``_pair_transfer``, without their bounds."""
    return _pair_transfer(edges, arms, n)[0]


def _verify_hits(edges: np.ndarray, arms: np.ndarray, n: int) -> np.ndarray:
    """Per hit, whether the pair transfer leaves -> midpoints passes at pi/2
    with its error bound: |amp| - (pi/2)||r|| >= 1 - PST_TOL on the
    2-dimensional Krylov space of the leaves' pair state (``_pair_transfer``),
    two sparse products with the stacked adjacencies and no eigensolver.  The
    check is independent of the twin theorem: it reads the transfer off the
    tree, and holds wrong arms unverified."""
    amp, bound = _pair_transfer(edges, arms, n)
    return np.abs(amp) - bound >= 1 - PST_TOL


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

    Tree k of each size decodes the Pruefer sequence that
    ``random_tree(size, (seed, size, k))`` draws, so the draws stay stable
    per (seed, size, k).  The sequences of up to DRAW_BLOCK entries are
    computed together, as rows of one array, by ``_pinned_integers``, and
    each block is surveyed with array operations: ``_prufer_edges`` decodes
    its rows in lockstep, ``_limbs`` finds the limbs from degrees and
    neighbour sums, and ``_verify_hits`` checks each hit's transfer on the
    2-dimensional Krylov space of its pair state, two sparse products with
    all of the block's hits at once and an error bound that the verdict
    takes into account.  No graph object and no dense matrix is built.

    Raises BadParam unless the sizes are an iterable of integers, the
    sample count a nonnegative integer of at most 2^32 (so that k fits one
    entropy word) and the seed a nonnegative integer; a size below 6 is
    NotATree.  All of these are checked before any tree is drawn."""
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
        rows = max(1, DRAW_BLOCK // (size - 2))
        for start in range(0, samples_per_size, rows):
            stop = min(start + rows, samples_per_size)
            edges = _prufer_edges(_pinned_integers((seed, size), start, stop, size, size - 2),
                                  size)
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
        edges = _tree_edges(limb_tree(n))
        found, arms = _limbs(edges, n)
        if not (len(found) and _verify_hits(edges, arms, n)[0]):
            verified = 0
    return LimbReport(n, total, hits, verified)
