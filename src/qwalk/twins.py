"""Twin and edge-perturbed twin subgraph structures.

A structure is a pair of disjoint induced subgraphs X1, X2 with a position-wise
isomorphism f such that swapping a <-> f(a) and fixing every other vertex is an
automorphism.  Its orbit partition (the pairs {a, f(a)} plus singletons) is
therefore equitable, and Q = [B C] is square and orthogonal, where B holds the
pair columns (e_a - e_f(a))/sqrt(2) and C the normalized cell indicators.  As
C^T B = 0, Q^T A Q is block-diagonal exactly when A B = B T, with top block
T = A(X1) - A', where A' holds the X1-X2 cross weights.  No tail-attach vertex
is ever paired, so A B vanishes on every tail vertex and the core residual
||A B - B T|| is the residual on the infinite graph.  That bounds the
transition matrix's blocks at every time, by Duhamel's formula:
||e^{itA} B - B e^{itT}|| <= |t| ||A B - B T||.

Detection pairs vertices whose sorted rows hold the same rounded weights:
the rows are classed by one 1-D ``np.unique`` over the rows viewed as void
scalars.  Its search needs, per candidate pair, the later candidates that are
disjoint from it and consistent with it.  These compatibility rows are built
lazily, in blocks that start at the requested candidate and double in size up
to ROW_BLOCK entries of a table of the weights among the candidates' vertices
(when every row fits in one block, the first block builds them all).  A
search that expands most candidates then makes a few NumPy passes, and one
that stops early builds few rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import StructureViolation, require_int
from .graphs import WeightedGraph
from .partition import Partition, _row_classes

WEIGHT_TOL = 1e-12
CHECK_HORIZON = 2.7  # |t| up to which the block residuals are bounded
# table entries per block of compatibility rows (64 KB of floats): that many
# cost about one block's fixed NumPy overhead, so rows never asked for are cheap
ROW_BLOCK = 1 << 13


@dataclass(frozen=True)
class TwinStructure:
    graph: WeightedGraph
    x1: tuple[int, ...]
    x2: tuple[int, ...]

    @classmethod
    def of(cls, g: WeightedGraph, x1, x2) -> "TwinStructure":
        ts = cls(g, tuple(x1), tuple(x2))
        ts.validate()
        return ts

    # f is positional: f(x1[i]) = x2[i]
    def f(self, a: int) -> int:
        return self.x2[self.x1.index(a)]

    def validate(self) -> None:
        g = self.graph
        x1, x2 = self.x1, self.x2
        if len(x1) != len(x2):
            raise StructureViolation("x1 and x2 have different sizes")
        if len(set(x1) | set(x2)) != 2 * len(x1):
            raise StructureViolation("x1 and x2 must be disjoint vertex lists")
        for v in x1 + x2:
            if not 0 <= v < g.n:
                raise StructureViolation(f"vertex {v} outside the core")
        inside = set(x1) | set(x2)
        for i, a in enumerate(x1):
            for j, b in enumerate(x1):
                if abs(g.weight(x2[i], x2[j]) - g.weight(a, b)) > WEIGHT_TOL:
                    raise StructureViolation(
                        f"isomorphism broken: w({x2[i]},{x2[j]}) != w({a},{b})"
                    )
        nbrs = g.adjacency_lists
        for i, a in enumerate(x1):
            # only a neighbour of a or f(a) can carry a nonzero weight
            for y in sorted(set(nbrs[a]).union(nbrs[x2[i]]) - inside):
                if abs(g.weight(x2[i], y) - g.weight(a, y)) > WEIGHT_TOL:
                    raise StructureViolation(
                        f"outside attachment broken: w({x2[i]},{y}) != w({a},{y})"
                    )
            for t in g.tails:
                in1 = 1.0 if t.attach == a else 0.0
                in2 = 1.0 if t.attach == x2[i] else 0.0
                if in1 != in2:
                    raise StructureViolation(
                        f"tail at {t.attach} breaks the swap symmetry"
                    )
        for i, a in enumerate(x1):
            for j, b in enumerate(x1):
                if abs(g.weight(a, x2[j]) - g.weight(x2[i], b)) > WEIGHT_TOL:
                    raise StructureViolation(
                        f"cross-edge symmetry broken at ({a},{x2[j]})"
                    )

    def pair_partition(self) -> Partition:
        """Pairs {a, f(a)} as cells, all other core vertices as singletons."""
        paired = set(self.x1) | set(self.x2)
        cells = [(a, self.f(a)) for a in self.x1]
        cells += [(v,) for v in range(self.graph.n) if v not in paired]
        return Partition.of(cells)


@dataclass(frozen=True)
class BlockCheck:
    """max_residual is CHECK_HORIZON times ||A B - B T||_F over the pair
    columns B: a bound, at every |t| <= CHECK_HORIZON, on each entry of the
    off-diagonal blocks of Q^T U(t) Q and of B^T U(t) B - e^{itT}.  Both are
    B^T or C^T times U(t) B - B e^{itT}, as B^T B = I, C^T B = 0 and U(t) is
    symmetric."""

    max_residual: float


def reduced_hamiltonian(ts: TwinStructure) -> np.ndarray:
    """The operator driving the pair-difference block: A(X1) - A', where
    A'[i, j] is the weight between x1[i] and f(x1[j])."""
    w, k = ts.graph.weight, len(ts.x1)
    return np.array([[w(a, b) - w(a, c) for b, c in zip(ts.x1, ts.x2)]
                     for a in ts.x1]).reshape(k, k)


def verify_twin_structure(g: WeightedGraph, ts: TwinStructure) -> BlockCheck:
    """The block-diagonalization residual of a valid structure (see the
    module docstring): CHECK_HORIZON * ||A B - B T||_F on the core adjacency.

    Raises StructureViolation (naming the first broken invariant) if the
    structure itself is invalid.
    """
    if ts.graph is not g:
        ts = TwinStructure.of(g, ts.x1, ts.x2)
    else:
        ts.validate()

    k = len(ts.x1)
    bcols = np.zeros((g.n, k))
    bcols[list(ts.x1), range(k)] = 1 / sqrt(2.0)
    bcols[list(ts.x2), range(k)] = -1 / sqrt(2.0)
    return BlockCheck(CHECK_HORIZON * float(np.linalg.norm(
        g.core_adjacency() @ bcols - bcols @ reduced_hamiltonian(ts))))


def detect_twin_structures(g: WeightedGraph, cap: int = 6,
                           max_results: int = 256) -> list[TwinStructure]:
    """All twin structures induced by order-2 automorphisms with |x1| <= cap.

    Enumerates every non-empty set of at most ``cap`` disjoint vertex pairs
    (u, v), u < v, whose simultaneous swap preserves every weight within
    WEIGHT_TOL and fixes every tail-attach vertex, and where the rows of u
    and v hold the same weights after rounding to multiples of WEIGHT_TOL.
    Two weights within WEIGHT_TOL that round apart are never paired: on the
    path 0-1-2 with weights 1+4e-13 and 1+6e-13 the list is empty, though
    ``TwinStructure.of(g, (0,), (2,))`` validates.  The list is in
    lexicographic order of the pair sequences, a set before its extensions,
    and holds the first ``max_results`` of them.  x1 holds the pairs' u and
    x2 their v.

    The search is depth-first over the candidate pairs (vertices with no
    tail whose sorted rows agree after rounding to multiples of WEIGHT_TOL),
    three int bitsets per node: ``allowed``, the later candidates disjoint
    from and consistent with every chosen pair; ``used``, the chosen
    vertices; ``needed``, the vertices whose weights some chosen swap
    moves.  A node is a structure iff ``needed & ~used`` is empty.  The
    candidates come from one 1-D ``np.unique`` of the rounded, sorted rows,
    each viewed as one void scalar.  The bitsets of the vertices each swap
    moves, and of the candidates covering each vertex, are built once, each
    from one ``np.packbits``.  A candidate's row of compatible later
    candidates is needed the first time a node ending in it is expanded; it
    is then built with the rows after it, up to the first row already built,
    in one pass over a block of the table near[a, b] = |w(u,a) - w(v,b)| <=
    WEIGHT_TOL of each pair (u, v), on the k vertices of the candidates.
    Each pass takes twice the rows of the last, up to ROW_BLOCK table
    entries; the first takes one row, or all rows if they fit in one pass.
    Disjointness comes from the ``covers`` bitsets and "later"
    from an int mask.  Two prunes drop only subtrees that hold no
    structure, so the order is kept: a node returns when its outstanding
    vertices (``needed & ~used``) outnumber twice the pairs left to the
    cap, and its next pair comes no later than the last allowed candidate
    covering each outstanding vertex (none, if one is covered by no allowed
    candidate).  The search stops at ``max_results``.
    Raises BadParam unless ``cap`` and ``max_results`` are integers >= 1.
    """
    cap = require_int(cap, "cap", 1)
    max_results = require_int(max_results, "max_results", 1)
    adj = g.core_adjacency()
    # the swap of (u, v) maps row u onto row v, so the candidate pairs are
    # those whose rows hold the same weights (zeros sort last, as inf); a
    # tail-attach vertex is in a class of its own
    kind = _row_classes(np.sort(
        np.where(adj != 0, np.rint(adj / WEIGHT_TOL), np.inf), axis=1))
    for t in g.tails:
        kind[t.attach] = -1 - t.attach
    vertex = np.arange(g.n)
    cu, cv = np.nonzero((kind[:, None] == kind) & (vertex[:, None] < vertex))
    if not len(cu):
        return []
    candidates = list(zip(cu.tolist(), cv.tolist()))
    m = len(candidates)
    # per candidate, the vertices whose weights its swap moves (the pair's
    # own vertices among them are used as soon as it is chosen)
    diff = adj[cu]
    diff -= adj[cv]
    moved = _bit_rows(np.abs(diff, out=diff) > WEIGHT_TOL)
    # per vertex, the candidates containing it
    covers = _bit_rows((cu == vertex[:, None]) | (cv == vertex[:, None]))
    # the weights among the k vertices of the candidates, and each candidate
    # (x, y) as rows iu, iv of that table and as entry x*k + y of a k x k one
    ends, at = np.unique(np.concatenate((cu, cv)), return_inverse=True)
    sub = adj[np.ix_(ends, ends)]
    iu, iv = at[:m], at[m:]
    pair_at = iu * len(ends) + iv
    # one buffer, reused by every block, for ROW_BLOCK table entries or one row
    table = np.empty((max(1, ROW_BLOCK // len(ends) ** 2), len(ends), len(ends)))
    compat: list[int | None] = [None] * m
    # rows in the first pass: all of them if they fit the buffer, else one
    block = m if m <= len(table) else 1

    def later_compatible(i: int) -> int:
        """The candidates after i that are disjoint from and consistent with it."""
        nonlocal block
        if compat[i] is None:
            # rows i, i+1, ... up to the first row already built, twice as
            # many as the last pass and no more than the buffer holds, each
            # over the candidates from i on.  Pairs (u, v) and (x, y) are
            # consistent when the swaps agree on the weights between them:
            # w(u,x) ~ w(v,y) and w(u,y) ~ w(v,x), i.e. near[x, y] and
            # near[y, x] for near[a, b] = |w(u,a) - w(v,b)| <= WEIGHT_TOL
            stop = min(m, i + min(block, len(table)))
            stop = next((k for k in range(i + 1, stop) if compat[k] is not None), stop)
            block *= 2
            diff = np.subtract(sub[iu[i:stop], :, None], sub[iv[i:stop], None, :],
                               out=table[:stop - i])
            near = np.abs(diff, out=diff) <= WEIGHT_TOL
            ok = (near & near.transpose(0, 2, 1)).reshape(len(diff), -1)
            for k, row in enumerate(_bit_rows(np.take(ok, pair_at[i:], axis=1)), i):
                u, v = candidates[k]
                compat[k] = row << i & ~(covers[u] | covers[v]) & (-1 << k + 1)
        return compat[i]

    results: list[TwinStructure] = []
    pairs: list[tuple[int, int]] = []

    def dfs(i: int, allowed: int, used: int, needed: int) -> None:
        # the node whose last pair is candidate i; allowed still lacks its row
        outstanding = needed & ~used
        if pairs and not outstanding:
            results.append(TwinStructure(g, *zip(*pairs)))
        left = cap - len(pairs)
        if not left or len(results) >= max_results:
            return
        if outstanding.bit_count() > 2 * left:
            return
        if pairs:
            allowed &= later_compatible(i)
        # the next pair must come no later than the last allowed one covering
        # each outstanding vertex: with no such pair, nothing is left to try
        nexts = allowed
        rest = outstanding
        while rest:
            low = rest & -rest
            rest ^= low
            last = (covers[low.bit_length() - 1] & allowed).bit_length()
            nexts &= (1 << last) - 1
        while nexts:
            low = nexts & -nexts
            nexts ^= low
            allowed ^= low
            j = low.bit_length() - 1
            u, v = candidates[j]
            pairs.append((u, v))
            dfs(j, allowed, used | 1 << u | 1 << v, needed | moved[j])
            pairs.pop()
            if len(results) >= max_results:
                return

    dfs(-1, (1 << len(candidates)) - 1, 0, 0)
    return results


def _bit_rows(masks: np.ndarray) -> list[int]:
    """Each row of a 2-D boolean array with at least one column as an int
    whose bit k is row[k]."""
    packed = np.packbits(masks, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[k:k + width], "little")
            for k in range(0, len(data), width)]
