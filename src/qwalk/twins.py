"""Twin and edge-perturbed twin subgraph structures.

A structure is a pair of disjoint induced subgraphs X1, X2 with a position-wise
isomorphism f such that swapping a <-> f(a) and fixing every other vertex is an
automorphism.  The associated orthonormal matrix Q = [B C] block-diagonalizes
the adjacency matrix, with top block T = A(X1) - A', where A' holds the X1-X2
cross weights.  That bounds the transition matrix's blocks at every time, by
Duhamel's formula: ||e^{itA} B - B e^{itT}|| <= |t| ||A B - B T||.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import StructureViolation
from .graphs import WeightedGraph
from .partition import Partition, coarsest_equitable, quotient, shallow_adjacency

WEIGHT_TOL = 1e-12
CHECK_HORIZON = 2.7  # |t| up to which the block residuals are bounded


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

    # -- derived matrices ------------------------------------------------

    def x1_adjacency(self) -> np.ndarray:
        k = len(self.x1)
        a = np.zeros((k, k))
        for i, u in enumerate(self.x1):
            for j, v in enumerate(self.x1):
                a[i, j] = self.graph.weight(u, v)
        return a

    def aprime(self) -> np.ndarray:
        """Cross matrix: entry (i, j) is the weight between x1[i] and f(x1[j])."""
        k = len(self.x1)
        a = np.zeros((k, k))
        for i, u in enumerate(self.x1):
            for j in range(k):
                a[i, j] = self.graph.weight(u, self.x2[j])
        return a

    def pair_partition(self) -> Partition:
        """Pairs {a, f(a)} as cells, all other core vertices as singletons."""
        paired = set(self.x1) | set(self.x2)
        cells = [(a, self.f(a)) for a in self.x1]
        cells += [(v,) for v in range(self.graph.n) if v not in paired]
        return Partition.of(cells)


@dataclass(frozen=True)
class BlockCheck:
    """blockdiag_residual and topblock_residual are both CHECK_HORIZON times
    ||A B - B T||_F over the pair columns B: a bound, at every
    |t| <= CHECK_HORIZON, on each entry of the off-diagonal blocks of
    Q^T U(t) Q and of B^T U(t) B - e^{itT}.  Both are B^T or C^T times
    U(t) B - B e^{itT}, as B^T B = I, C^T B = 0 and U(t) is symmetric; B
    vanishes on the tails, so the bound holds on the infinite graph."""

    residual_aq_qb: float
    residual_commute: float
    blockdiag_residual: float
    topblock_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.residual_aq_qb, self.residual_commute,
                   self.blockdiag_residual, self.topblock_residual)


def reduced_hamiltonian(ts: TwinStructure) -> np.ndarray:
    """The operator driving the pair-difference block: A(X1) - A'."""
    return ts.x1_adjacency() - ts.aprime()


def verify_twin_structure(g: WeightedGraph, ts: TwinStructure) -> BlockCheck:
    """Numeric residuals of the block-diagonalization identities.

    Raises StructureViolation (naming the first broken invariant) if the
    structure itself is invalid.
    """
    if ts.graph is not g:
        ts = TwinStructure.of(g, ts.x1, ts.x2)
    else:
        ts.validate()

    a = shallow_adjacency(g)
    dim = a.shape[0]
    k = len(ts.x1)

    seed_cells = list(ts.pair_partition().cells)
    seed_cells += [(v,) for v in range(g.n, dim)]
    iu, ju = np.nonzero(np.triu(a, 1))
    core_like = WeightedGraph(dim, tuple(zip(iu.tolist(), ju.tolist(),
                                             a[iu, ju].tolist())))
    ed = coarsest_equitable(core_like, Partition.of(seed_cells))
    # the pair cells must survive refinement for the structure to be usable
    cellset = set(ed.partition.cells)
    for u in ts.x1:
        if (min(u, ts.f(u)), max(u, ts.f(u))) not in cellset:
            raise StructureViolation(f"pair cell {{{u},{ts.f(u)}}} is not equitable")
    b_quot = quotient(ed)

    bcols = np.zeros((dim, k))
    for i, u in enumerate(ts.x1):
        bcols[u, i] = 1 / sqrt(2.0)
        bcols[ts.f(u), i] = -1 / sqrt(2.0)
    cmat = ed.partition.characteristic_matrix(dim)
    q = np.hstack([bcols, cmat])

    top = reduced_hamiltonian(ts)
    bblock = np.zeros((k + b_quot.shape[0],) * 2)
    bblock[:k, :k] = top
    bblock[k:, k:] = b_quot

    res_aq = float(np.max(np.abs(a @ q - q @ bblock)))
    qqt = q @ q.T
    res_comm = float(np.max(np.abs(a @ qqt - qqt @ a)))

    res_u = CHECK_HORIZON * float(np.linalg.norm(a @ bcols - bcols @ top))
    return BlockCheck(res_aq, res_comm, res_u, res_u)


def detect_twin_structures(g: WeightedGraph, cap: int = 6,
                           max_results: int = 256) -> list[TwinStructure]:
    """All twin structures induced by order-2 automorphisms with |x1| <= cap.

    Enumerates sets of disjoint vertex pairs whose simultaneous swap is a
    (weight-preserving) automorphism fixing everything else.  Vertices with
    tails are kept fixed.
    """
    # nested lists: the searches below index single entries, which is much
    # cheaper on Python floats than on numpy scalars
    a = g.core_adjacency().tolist()
    fixed_by_tail = {t.attach for t in g.tails}
    sig = [tuple(sorted(int(round(x / WEIGHT_TOL)) for x in row if x != 0))
           for row in a]
    candidates = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if u not in fixed_by_tail and v not in fixed_by_tail
        and sig[u] == sig[v]
    ]

    results: list[TwinStructure] = []

    def fully_valid(pairs: list[tuple[int, int]]) -> bool:
        used = {x for p in pairs for x in p}
        for (u, v) in pairs:
            for y in range(g.n):
                if y in used:
                    continue
                if abs(a[u][y] - a[v][y]) > WEIGHT_TOL:
                    return False
        return True

    def record(pairs: list[tuple[int, int]]) -> None:
        x1 = tuple(min(p) for p in pairs)
        x2 = tuple(max(p) for p in pairs)
        results.append(TwinStructure(g, x1, x2))

    def consistent(pairs: list[tuple[int, int]], p: tuple[int, int]) -> bool:
        u, v = p
        for (c, d) in pairs:
            if abs(a[u][c] - a[v][d]) > WEIGHT_TOL:
                return False
            if abs(a[u][d] - a[v][c]) > WEIGHT_TOL:
                return False
        return True

    def dfs(start: int, pairs: list[tuple[int, int]], used: set[int]) -> None:
        if len(results) >= max_results:
            return
        if pairs and fully_valid(pairs):
            record(pairs)
        if len(pairs) == cap:
            return
        for i in range(start, len(candidates)):
            u, v = candidates[i]
            if u in used or v in used:
                continue
            if not consistent(pairs, (u, v)):
                continue
            pairs.append((u, v))
            used.update((u, v))
            dfs(i + 1, pairs, used)
            pairs.pop()
            used.difference_update((u, v))

    dfs(0, [], set())
    return results
