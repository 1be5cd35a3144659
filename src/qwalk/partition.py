"""Equitable partitions: verification, coarsest refinement, symmetrized quotient."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import NotAPartition, QwalkError, SignInconsistency
from .graphs import WeightedGraph

CELL_SUM_TOL = 1e-10
SIGNATURE_QUANTUM = 1e-9


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty cells covering the core vertex set, canonically ordered."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = tuple(sorted((tuple(sorted(c)) for c in self.cells), key=lambda c: c[0]))
        object.__setattr__(self, "cells", canon)

    @classmethod
    def of(cls, cells) -> "Partition":
        return cls(tuple(tuple(c) for c in cells))

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(tuple((v,) for v in range(n)))

    @classmethod
    def single(cls, n: int) -> "Partition":
        return cls((tuple(range(n)),))

    def validate(self, n: int) -> None:
        seen: set[int] = set()
        for cell in self.cells:
            if not cell:
                raise NotAPartition("empty cell")
            for v in cell:
                if not 0 <= v < n:
                    raise NotAPartition(f"vertex {v} out of range")
                if v in seen:
                    raise NotAPartition(f"vertex {v} in two cells")
                seen.add(v)
        if len(seen) != n:
            raise NotAPartition("cells do not cover the vertex set")

    def labels(self, n: int) -> np.ndarray:
        """Each vertex's cell index, for cells that partition 0..n-1."""
        labels = np.empty(n, np.intp)
        labels[list(chain.from_iterable(self.cells))] = np.repeat(
            np.arange(len(self.cells)), [len(c) for c in self.cells])
        return labels

    def characteristic_matrix(self, n: int) -> np.ndarray:
        c = np.eye(len(self.cells))[self.labels(n)]
        return c / np.sqrt(c.sum(axis=0))


@dataclass(frozen=True)
class EquitableData:
    graph: WeightedGraph
    partition: Partition
    constants: np.ndarray       # c[j, k] = weighted edge sum from a V_j vertex into V_k
    charmatrix: np.ndarray


@dataclass(frozen=True)
class EquitableFailure:
    """Witness of inequitability: vertices a, a2 in cell j with different sums into cell k."""

    j: int
    k: int
    a: int
    a2: int


def _core_matrix(g: WeightedGraph, p: Partition) -> np.ndarray:
    p.validate(g.n)
    if g.tails:
        labels = p.labels(g.n)
        for t in g.tails:
            if len(p.cells[labels[t.attach]]) != 1:
                raise NotAPartition(
                    f"tail attach vertex {t.attach} must be a singleton cell"
                )
    return g.core_adjacency()


def _check_on_matrix(a: np.ndarray, p: Partition):
    """The constants c[j, k] when every vertex's sums into the cells equal
    those of its cell's first vertex at CELL_SUM_TOL, else the failure of the
    first vertex in (cell, vertex) order that differs, at its first column."""
    labels = p.labels(a.shape[0])
    first = np.array([cell[0] for cell in p.cells], np.intp)
    sums = a @ np.eye(len(p.cells))[labels]
    bad = np.abs(sums - sums[first[labels]]) > CELL_SUM_TOL
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size:
        v = rows[np.argmin(labels[rows])]
        j = labels[v]
        return EquitableFailure(int(j), int(np.argmax(bad[v])), int(first[j]), int(v))
    return sums[first]


def check_equitable(g: WeightedGraph, p: Partition):
    """EquitableData when p is equitable, else an EquitableFailure witness.

    On a tailed graph p is equitable on the core exactly when it stays so with
    every tail vertex a singleton cell: the attach vertices are singletons
    (NotAPartition otherwise), so no vertex of a larger cell has a tail edge.
    """
    a = _core_matrix(g, p)
    res = _check_on_matrix(a, p)
    if isinstance(res, EquitableFailure):
        return res
    return EquitableData(g, p, res, p.characteristic_matrix(g.n))


def coarsest_equitable(g: WeightedGraph, seed: Partition) -> EquitableData:
    """Coarsest equitable partition refining seed, by colour refinement.

    Each round classes the vertices by their cell and their weighted sums
    into every cell, rounded to multiples of SIGNATURE_QUANTUM: one product
    and one ``_row_classes``.  The rounds stop when no cell splits.  Two
    vertices share a cell of the result iff they shared one in every round,
    so the result depends on no order of cells or vertices.
    """
    a = _core_matrix(g, seed)
    labels, count, last = seed.labels(g.n), len(seed.cells), None
    while count != last:
        sig = np.rint(a @ np.eye(count)[labels] / SIGNATURE_QUANTUM)
        labels = _row_classes(np.column_stack((labels, sig)))
        last, count = count, int(labels.max(initial=-1)) + 1
    order = np.argsort(labels, kind="stable")
    cells = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    result = check_equitable(g, Partition.of(c.tolist() for c in cells if c.size))
    if isinstance(result, EquitableFailure):
        raise QwalkError("refinement did not reach an equitable partition")
    return result


def quotient(ed: EquitableData) -> np.ndarray:
    """Symmetrized quotient adjacency matrix, with entries
    sign(c_jk)*sqrt(c_jk*c_kj).

    Checks A C = C B at CELL_SUM_TOL, and nothing else: by Duhamel's formula
    ||e^{itA} C - C e^{itB}|| <= |t| ||A C - C B|| at every time t.
    """
    c = ed.constants
    prod = c * c.T
    bad = np.argwhere(prod < -CELL_SUM_TOL)  # row-major: the first (j, k) first
    if bad.size:
        j, k = bad[0]
        raise SignInconsistency(
            f"cell constants c[{j},{k}]={c[j, k]} and c[{k},{j}]={c[k, j]} "
            "have opposite signs"
        )
    b = np.sign(c) * np.sqrt(np.maximum(prod, 0.0))
    b = (b + b.T) / 2.0

    a = ed.graph.core_adjacency()
    cm = ed.charmatrix
    if np.max(np.abs(a @ cm - cm @ b)) > CELL_SUM_TOL:
        raise QwalkError("quotient intertwining A C = C B failed")
    return b


def _row_classes(rows: np.ndarray) -> np.ndarray:
    """A class per row of a 2-D float array without NaN: two rows share a
    class iff they are equal entry by entry, as in np.unique(axis=0).  Each
    row is one void scalar, so this is a 1-D unique over bytes; adding 0.0
    turns -0.0 into +0.0, the one pair of equal floats with different bytes,
    and leaves a fresh C-contiguous array to view."""
    rows = rows + 0.0
    return np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
                     .ravel(), return_inverse=True)[1]
