"""Equitable partitions: verification, coarsest refinement, symmetrized quotient."""

from __future__ import annotations

from dataclasses import dataclass

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

    def cell_of(self, n: int) -> list[int]:
        idx = [-1] * n
        for j, cell in enumerate(self.cells):
            for v in cell:
                idx[v] = j
        return idx

    def characteristic_matrix(self, n: int) -> np.ndarray:
        c = np.zeros((n, len(self.cells)))
        for j, cell in enumerate(self.cells):
            c[list(cell), j] = 1.0 / np.sqrt(len(cell))
        return c


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
        cell_idx = p.cell_of(g.n)
        for t in g.tails:
            if len(p.cells[cell_idx[t.attach]]) != 1:
                raise NotAPartition(
                    f"tail attach vertex {t.attach} must be a singleton cell"
                )
    return g.core_adjacency()


def _check_on_matrix(a: np.ndarray, p: Partition):
    n = a.shape[0]
    d = len(p.cells)
    sums = np.zeros((n, d))
    for k, cell in enumerate(p.cells):
        sums[:, k] = a[:, list(cell)].sum(axis=1)
    constants = np.zeros((d, d))
    for j, cell in enumerate(p.cells):
        ref = cell[0]
        constants[j] = sums[ref]
        for v in cell[1:]:
            bad = np.nonzero(np.abs(sums[v] - sums[ref]) > CELL_SUM_TOL)[0]
            if bad.size:
                return EquitableFailure(j, int(bad[0]), ref, v)
    return constants


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
    """Coarsest equitable partition refining seed, by iterated signature splitting.

    Signatures quantize weighted cell sums to a 1e-9 grid; ties break by cell
    index, so the result is deterministic.
    """
    a = _core_matrix(g, seed)
    cells = [list(c) for c in seed.cells]
    changed = True
    while changed:
        changed = False
        new_cells: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sigs: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple(
                    int(round(a[v, other].sum() / SIGNATURE_QUANTUM))
                    for other in cells
                )
                sigs.setdefault(sig, []).append(v)
            if len(sigs) > 1:
                changed = True
            for sig in sorted(sigs):
                new_cells.append(sigs[sig])
        cells = new_cells
    result = check_equitable(g, Partition.of(cells))
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
