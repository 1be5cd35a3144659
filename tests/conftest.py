"""Shared fixtures: random twin-structure instances used by the property and
acceptance suites.

BLAS runs on one thread, set before NumPy is imported: the tests' matrices
are small, and on a busy machine extra BLAS threads only contend for cores
(the dense test oracle's stacked eigh took 4.1 s with the default threads
and 0.24 s with one, on a 2-core machine with one core busy)."""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from qwalk import TwinStructure, WeightedGraph

WEIGHTS = (1.0, -1.0, 2.0, 0.5)


def random_twin_instance(rng: np.random.Generator) -> TwinStructure:
    """A random graph with a planted valid twin structure (<= 20 vertices).

    Layout: x1 = [0..k-1], x2 = [k..2k-1] (f positional), outside vertices
    after that.  Cross weights are symmetric and both halves attach to the
    outside identically, so the swap is an automorphism by construction.
    """
    k = int(rng.integers(1, 4))
    m = int(rng.integers(0, 15 - 2 * k))
    n = 2 * k + m

    def w() -> float:
        return float(rng.choice(WEIGHTS))

    edges: dict[tuple[int, int], float] = {}

    def put(a: int, b: int, weight: float) -> None:
        if a != b and weight != 0:
            edges[(min(a, b), max(a, b))] = weight

    # internal structure of X1, copied to X2
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.6:
                x = w()
                put(i, j, x)
                put(k + i, k + j, x)
    # symmetric cross weights (diagonal = edges a - f(a))
    for i in range(k):
        for j in range(i, k):
            if rng.random() < 0.4:
                x = w()
                put(i, k + j, x)
                put(j, k + i, x)
    # outside graph
    for a in range(2 * k, n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                put(a, b, w())
    # identical attachment of both halves
    for i in range(k):
        for y in range(2 * k, n):
            if rng.random() < 0.35:
                x = w()
                put(i, y, x)
                put(k + i, y, x)

    g = WeightedGraph(n, tuple((a, b, x) for (a, b), x in edges.items()))
    return TwinStructure.of(g, tuple(range(k)), tuple(range(k, 2 * k)))
