"""Census of free trees by isomorphism class, the reference the exact limb
count is checked against.  `_free_trees(n)` yields one tree per class
(Wright, Richmond, Odlyzko & McKay, 1986) and `_tree_class(g)` its canonical
code and |Aut g|, so the class holds n!/|Aut g| of the n^(n-2) labelled
trees."""

from __future__ import annotations

from itertools import groupby
from math import factorial

from qwalk import WeightedGraph


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
