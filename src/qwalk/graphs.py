"""Core graph model: weighted graphs, tails, pure states, and the on-disk format.

Vertices of the finite core are dense integer indices ``0..n-1``.  Semi-infinite
path tails are metadata (:class:`TailSpec`); they are only materialized by the
spectral module when a truncation length is chosen.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    DuplicateEdgeConflict,
    MissingEdge,
    ParseError,
    SameVertex,
    SelfLoop,
    ZeroWeight,
)

FORMAT_TAG = "qwalk/1"

_NORM_TOL = 1e-12


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _vertex(x) -> int:
    """A vertex given as a Python or NumPy integer, as an int; ParseError for
    anything else, a bool included."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ParseError(f"vertex {x!r} is not an integer")
    return int(x)


@dataclass(frozen=True)
class TailSpec:
    """A semi-infinite path attached at a core vertex.

    ``prefix`` holds the leading edge weights; every weight past the prefix is 1
    (the all-ones infinite path).  An empty prefix is the plain unit tail.
    """

    attach: int
    prefix: tuple[float, ...] = ()

    def weight(self, k: int) -> float:
        """Weight of the k-th tail edge (k=0 joins the attach vertex)."""
        return self.prefix[k] if k < len(self.prefix) else 1.0


@dataclass(frozen=True)
class WeightedGraph:
    """Finite-core undirected weighted graph with optional path tails.

    Edges are stored once per unordered pair, sorted canonically; weights are
    nonzero reals.  Instances are immutable and safe to share.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    tails: tuple[TailSpec, ...] = ()

    def __post_init__(self):
        seen = set()
        canon = []
        for a, b, w in self.edges:
            if type(a) is not int or type(b) is not int:
                a, b = _vertex(a), _vertex(b)
            if a == b:
                raise SelfLoop(f"self-loop at vertex {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ParseError(f"edge ({a},{b}) out of range for n={self.n}")
            if not 0 < abs(w) < math.inf:
                if w == 0:
                    raise ZeroWeight(f"edge ({a},{b}) has zero weight")
                raise ParseError(f"edge ({a},{b}) has non-finite weight {w}")
            key = _edge_key(a, b)
            if key in seen:
                raise DuplicateEdgeConflict(f"edge {key} declared twice")
            seen.add(key)
            canon.append((*key, float(w)))
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))
        if any(type(t.attach) is not int for t in self.tails):
            object.__setattr__(self, "tails", tuple(
                TailSpec(_vertex(t.attach), t.prefix) for t in self.tails))
        for t in self.tails:
            if not 0 <= t.attach < self.n:
                raise ParseError(f"tail attach vertex {t.attach} out of range")
            if not all(math.isfinite(w) for w in t.prefix):
                raise ParseError("tail prefix contains a non-finite weight")
            if any(w == 0 for w in t.prefix):
                raise ZeroWeight("tail prefix contains a zero weight")

    @classmethod
    def _derived(cls, n: int, edges: tuple[tuple[int, int, float], ...],
                 tails: tuple[TailSpec, ...]) -> "WeightedGraph":
        """A graph built without the checks and the sort of __init__, for
        edges and tails derived from a validated graph in a way that keeps
        them valid: each edge once, in canonical order, with a nonzero finite
        float weight (a sign flip of each weight, as switching makes)."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, edges=edges, tails=tails)
        return g

    # -- queries ---------------------------------------------------------
    # Derived structures are cached on first use; cached_property writes the
    # instance __dict__ directly, so it works on the frozen dataclass.

    @cached_property
    def weight_map(self) -> dict[tuple[int, int], float]:
        return {(a, b): w for a, b, w in self.edges}

    @cached_property
    def adjacency_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the sorted tuple of its neighbours."""
        lists: list[list[int]] = [[] for _ in range(self.n)]
        # the canonical edge order reaches each vertex's smaller neighbours
        # in ascending order, then its larger ones: every list comes sorted
        for a, b, _ in self.edges:
            lists[a].append(b)
            lists[b].append(a)
        return tuple(map(tuple, lists))

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ends, other, weights): each edge listed from both of its ends, so
        that A x = np.bincount(ends, weights=weights * x[other], minlength=n)."""
        flat = np.fromiter(chain.from_iterable(self.edges), float, 3 * len(self.edges))
        a, b, w = flat[0::3].astype(np.intp), flat[1::3].astype(np.intp), flat[2::3]
        return np.concatenate((a, b)), np.concatenate((b, a)), np.concatenate((w, w))

    @cached_property
    def two_colouring(self) -> np.ndarray | None:
        """Each core vertex's side, 0 or 1, in a 2-colouring of the core
        (side 0 holds the smallest vertex of each component), or None when
        the core has an odd cycle.  A tail is a path, so it keeps the
        colouring: its vertices alternate from the attach vertex's side."""
        side = [-1] * self.n
        adj = self.adjacency_lists
        for root in range(self.n):
            if side[root] >= 0:
                continue
            side[root], stack = 0, [root]
            while stack:
                a = stack.pop()
                for b in adj[a]:
                    if side[b] < 0:
                        side[b] = 1 - side[a]
                        stack.append(b)
                    elif side[b] == side[a]:
                        return None
        return np.array(side, dtype=np.intp)

    @cached_property
    def degree_profile(self) -> DegreeProfile:
        """Signed and absolute core degrees, and the maximum absolute degree
        with tails included."""
        deg = [0.0] * self.n
        adeg = [0.0] * self.n
        for a, b, w in self.edges:
            deg[a] += w
            deg[b] += w
            adeg[a] += abs(w)
            adeg[b] += abs(w)
        m = max(adeg, default=0.0)
        for t in self.tails:
            # attach vertex gains the first tail edge; interior tail vertex k
            # carries |w_k| + |w_{k+1}|, which is 2 past the prefix
            attach_abs = adeg[t.attach] + abs(t.weight(0))
            m = max(m, attach_abs)
            for k in range(len(t.prefix) + 1):
                m = max(m, abs(t.weight(k)) + abs(t.weight(k + 1)))
        return DegreeProfile(tuple(deg), tuple(adeg), m)

    def weight(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        return self.weight_map.get(_edge_key(a, b), 0.0)

    def neighbors(self, a: int) -> list[int]:
        """Sorted neighbours of a; none for a vertex outside the core."""
        return list(self.adjacency_lists[a]) if 0 <= a < self.n else []

    def core_adjacency(self) -> np.ndarray:
        """Adjacency matrix of the finite core, tails ignored."""
        a = np.zeros((self.n, self.n))
        ends, other, w = self.edge_arrays
        a[ends, other] = w
        return a


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex (signed and absolute) degrees of the core, and the global
    maximum absolute degree M with tails included."""

    degree: tuple[float, ...]
    absolute_degree: tuple[float, ...]
    m: float


@dataclass(frozen=True)
class PureState:
    """Unit vector supported on finitely many core vertices."""

    support: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        if any(type(v) is not int for v, _ in self.support):
            object.__setattr__(self, "support", tuple(
                (_vertex(v), c) for v, c in self.support))
        verts = [v for v, _ in self.support]
        if min(verts, default=0) < 0:
            raise ParseError(f"state vertex {min(verts)} is negative")
        if len(set(verts)) != len(verts):
            raise ParseError("pure state support vertices must be distinct")
        norm2 = sum(abs(c) ** 2 for _, c in self.support)
        # written so that a NaN or infinite amplitude fails too
        if not abs(norm2 - 1.0) <= _NORM_TOL:
            raise ParseError(f"pure state is not unit (|u|^2 = {norm2})")

    def vector(self, dim: int) -> np.ndarray:
        v = np.zeros(dim, dtype=complex)
        for vertex, amp in self.support:
            if vertex >= dim:
                raise ParseError(f"state vertex {vertex} outside dimension {dim}")
            v[vertex] = amp
        return v

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.support)

    def is_parallel_to(self, other: "PureState", tol: float = 1e-9) -> bool:
        overlap = sum(
            complex(np.conj(ca)) * cb
            for (va, ca) in self.support
            for (vb, cb) in other.support
            if va == vb
        )
        return abs(abs(overlap) - 1.0) <= tol


def vertex_state(a: int) -> PureState:
    return PureState(((a, 1.0 + 0j),))


def pair_state(a: int, b: int) -> PureState:
    if a == b:
        raise SameVertex("pair state needs two distinct vertices")
    s = 1.0 / math.sqrt(2.0)
    return PureState(((a, s + 0j), (b, -s + 0j)))


def plus_state(a: int, b: int) -> PureState:
    if a == b:
        raise SameVertex("plus state needs two distinct vertices")
    s = 1.0 / math.sqrt(2.0)
    return PureState(((a, s + 0j), (b, s + 0j)))


# -- degree / boundedness ------------------------------------------------


def degree_profile(g: WeightedGraph) -> DegreeProfile:
    """The graph's degree profile, computed once per graph."""
    return g.degree_profile


def negate_edges(g: WeightedGraph, edges) -> WeightedGraph:
    """Multiply the weights of the listed edges by -1; an edge listed twice
    keeps its sign."""
    flip: set[tuple[int, int]] = set()
    for a, b in edges:
        key = _edge_key(a, b)
        if key not in g.weight_map:
            raise MissingEdge(f"edge {key} not present")
        flip ^= {key}
    return WeightedGraph._derived(
        g.n, tuple((a, b, -w if (a, b) in flip else w) for a, b, w in g.edges), g.tails)


# -- interchange format --------------------------------------------------


def _document(doc, what: str) -> dict:
    """A qwalk/1 document (dict or JSON text) as a dict."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:  # bad syntax or encoding, or too deep
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a JSON object")
    fmt = doc.get("format", FORMAT_TAG)
    if fmt != FORMAT_TAG:
        raise ParseError(f"unsupported format {fmt!r}")
    return doc


def _list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{key!r} must be a list")
    return value


def _is_index(x) -> bool:
    # JSON true/false arrive as bool, which is an int subclass
    return isinstance(x, int) and not isinstance(x, bool)


def _number(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"{what} {x!r} is not a number")
    try:
        return float(x)
    except OverflowError as exc:
        raise ParseError(f"{what} {x!r} is out of range") from exc


def build_graph(doc) -> WeightedGraph:
    """Build a graph from a qwalk/1 document (dict or JSON string).

    String vertex labels are accepted via an optional "labels" list and are
    mapped to their indices on load.
    """
    doc = _document(doc, "graph")
    if "n" not in doc:
        raise ParseError("graph document missing 'n'")
    n = doc["n"]
    if not _is_index(n) or n < 0:
        raise ParseError("'n' must be a nonnegative integer")

    labels = doc.get("labels")
    index = None
    if labels is not None:
        if (not isinstance(labels, (list, tuple)) or len(labels) != n
                or not all(isinstance(x, str) for x in labels)
                or len(set(labels)) != n):
            raise ParseError("'labels' must list n distinct names")
        index = {name: i for i, name in enumerate(labels)}

    def vid(x) -> int:
        if index is not None and isinstance(x, str):
            if x not in index:
                raise ParseError(f"unknown vertex label {x!r}")
            return index[x]
        if not _is_index(x):
            raise ParseError(f"vertex reference {x!r} is not an index")
        if not 0 <= x < n:
            raise ParseError(f"vertex index {x} out of range")
        return x

    seen: dict[tuple[int, int], float] = {}
    for entry in _list(doc, "edges"):
        if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
            raise ParseError(f"bad edge entry {entry!r}")
        a, b = vid(entry[0]), vid(entry[1])
        if a == b:
            raise SelfLoop(f"self-loop at vertex {a}")
        w = _number(entry[2], "edge weight") if len(entry) == 3 else 1.0
        if w == 0:
            raise ZeroWeight(f"edge ({a},{b}) has zero weight")
        key = _edge_key(a, b)
        if key in seen and seen[key] != w:
            raise DuplicateEdgeConflict(
                f"edge {key} declared with conflicting weights {seen[key]} and {w}"
            )
        seen[key] = w

    tails = []
    for tdoc in _list(doc, "tails"):
        if not isinstance(tdoc, dict) or "attach" not in tdoc:
            raise ParseError(f"tail {tdoc!r} needs an 'attach' vertex")
        prefix = tuple(_number(w, "tail weight") for w in _list(tdoc, "prefix"))
        tails.append(TailSpec(vid(tdoc["attach"]), prefix))

    return WeightedGraph(n, tuple((a, b, w) for (a, b), w in seen.items()), tuple(tails))


def graph_to_document(g: WeightedGraph) -> dict:
    doc = {
        "format": FORMAT_TAG,
        "n": g.n,
        "edges": [[a, b, w] for a, b, w in g.edges],
    }
    if g.tails:
        doc["tails"] = [{"attach": t.attach, "prefix": list(t.prefix)} for t in g.tails]
    return doc


def state_to_document(s: PureState) -> dict:
    return {
        "format": FORMAT_TAG,
        "amplitudes": [[v, c.real, c.imag] for v, c in s.support],
    }


def build_state(doc) -> PureState:
    """Build a state from a qwalk/1 document: "amplitudes" lists
    [vertex, re, im] entries with nonnegative integer vertices."""
    doc = _document(doc, "state")
    amps = _list(doc, "amplitudes")
    if not amps:
        raise ParseError("state document missing 'amplitudes'")
    support = []
    for entry in amps:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ParseError(f"amplitude entry {entry!r} is not [vertex, re, im]")
        v, re, im = entry
        if not _is_index(v) or v < 0:
            raise ParseError(f"state vertex {v!r} is not a nonnegative integer")
        support.append((v, complex(_number(re, "amplitude"), _number(im, "amplitude"))))
    return PureState(tuple(support))
