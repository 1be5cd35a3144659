"""Graph generators: standard families, blow-ups, abelian Cayley graphs,
1-sums / rooted products, and the named gadget fixtures with their designated
transfer states and times."""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .errors import (
    AsymmetricConnection,
    BadParam,
    IdentityInConnection,
    InvalidRoot,
    UnknownGadget,
    require_int,
)
from .graphs import (
    PureState,
    TailSpec,
    WeightedGraph,
    negate_edges,
    pair_state,
    plus_state,
)

# -- standard families ----------------------------------------------------


def path_graph(n: int) -> WeightedGraph:
    if require_int(n, "path size") < 1:
        raise BadParam("path needs at least one vertex")
    return WeightedGraph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def cycle_graph(n: int) -> WeightedGraph:
    if require_int(n, "cycle size") < 3:
        raise BadParam("cycle needs at least three vertices")
    edges = tuple((i, i + 1, 1.0) for i in range(n - 1)) + ((0, n - 1, 1.0),)
    return WeightedGraph(n, edges)


def complete_graph(n: int) -> WeightedGraph:
    if require_int(n, "complete graph size") < 1:
        raise BadParam("complete graph needs at least one vertex")
    return WeightedGraph(
        n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n))
    )


def blow_up(h: WeightedGraph, n: int) -> WeightedGraph:
    """n-fold all-fibers join: adjacency J_n (x) A(h); copy j of vertex a is
    indexed j*|V(h)| + a."""
    if require_int(n, "blow-up copy count") < 1:
        raise BadParam("blow-up needs at least one copy")
    if h.tails:
        raise BadParam("blow-up of a tailed graph is not supported")
    m = h.n
    edges = set()
    for j in range(n):
        for k in range(n):
            for a, b, w in h.edges:
                for u, v in ((j * m + a, k * m + b), (j * m + b, k * m + a)):
                    if u < v:
                        edges.add((u, v, w))
    return WeightedGraph(n * m, tuple(sorted(edges)))


def fiber_sum_state(h_n: int, copies: int, a: int, b: int | None = None,
                    sign: int = -1) -> PureState:
    """Normalized sum over copies of e_a (or of a two-vertex combination).

    With b given, returns the normalized sum over copies of
    (e_a + sign*e_b); with b=None, the plain fiber sum of vertex a.

    Raises BadParam unless h_n and copies are integers of at least 1 and a
    (and b, which must differ from a) an integer vertex in [0, h_n).
    """
    h_n = require_int(h_n, "vertices per copy", 1)
    copies = require_int(copies, "copies", 1)
    for v in (a,) if b is None else (a, b):
        if not 0 <= require_int(v, "fiber vertex") < h_n:
            raise BadParam(f"fiber vertex {v} not in [0, {h_n})")
    if a == b:
        raise BadParam("a fiber pair needs two distinct vertices")
    amps: list[tuple[int, complex]] = []
    if b is None:
        s = 1.0 / sqrt(copies)
        amps = [(j * h_n + a, s + 0j) for j in range(copies)]
    else:
        s = 1.0 / sqrt(2 * copies)
        for j in range(copies):
            amps.append((j * h_n + a, s + 0j))
            amps.append((j * h_n + b, sign * s + 0j))
    return PureState(tuple(amps))


# -- Cayley graphs over products of cyclic groups -------------------------


@dataclass(frozen=True)
class CayleySpec:
    """Connection set over Z_{m_1} x ... x Z_{m_r}; vertices use big-endian
    mixed-radix indexing (first factor most significant)."""

    moduli: tuple[int, ...]
    connection: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.moduli:
            raise BadParam("the group needs at least one modulus")
        moduli = tuple(require_int(m, "modulus", 1) for m in self.moduli)
        object.__setattr__(self, "moduli", moduli)
        for s in self.connection:
            # zip would silently drop or never reach the extra coordinates
            if len(s) != len(moduli):
                raise BadParam(f"connection element {tuple(s)} has {len(s)} "
                               f"coordinates, the group {len(moduli)}")
        norm = tuple(
            tuple(require_int(x, "connection coordinate") % m
                  for x, m in zip(s, moduli)) for s in self.connection
        )
        object.__setattr__(self, "connection", norm)
        sset = set(norm)
        if len(sset) != len(norm):
            raise BadParam("connection set has repeated elements")
        zero = tuple(0 for _ in self.moduli)
        if zero in sset:
            raise IdentityInConnection("identity element in connection set")
        for s in sset:
            neg = tuple((-x) % m for x, m in zip(s, self.moduli))
            if neg not in sset:
                raise AsymmetricConnection(f"element {s} lacks its inverse")

    @property
    def order(self) -> int:
        out = 1
        for m in self.moduli:
            out *= m
        return out

    def index(self, elem: tuple[int, ...]) -> int:
        idx = 0
        for x, m in zip(elem, self.moduli):
            idx = idx * m + (x % m)
        return idx

    def element(self, idx: int) -> tuple[int, ...]:
        digits = []
        for m in reversed(self.moduli):
            digits.append(idx % m)
            idx //= m
        return tuple(reversed(digits))


def cayley(spec: CayleySpec) -> WeightedGraph:
    """Unweighted Cayley graph: a ~ b iff a - b is in the connection set."""
    edges = set()
    for idx in range(spec.order):
        a = spec.element(idx)
        for s in spec.connection:
            b = tuple((x + y) % m for x, y, m in zip(a, s, spec.moduli))
            jdx = spec.index(b)
            if idx < jdx:
                edges.add((idx, jdx, 1.0))
    return WeightedGraph(spec.order, tuple(sorted(edges)))


# -- 1-sums and rooted products ------------------------------------------


def one_sum(g: WeightedGraph, h: WeightedGraph, u_g: int, u_h: int
            ) -> WeightedGraph:
    """Glue h onto g by identifying h's vertex u_h with g's vertex u_g.

    g keeps its vertex indices; the other vertices of h follow after g's.
    Raises BadParam unless both roots are integers, and InvalidRoot unless
    each is a vertex of its graph.
    """
    u_g = require_int(u_g, "host root")
    u_h = require_int(u_h, "attached root")
    if not 0 <= u_g < g.n:
        raise InvalidRoot(f"vertex {u_g} not in the host graph")
    if not 0 <= u_h < h.n:
        raise InvalidRoot(f"vertex {u_h} not in the attached graph")
    remap = {}
    nxt = g.n
    for v in range(h.n):
        if v == u_h:
            remap[v] = u_g
        else:
            remap[v] = nxt
            nxt += 1
    edges = list(g.edges)
    edges += [(remap[a], remap[b], w) for a, b, w in h.edges]
    tails = list(g.tails)
    tails += [TailSpec(remap[t.attach], t.prefix) for t in h.tails]
    return WeightedGraph(nxt, tuple(edges), tuple(tails))


@dataclass(frozen=True)
class RootedCollection:
    """A host graph plus per-vertex attachments: (graph, root) pairs, the
    string "tail" for a unit half-infinite path, or nothing."""

    host: WeightedGraph
    attachments: dict  # host vertex -> (WeightedGraph, int) | "tail"


def rooted_product(rc: RootedCollection) -> WeightedGraph:
    """The host with each attachment glued on at its host vertex.  Raises
    BadParam unless every attachment vertex is an integer, and InvalidRoot
    unless it is a vertex of the host."""
    g = rc.host
    specs = {require_int(v, "attachment vertex"): spec
             for v, spec in rc.attachments.items()}
    for v in sorted(specs):
        if not 0 <= v < rc.host.n:
            raise InvalidRoot(f"attachment vertex {v} not in the host")
        spec = specs[v]
        if spec == "tail":
            g = WeightedGraph(g.n, g.edges, g.tails + (TailSpec(v),))
        else:
            h, root = spec
            g = one_sum(g, h, v, root)
    return g


# -- named gadget fixtures -----------------------------------------------


@dataclass(frozen=True)
class Gadget:
    name: str
    graph: WeightedGraph
    src: PureState | None
    dst: PureState | None
    tau: float | None
    note: str = ""


def _attach_optional(g: WeightedGraph, at: int, h: WeightedGraph | None,
                     h_root: int) -> WeightedGraph:
    if h is None or h.n == 1:
        return g
    return one_sum(g, h, at, h_root)


def _with_tail(g: WeightedGraph, at: int, tail_len: int | None) -> WeightedGraph:
    """tail_len None: nothing; 0: half-infinite unit tail; k>0: path of k
    extra vertices."""
    if tail_len is None:
        return g
    if tail_len == 0:
        return WeightedGraph(g.n, g.edges, g.tails + (TailSpec(at),))
    if tail_len < 0:
        raise BadParam("tail length must be nonnegative")
    return one_sum(g, path_graph(tail_len + 1), at, 0)


def _p2_twins_base(h: WeightedGraph | None, h_root: int) -> WeightedGraph:
    return _attach_optional(path_graph(5), 2, h, h_root)


def _h2p_matching(p: int) -> tuple[tuple[int, int], ...]:
    if p in (3, 4):
        return ()
    if p % 2 == 1:  # p >= 5 odd
        return (
            ((p - 3) // 2, (3 * p + 1) // 2),
            ((p - 1) // 2, (3 * p + 3) // 2),
            ((p + 1) // 2, (3 * p - 3) // 2),
            ((p + 3) // 2, (3 * p - 1) // 2),
        )
    # p >= 6 even
    return (
        (p // 2 - 2, 3 * p // 2 + 1),
        (p // 2 - 1, 3 * p // 2 + 2),
        (p // 2 + 1, 3 * p // 2 - 2),
        (p // 2 + 2, 3 * p // 2 - 1),
    )


def h2p_core(p: int) -> WeightedGraph:
    """Even cycle C_2p plus the parity-split matching used by the tailed
    pair-transfer family."""
    if p < 3:
        raise BadParam("p must be at least 3")
    g = cycle_graph(2 * p)
    extra = tuple((a, b, 1.0) for a, b in _h2p_matching(p))
    return WeightedGraph(g.n, g.edges + extra)


def flyswatter_core() -> WeightedGraph:
    """8-cycle with a center joined to alternating cycle vertices (the
    3x3 grid graph in disguise)."""
    edges = [(i, i + 1, 1.0) for i in range(7)] + [(0, 7, 1.0)]
    edges += [(8, v, 1.0) for v in (0, 2, 4, 6)]
    return WeightedGraph(9, tuple(edges))


def named_gadget(name: str, h: WeightedGraph | None = None, h_root: int = 0,
                 n: int | None = None, p: int | None = None,
                 tail_len: int | None = None) -> Gadget:
    """Catalog of fixture graphs with their designated (src, dst, tau).

    Raises BadParam when h_root is not an integer, or n, p or tail_len is
    given but is not an integer."""
    for value, what in ((h_root, "h_root"), (n, "n"), (p, "p"), (tail_len, "tail length")):
        if value is not None:
            require_int(value, what)
    if name == "p2_twins":
        g = _p2_twins_base(h, h_root)
        return Gadget(name, g, pair_state(0, 4), pair_state(1, 3), pi / 2,
                      "twin P_2 arms around a center; pair-to-pair transfer")
    if name == "p2_twins_perturbed":
        g = _p2_twins_base(h, h_root)
        g = WeightedGraph(g.n, g.edges + ((0, 3, 1.0), (1, 4, 1.0)), g.tails)
        return Gadget(name, g, pair_state(0, 4), pair_state(0, 4), pi / 2,
                      "cross edges freeze the pair states (zero reduced operator)")
    if name == "p2_twins_signed_plusplus":
        g = negate_edges(_p2_twins_base(h, h_root), [(2, 3)])
        return Gadget(name, g, plus_state(0, 4), plus_state(1, 3), pi / 2,
                      "switched variant: plus-to-plus transfer")
    if name == "p2_twins_signed_pluspair":
        g = negate_edges(_p2_twins_base(h, h_root), [(3, 4)])
        return Gadget(name, g, plus_state(0, 4), pair_state(1, 3), pi / 2,
                      "switched variant: plus-to-pair transfer")
    if name == "c4_quotient":
        edges = ((0, 2), (1, 2), (1, 5), (0, 5), (2, 3), (3, 5), (4, 5), (2, 4))
        g = WeightedGraph(6, tuple((a, b, 1.0) for a, b in edges))
        return Gadget(name, g, plus_state(0, 1), plus_state(3, 4),
                      pi / (2 * sqrt(2.0)),
                      "6-vertex graph whose symmetrized quotient is sqrt2*C_4")
    if name == "p3_twins_spur":
        edges = ((0, 1), (1, 2), (1, 6), (6, 4), (3, 4), (4, 5))
        g = WeightedGraph(7, tuple((a, b, 1.0) for a, b in edges))
        g = _attach_optional(g, 6, h, h_root)
        g = _with_tail(g, 6, tail_len)
        return Gadget(name, g, pair_state(0, 3), pair_state(2, 5),
                      pi / sqrt(2.0),
                      "two P_3 arms hung by their centers on a shared hub")
    if name == "p3_twins_path":
        g = _attach_optional(path_graph(7), 3, h, h_root)
        g = _with_tail(g, 3, tail_len)
        return Gadget(name, g, pair_state(0, 6), pair_state(2, 4),
                      pi / sqrt(2.0),
                      "P_7 with its middle vertex as the hub")
    if name == "flyswatter":
        g = _with_tail(flyswatter_core(), 3, tail_len)
        return Gadget(name, g, pair_state(0, 6), pair_state(2, 4),
                      pi / sqrt(2.0),
                      "wheel-like grid with a path handle at a rim vertex")
    if name == "h2p":
        if p is None:
            raise BadParam("h2p needs p")
        g = _with_tail(h2p_core(p), p, tail_len)
        src = pair_state(int(np.ceil(p / 2 - 1)), int(np.floor(3 * p / 2 + 1)))
        dst = pair_state(int(np.floor(p / 2 + 1)), int(np.ceil(3 * p / 2 - 1)))
        tau = pi / 2 if p % 2 == 1 else pi / sqrt(2.0)
        return Gadget(name, g, src, dst, tau,
                      "matched even cycle with a handle at the antipode")
    if name == "pn_prime":
        if n is None or n < 3 or n % 2 == 0:
            raise BadParam("pn_prime needs odd n >= 3")
        g = one_sum(path_graph(n), path_graph(2), 1, 1)
        # vertex n is the twin of the path end 0 (both hang off vertex 1)
        return Gadget(name, g, pair_state(0, n), None, None,
                      "odd path with a duplicated end vertex; sedentary pair")
    if name == "kn_twin_gadget":
        if n is None or n < 3:
            raise BadParam("kn_twin_gadget needs n >= 3")
        edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
        edges += [(n + 1 + i, n + 1 + j, 1.0)
                  for i in range(n) for j in range(i + 1, n)]
        # connector vertex n joins the last vertex of each clique
        edges += [(n - 1, n, 1.0), (n, 2 * n, 1.0)]
        g = WeightedGraph(2 * n + 1, tuple(edges))
        return Gadget(name, g, pair_state(0, n + 1), None, None,
                      "two cliques joined through a cut vertex; sedentary pair")
    raise UnknownGadget(f"unknown gadget {name!r}")
