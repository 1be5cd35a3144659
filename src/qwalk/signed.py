"""Diagonal +/-1 switching of weighted graphs.

Switching by D (entries +/-1) maps A to delta*D*A*D and carries state transfer
along: fidelity from u to v at t equals fidelity from Du to Dv at delta*t in
the switched graph.  This module also provides balanced / anti-balanced
detection, the pair<->plus transfer generators, and edge-disjoint signed
composition A(H) - A(K) for commuting H, K.

The pair<->plus generators rest on that identity: with delta = 1,
U_{DAD}(t) = D*U(t)*D, so one spectral solve certifies the input transfer
and each switched variant is certified by checking, exactly and without
floats, that its graph and states are the D-images of the input's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import (
    CommuteError,
    EdgeOverlap,
    NoTransfer,
    ParseError,
    QwalkError,
    UnsupportedOverlap,
)
from .graphs import PureState, WeightedGraph, pair_state, plus_state
from .spectral import fidelity

COMMUTE_TOL = 1e-10
CERTIFY_TOL = 1e-9
_AMPLITUDE = 1 / sqrt(2)  # each amplitude of a pair or plus state, up to sign


@dataclass(frozen=True)
class SignVector:
    """Diagonal switching data: d over core vertices, plus a global sign delta."""

    d: tuple[int, ...]
    delta: int = 1

    def __post_init__(self):
        if any(x not in (-1, 1) for x in self.d):
            raise ParseError("sign vector entries must be +1 or -1")
        if self.delta not in (-1, 1):
            raise ParseError("delta must be +1 or -1")

    @classmethod
    def flipping(cls, n: int, flipped, delta: int = 1) -> "SignVector":
        d = [1] * n
        for v in flipped:
            _check_vertex(v, n)
            d[v] = -1
        return cls(tuple(d), delta)

    def apply_to_state(self, s: PureState) -> PureState:
        for v, _ in s.support:
            _check_vertex(v, len(self.d))
        return PureState(tuple((v, self.d[v] * c) for v, c in s.support))

    def to_document(self) -> dict:
        return {"d": list(self.d), "delta": self.delta}


def _check_vertex(v: int, n: int) -> None:
    # a negative index would silently wrap to a sign from the end of d
    if not 0 <= v < n:
        raise ParseError(f"vertex {v} outside the sign vector's 0..{n - 1}")


def _sign(x, what: str) -> int:
    # JSON true/false arrive as bool, an int subclass; 1.0 is no sign either
    if isinstance(x, bool) or not isinstance(x, int) or x not in (-1, 1):
        raise ParseError(f"{what} {x!r} is not the integer +1 or -1")
    return x


def build_sign_vector(doc) -> SignVector:
    """A SignVector from a {"d": [...], "delta": ...} document; ParseError
    unless d is a list and every entry and delta is the integer +1 or -1."""
    if not isinstance(doc, dict) or not isinstance(doc.get("d"), list):
        raise ParseError("sign vector document needs a 'd' list")
    return SignVector(tuple(_sign(x, "sign vector entry") for x in doc["d"]),
                      _sign(doc.get("delta", 1), "delta"))


def switch(g: WeightedGraph, sv: SignVector) -> WeightedGraph:
    """Graph with adjacency delta * D * A(g) * D.

    Tail vertices inherit the sign of their attach vertex, so tail weights are
    unchanged; a global delta = -1 is only supported on tail-free graphs (an
    all-negative infinite tail is not representable).
    """
    if len(sv.d) != g.n:
        raise ParseError(f"sign vector length {len(sv.d)} != core size {g.n}")
    if sv.delta == -1 and g.tails:
        raise QwalkError("delta = -1 is not supported on graphs with tails")
    # a sign flip per weight keeps g's edges canonical, nonzero and finite
    d, delta = sv.d, sv.delta
    edges = tuple((a, b, delta * d[a] * d[b] * w) for a, b, w in g.edges)
    return WeightedGraph._derived(g.n, edges, g.tails)


def _sign_match(gt: WeightedGraph, g: WeightedGraph, target: int) -> SignVector | None:
    """D with D*A(g)*D = target*A(gt), by BFS sign propagation; None if impossible."""
    if gt.n != g.n:
        return None
    wm_g = g.weight_map
    wm_t = gt.weight_map
    if set(wm_g) != set(wm_t):
        return None
    for key, w in wm_g.items():
        if abs(abs(wm_t[key]) - abs(w)) > 1e-12:
            return None
    if len(gt.tails) != len(g.tails):
        return None
    for ta, tb in zip(sorted(gt.tails, key=lambda t: t.attach),
                      sorted(g.tails, key=lambda t: t.attach)):
        if ta.attach != tb.attach or len(ta.prefix) != len(tb.prefix):
            return None
        if any(abs(abs(x) - abs(y)) > 1e-12 for x, y in zip(ta.prefix, tb.prefix)):
            return None

    d = [0] * g.n
    for root in range(g.n):
        if d[root]:
            continue
        d[root] = 1
        queue = [root]
        while queue:
            u = queue.pop()
            for v in g.neighbors(u):
                want = d[u] * (1 if target * wm_t[(min(u, v), max(u, v))]
                               * wm_g[(min(u, v), max(u, v))] > 0 else -1)
                if d[v] == 0:
                    d[v] = want
                    queue.append(v)
                elif d[v] != want:
                    return None
    return SignVector(tuple(d), target)


def is_balanced(gt: WeightedGraph, g: WeightedGraph) -> SignVector | None:
    """SignVector with D*A(g)*D = A(gt), or None."""
    return _sign_match(gt, g, 1)


def is_antibalanced(gt: WeightedGraph, g: WeightedGraph) -> SignVector | None:
    """SignVector with D*A(g)*D = -A(gt), or None."""
    return _sign_match(gt, g, -1)


def _two_point(s: PureState) -> tuple[int, int, int]:
    """Decompose a pair/plus state as (a, b, sign) with s = (e_a + sign*e_b)/sqrt2."""
    if len(s.support) != 2:
        raise UnsupportedOverlap("state is not supported on exactly two vertices")
    (va, ca), (vb, cb) = s.support
    for c in (ca, cb):
        if abs(c.imag) > 1e-12 or abs(abs(c.real) - _AMPLITUDE) > 1e-9:
            raise UnsupportedOverlap("state is not a pair or plus state")
    if ca.real < 0:
        # normalize global phase so the first amplitude is positive
        ca, cb = -ca, -cb
    return va, vb, 1 if cb.real > 0 else -1


def _pair_or_plus(a: int, b: int, sign: int) -> PureState:
    """(e_a + sign*e_b)/sqrt2: the canonical state _two_point decomposes."""
    return plus_state(a, b) if sign > 0 else pair_state(a, b)


def _is_switch(gt: WeightedGraph, g: WeightedGraph, d: tuple[int, ...]) -> bool:
    """True iff A(gt) = D*A(g)*D: the same edges in the same canonical order,
    each weight d_a*d_b*w (a sign flip, exact in floating point), and the same
    tails, as a tail takes its attach vertex's sign and keeps its weights."""
    return (gt.n == g.n and gt.tails == g.tails and len(gt.edges) == len(g.edges)
            and all(e == (a, b, d[a] * d[b] * w)
                    for e, (a, b, w) in zip(gt.edges, g.edges)))


def _is_switched_state(st: PureState, s: PureState, d: tuple[int, ...]) -> bool:
    """True iff st = +D*s or -D*s amplitude for amplitude, for a canonical
    pair/plus state s: the same two vertices, each sign flipped by d_v."""
    ds = tuple((v, d[v] * c) for v, c in s.support)
    return st.support in (ds, tuple((v, -c) for v, c in ds))


def pairplus_transforms(g: WeightedGraph, src: PureState, dst: PureState,
                        tau: float) -> list[tuple[WeightedGraph, PureState, PureState]]:
    """Signed variants of g converting pair <-> plus transfer at the same time.

    src and dst must be pair or plus states with transfer at tau in g.  Each
    output (g~, src~, dst~) differs from the input in at least one state type.
    The input transfer is checked once, by a fidelity at tau on the exact
    pair/plus states src and dst stand for; each output is certified by the
    switching identity U_{DAD}(t) = D*U(t)*D, checked exactly on its edges,
    tails and amplitudes, so a call makes one spectral solve.
    """
    (sa, sb, s_sign), (da, db, d_sign) = _two_point(src), _two_point(dst)
    # each state's pair and plus forms on its two vertices, by sign
    src_as = {sign: _pair_or_plus(sa, sb, sign) for sign in (1, -1)}
    dst_as = {sign: _pair_or_plus(da, db, sign) for sign in (1, -1)}
    src_c, dst_c = src_as[s_sign], dst_as[d_sign]
    base = fidelity(g, src_c, dst_c, tau)
    if base < 1 - CERTIFY_TOL:
        raise NoTransfer(base, f"input has no transfer at t={tau:.12g}")

    # generators: negate every edge at the second source vertex,
    # at the second destination vertex, or at both (their joining edge, if any,
    # switches back to positive automatically).  D maps (e_a + sign*e_b)/sqrt2
    # to (e_a + d_a*d_b*sign*e_b)/sqrt2, up to a global phase
    flip_sets = [{sb}, {db}, {sb, db}]
    seen: set[tuple] = set()
    out: list[tuple[WeightedGraph, PureState, PureState]] = []
    for flips in flip_sets:
        sv = SignVector.flipping(g.n, flips)
        d = sv.d
        gt = switch(g, sv)
        src_t = src_as[d[sa] * d[sb] * s_sign]
        dst_t = dst_as[d[da] * d[db] * d_sign]
        key = (gt.edges, src_t.support, dst_t.support)
        if key in seen:
            continue
        seen.add(key)
        if src_t == src_c and dst_t == dst_c and gt.edges == g.edges:
            continue
        if not (_is_switch(gt, g, d) and _is_switched_state(src_t, src_c, d)
                and _is_switched_state(dst_t, dst_c, d)):
            raise QwalkError(f"variant flipping {sorted(flips)} is not the "
                             "switch of the input transfer")
        out.append((gt, src_t, dst_t))
    return out


def compose_signed(h: WeightedGraph, k: WeightedGraph) -> WeightedGraph:
    """Signed union with adjacency A(h) - A(k).

    h and k must share the vertex set, be edge-disjoint, tail-free, and have
    commuting adjacency matrices.
    """
    if h.n != k.n:
        raise ParseError("operands must share a vertex set")
    if h.tails or k.tails:
        raise QwalkError("signed composition is defined on tail-free graphs")
    overlap = set(h.weight_map) & set(k.weight_map)
    if overlap:
        raise EdgeOverlap(f"edge {min(overlap)} appears in both operands")
    ah, ak = h.core_adjacency(), k.core_adjacency()
    resid = float(np.max(np.abs(ah @ ak - ak @ ah)))
    if resid > COMMUTE_TOL:
        raise CommuteError(f"adjacency matrices do not commute (residual {resid:.3g})")
    edges = h.edges + tuple((a, b, -w) for a, b, w in k.edges)
    return WeightedGraph(h.n, edges)
