"""Adjacency materialization, transition matrices U(t)=exp(itA), fidelities.

The primary route is a dense symmetric eigendecomposition of the core.  A
query on a tail-extended graph takes one of two certified routes, and its
certificate, not the caller, picks the route.

Decoupled route.  S is the orthogonal complement in the core of the Krylov
space K of the attach vectors under the core adjacency.  K is invariant, so S
is too, and S vanishes on every attach vertex; as A x at a tail's first
vertex is w0 x[attach], S is invariant under the adjacency of the infinite
graph as well, and no state in S ever reaches a tail.  Twin and
equitable-partition structure confines the paper's pair and plus states to S
(Godsil, "State transfer on graphs", 2012).  S is the sum over the
eigenspaces of the core of their parts orthogonal to the projections of the
attach vectors, so it is solved by the core's eigendecomposition alone, with
no tail vertex materialized.  With Q an orthonormal eigenbasis of S and
Lambda_S its eigenvalues, the residual on the infinite graph is

    beta = ||A Q - Q Lambda_S|| <= hypot(||A_core Q - Q Lambda_S||_F,
                                          ||w0 Q[attach]||_F),

and by Duhamel's formula ||exp(itA) Q - Q exp(it Lambda_S)|| <= |t| beta at
every t.  So with u = Q c + r, c = Q^T u, both Q exp(it Lambda_S) c and the
amplitude (Q^T v)* exp(it Lambda_S) c err by at most |t| beta ||c|| + ||r||,
and the route answers when that is below the tolerance.  States that touch an
attach vertex fall back before any factorization.

Truncation route.  The graph is evaluated on a certified truncation, sized by
the Chebyshev expansion of the walk (Tal-Ezer & Kosloff 1984; Weisse et al.,
"The kernel polynomial method", Rev. Mod. Phys. 2006):

    exp(itA) = J_0(Mt) + 2 sum_{k>=1} i^k J_k(Mt) T_k(A/M),

with M the maximum absolute degree, so that ||A/M|| <= 1 on the depth-L
truncation and on the infinite graph alike.  From a core-supported state a
walk needs L+1 steps to reach tail depth L+1, where the two graphs first
differ, and L+1 more to come back to the core.  So the two expansions share
every term up to order L for the evolved state U(t)u, and up to order 2L+1 for
an amplitude v* U(t) u between core states.  Each later term differs by at
most 4|J_k(Mt)| <= 4 (M|t|/2)^k / k!  (DLMF 10.14.4), and the certified depth
is the smallest L whose summed tail is below the tolerance: `prepare`
certifies amplitudes, which is all that the transfer detectors read, and
`evolve` certifies the 2-norm of the full state.

`transfer_curve` is the one entry point of the transfer detectors: it returns
the fidelity curve of (u, v) with the certificate of the route that built it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParam, NonConvergent, ParseError, TailsRequireTruncation
from .graphs import DegreeProfile, PureState, WeightedGraph, degree_profile

DEFAULT_TAIL_TOL = 1e-9
# tail vertices materialized at most: a dense eigh at dim 4105 takes ~17 s on
# one BLAS thread and a 135 MB matrix
MAX_TRUNCATION = 2 ** 12
STATE, AMPLITUDE = 1, 2   # legs of a core walk that a truncation must certify
EIGEN_MERGE = 1e-12     # adjacent eigenvalues closer than this share an eigenspace
ZERO_WEIGHT = 1e-17     # curve weights at or below this are roundoff
CURVE_BLOCK = 1 << 18   # phase-matrix entries evaluated per block


def adjacency(g: WeightedGraph, L: int = 0) -> np.ndarray:
    """Symmetric adjacency matrix with each tail materialized as L vertices.

    Tail vertices are appended after the core, one block of L per tail in
    declaration order.
    """
    if L < 0:
        raise ValueError("truncation length must be nonnegative")
    if g.tails and L == 0:
        raise TailsRequireTruncation("graph has tails; pass a truncation length L > 0")
    if not g.tails:
        return g.core_adjacency()
    dim = g.n + L * len(g.tails)
    a = np.zeros((dim, dim))
    a[:g.n, :g.n] = g.core_adjacency()
    base = g.n
    for t in g.tails:
        prev = t.attach
        for k in range(L):
            cur = base + k
            w = t.weight(k)
            a[prev, cur] = w
            a[cur, prev] = w
            prev = cur
        base += L
    return a


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors, as columns, of a
    symmetric matrix or of its restriction to an invariant subspace."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def of(cls, a: np.ndarray) -> "SpectralDecomposition":
        vals, vecs = np.linalg.eigh(a)
        return cls(vals, vecs)

    def unitary(self, t: float) -> np.ndarray:
        """exp(itA) from the decomposition, as two real products:
        V cos(t lam) V^T + i V sin(t lam) V^T."""
        vecs, lam = self.eigenvectors, t * self.eigenvalues
        out = np.empty(vecs.shape, dtype=complex)
        out.real = (vecs * np.cos(lam)) @ vecs.T
        out.imag = (vecs * np.sin(lam)) @ vecs.T
        return out

    def apply(self, t: float, u: np.ndarray) -> np.ndarray:
        """exp(itA) u for a vector u."""
        u = np.ascontiguousarray(u, dtype=complex)
        coeff = _real_product(self.eigenvectors.T, u)[:, 0]
        return _real_product(self.eigenvectors,
                             np.exp(1j * t * self.eigenvalues) * coeff)[:, 0]

    def amplitude_curve(self, u: np.ndarray, v: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """v* U(t) u for an array of times, vectorized over t."""
        return FidelityCurve.of(self, u, v)(ts)


def _real_product(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x as a 2-D array, for a real matrix and a C-contiguous complex
    vector or matrix x: one real product over the real and imaginary parts of
    x, so mat is never copied to complex."""
    return (mat @ x.view(float).reshape(len(x), -1)).view(complex)


def _eigenspace_starts(lam: np.ndarray) -> np.ndarray:
    """Mask of the ascending eigenvalues that open an eigenspace: eigenvalues
    split only by eigensolver roundoff form one eigenspace."""
    first = np.ones(lam.size, dtype=bool)
    first[1:] = lam[1:] - lam[:-1] > EIGEN_MERGE
    return first


@dataclass(frozen=True)
class FidelityCurve:
    """t -> v* U(t) u as the finite sum  sum_k w_k exp(i t lambda_k)  over the
    eigenvalue support of (u, v): w_k is the product of the projections of v
    and u onto the k-th eigenspace, and eigenvalues with w_k = 0 are dropped.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, decomp: SpectralDecomposition, u: np.ndarray, v: np.ndarray
           ) -> "FidelityCurve":
        uv = np.empty((len(u), 2), dtype=complex)
        uv[:, 0], uv[:, 1] = u, v
        p = _real_product(decomp.eigenvectors.T, uv)
        w = p[:, 1].conj() * p[:, 0]
        lam = decomp.eigenvalues
        starts = _eigenspace_starts(lam).nonzero()[0]
        w = np.add.reduceat(w, starts)
        keep = np.abs(w) > ZERO_WEIGHT
        return cls(lam[starts[keep]], w[keep])

    def __call__(self, ts) -> np.ndarray:
        """v* U(t) u at each time in ts.  Weights of shape (support, k) give
        k sums per time, one column each (a curve and its derivatives)."""
        ts = np.asarray(ts, dtype=float).ravel()
        out = np.empty(ts.shape + self.weights.shape[1:], dtype=complex)
        # bound the (times x support) phase matrix held at once
        rows = max(1, CURVE_BLOCK // max(1, self.eigenvalues.size))
        for i in range(0, ts.size, rows):
            phases = np.exp(np.multiply.outer(ts[i:i + rows], 1j * self.eigenvalues))
            out[i:i + rows] = phases @ self.weights
        return out

    def grid(self, step: float, count: int, first: int = 1) -> np.ndarray:
        """v* U(t) u at t = k*step for k = first, ..., first + count - 1.

        Baby-step/giant-step: with h = step, B baby steps and
        k = first + g*B + j,
        exp(i k h lam) = exp(i (first + g*B) h lam) exp(i j h lam), so each
        block of giant steps is one product of its (giant x support) block of
        weighted phases with the (support x B) baby table.  B is about
        sqrt(count); the table and every block hold at most CURVE_BLOCK
        entries.
        """
        lam = 1j * self.eigenvalues
        per = max(1, CURVE_BLOCK // max(1, lam.size))
        baby_n = max(1, min(math.isqrt(count), per))
        giant_n = -(-count // baby_n)
        # exponentials, weights and products in place: each table is
        # allocated once
        baby = np.multiply.outer(lam, np.arange(baby_n) * step)
        np.exp(baby, out=baby)
        out = np.empty((giant_n, baby_n), dtype=complex)
        for g in range(0, giant_n, per):
            ks = first + baby_n * np.arange(g, min(g + per, giant_n))
            coef = np.multiply.outer(ks * step, lam)
            np.exp(coef, out=coef)
            coef *= self.weights
            np.matmul(coef, baby, out=out[g:g + per])
        return out.ravel()[:count]


@dataclass(frozen=True)
class TruncationCertificate:
    """Error bound of an evaluation, valid for every time s with |s| <= |t|.

    L is the tail depth materialized: 0 for a graph without tails, and 0 on
    the decoupled route, which materializes no tail vertex.  dim is the
    dimension the answer was evaluated in (core + L per tail, or the
    dimension of the decoupled subspace S of the core), and residual is the
    residual beta of the basis of S on the infinite graph (0.0 on the
    truncation route).

    For an amplitude query, `bound` covers the error of v* U(s) u for states
    u and v on the core; from `evolve`, the 2-norm error of the evolved state.
    The truncation and decoupled parts are rigorous; `bound` is never below
    an estimate of the eigensolver roundoff.
    """

    L: int
    t: float
    bound: float
    dim: int
    residual: float


def series_tail(x: float, k0: int) -> float:
    """An upper bound, tight to double precision, on the sum of x^k / k! for
    k >= k0 (x >= 0); inf when that sum overflows or x is not finite."""
    if not 0 <= x < math.inf:
        return math.inf
    if x == 0:
        return 0.0 if k0 > 0 else 1.0
    total = 0.0
    logx = math.log(x)
    k = k0
    while True:
        exponent = k * logx - math.lgamma(k + 1)
        if exponent > 700.0:  # exp() would overflow; the tail is huge anyway
            return math.inf
        term = math.exp(exponent)
        total += term
        # past the peak the terms fall at least geometrically, by r per step;
        # the slack covers the roundoff of the exponents and of the sum
        if k > x and term <= total * 1e-18:
            r = x / (k + 1)
            slack = 4e-16 * (k * abs(logx) + math.lgamma(k + 1) + k + 1)
            return (total + term * r / (1 - r)) * (1 + slack)
        k += 1


def truncation_bound(m: float, t: float, order: int) -> float:
    """Error bound of a truncation whose Chebyshev expansion agrees with the
    infinite graph's up to `order`: 4 sum_{k > order} (m|t|/2)^k / k!."""
    return 4.0 * series_tail(m * abs(t) / 2.0, order + 1)


def _bisect(pred, lo: int, hi: int) -> tuple[int, int]:
    """Narrow (lo, hi], pred(hi) true, to hi = lo + 1 with pred(hi) still true;
    lo moves only onto depths where pred is false."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def required_truncation(m: float, t: float, tol: float, legs: int,
                        cap: int = MAX_TRUNCATION) -> int:
    """Smallest depth L >= 1 with certified error below tol, for a walk from
    the core with `legs` legs (STATE or AMPLITUDE): its expansion is exact up
    to order legs*(L+1) - 1."""
    x = m * abs(t) / 2.0
    logx = math.log(x) if x else -math.inf

    def certified(L: int) -> bool:
        return truncation_bound(m, t, legs * (L + 1) - 1) < tol

    def first_term_small(L: int) -> bool:
        # 4 x^k / k! < tol, with the term computed as series_tail sums it, so
        # certified(L) implies it
        k = legs * (L + 1)
        exponent = k * logx - math.lgamma(k + 1)
        return exponent <= 700.0 and 4.0 * math.exp(exponent) < tol

    if not certified(cap):
        raise NonConvergent(
            f"truncation beyond {cap} needed for t={t} (M={m}, tol={tol})"
        )
    # The terms x^k / k! peak at k ~ x, and a depth below the peak sums every
    # term up to it.  Past the peak a tail is mostly its first term, which
    # costs one lgamma: bisect on that from the peak for a close lower bound
    # (every depth where it fails is uncertified), then gallop and bisect on
    # the certificate itself.
    lo = min(int(x) // legs, cap)
    lo, hi = _bisect(first_term_small, 0 if first_term_small(lo) else lo, cap)
    step = 1
    while not certified(hi):
        lo, hi, step = hi, min(hi + step, cap), 2 * step
    return _bisect(certified, lo, hi)[1]


def _finite_bound(profile: DegreeProfile, dim: int, t: float) -> float:
    # spectral roundoff estimate for an evaluation on a dim x dim matrix
    return 1e-13 * dim * max(1.0, profile.m * abs(t))


def _validate(g: WeightedGraph, t: float, tol: float) -> None:
    if not math.isfinite(t):
        raise BadParam(f"time must be finite, got {t}")
    if g.tails and not tol > 0:
        raise BadParam(f"tol must be positive, got {tol}")


def prepare(g: WeightedGraph, t: float, tol: float = DEFAULT_TAIL_TOL
            ) -> tuple[SpectralDecomposition, TruncationCertificate]:
    """Decomposition of a truncation certified for amplitudes v* U(s) u between
    core states, for every |s| <= |t|."""
    return _prepare(g, t, tol, AMPLITUDE)


def _prepare(g: WeightedGraph, t: float, tol: float, legs: int
             ) -> tuple[SpectralDecomposition, TruncationCertificate]:
    _validate(g, t, tol)
    profile = degree_profile(g)
    L = 0
    if g.tails:
        L = required_truncation(profile.m, t, tol, legs,
                                cap=MAX_TRUNCATION // len(g.tails))
    dim = g.n + L * len(g.tails)
    # the series bound can undershoot plain eigensolver roundoff; report
    # whichever dominates so the certificate stays honest
    bound = _finite_bound(profile, dim, t)
    if g.tails:
        bound = max(truncation_bound(profile.m, t, legs * (L + 1) - 1), bound)
    a = adjacency(g, L)
    return SpectralDecomposition.of(a), TruncationCertificate(L, t, bound, dim, 0.0)


def _decoupled(g: WeightedGraph, x: np.ndarray, t: float, tol: float
               ) -> tuple[SpectralDecomposition, TruncationCertificate] | None:
    """The core adjacency restricted to S, the subspace of the core that no
    tail sees, as a decomposition in core coordinates, with the certificate
    of the evolution of the core vector x on it; None when x touches an attach
    vertex, S is empty or the certificate cannot close below tol.

    In the eigenvector coordinates of one eigenspace, S is the null space of
    the eigenvectors' rows at the attach vertices; one SVD of the
    block-diagonal matrix of those rows finds it for every eigenspace, and a
    second eigendecomposition diagonalizes the adjacency on the null space,
    whose basis the SVD mixes across eigenspaces.  A singular value counts as
    zero below min(tol, 1) / max(1, |t|): a unit direction that leaks more
    into a unit-weight tail alone takes |t| beta past tol, while eigenvectors
    that lie in S carry eigensolver roundoff of order eps ||A|| / gap at the
    attach vertices, which a smaller threshold would count as coupling.
    Nothing here is trusted: with x = Q c + r, c = Q^T x, both v* U(s) x and
    U(s) x err by at most |s| beta ||c|| + ||r|| for any real Q, and beta and
    r are measured.
    """
    n = g.n
    attach = np.array([tail.attach for tail in g.tails])
    if np.linalg.norm(x[attach]) >= tol:   # that part of x lies outside S
        return None
    a = g.core_adjacency()
    core = SpectralDecomposition.of(a)
    lam, vecs = core.eigenvalues, core.eigenvectors
    space = np.cumsum(_eigenspace_starts(lam)) - 1   # eigenspace of each column
    rows = np.zeros((space[-1] + 1, attach.size, n))
    rows[space, :, np.arange(n)] = vecs[attach].T
    _, sing, right = np.linalg.svd(rows.reshape(-1, n))
    zero = min(tol, 1.0) / max(1.0, abs(t))
    null = right[np.count_nonzero(sing >= zero):].T
    k = null.shape[1]
    if not k:
        return None
    inner = SpectralDecomposition.of(null.T @ (lam[:, None] * null))
    q = vecs @ (null @ inner.eigenvectors)
    w0 = np.array([tail.weight(0) for tail in g.tails])[:, None]
    beta = math.hypot(float(np.linalg.norm(a @ q - q * inner.eigenvalues)),
                      float(np.linalg.norm(w0 * q[attach])))
    c = _real_product(q.T, x)
    err = (abs(t) * beta * float(np.linalg.norm(c))
           + float(np.linalg.norm(x - _real_product(q, c)[:, 0])))
    if not err < tol:
        return None
    bound = max(err, _finite_bound(degree_profile(g), k, t))
    return (SpectralDecomposition(inner.eigenvalues, q),
            TruncationCertificate(0, t, bound, k, beta))


def _reduce(g: WeightedGraph, states: tuple[PureState, ...], t: float, tol: float,
            legs: int
            ) -> tuple[SpectralDecomposition, TruncationCertificate, list[np.ndarray]]:
    """(decomposition, certificate, each state as a vector in the
    decomposition's coordinates): on the decoupled subspace S of the core
    when the certificate of the first state closes it, else on the certified
    truncation."""
    if g.tails:
        _validate(g, t, tol)
        vectors = [core_vector(g, s, g.n) for s in states]
        closed = _decoupled(g, vectors[0], t, tol)
        if closed is not None:
            return (*closed, vectors)
    decomp, cert = _prepare(g, t, tol, legs)
    return decomp, cert, [core_vector(g, s, cert.dim) for s in states]


def core_vector(g: WeightedGraph, state: PureState, dim: int) -> np.ndarray:
    """The state as a length-dim vector.  Its vertices must lie on the core:
    a tail vertex has no fixed index, and the certificates assume core
    support."""
    for vertex, _ in state.support:
        if not 0 <= vertex < g.n:
            raise ParseError(f"state vertex {vertex} is not a core vertex (n={g.n})")
    return state.vector(dim)


def transfer_curve(g: WeightedGraph, u: PureState, v: PureState, t: float,
                   tol: float = DEFAULT_TAIL_TOL
                   ) -> tuple[FidelityCurve, TruncationCertificate]:
    """The curve s -> v* U(s) u between core states, certified for every
    |s| <= |t|: on the decoupled subspace S of the core when u lies in it,
    else on the certified truncation."""
    decomp, cert, (uc, vc) = _reduce(g, (u, v), t, tol, AMPLITUDE)
    return FidelityCurve.of(decomp, uc, vc), cert


def evolve(g: WeightedGraph, state: PureState, t: float, tol: float = DEFAULT_TAIL_TOL
           ) -> tuple[np.ndarray, TruncationCertificate]:
    """U(t) applied to a core-supported state; the certificate bounds the
    2-norm error of the returned vector against the whole evolved state.

    The vector has length n + L * (number of tails): the core, then L entries
    per tail in declaration order.  When the certificate has L = 0 on a
    tailed graph (the decoupled route), it is the core part alone, and the state
    on the tails, which the bound covers, is below the tolerance.
    """
    decomp, cert, (uc,) = _reduce(g, (state,), t, tol, STATE)
    return decomp.apply(t, uc), cert


def transfer_amplitude(g: WeightedGraph, u: PureState, v: PureState, t: float,
                       tol: float = DEFAULT_TAIL_TOL
                       ) -> tuple[complex, TruncationCertificate]:
    """v* U(t) u, with the certificate used for the evaluation."""
    curve, cert = transfer_curve(g, u, v, t, tol)
    return complex(curve(t)[0]), cert


def fidelity(g: WeightedGraph, u: PureState, v: PureState, t: float,
             tol: float = DEFAULT_TAIL_TOL) -> float:
    amp, _ = transfer_amplitude(g, u, v, t, tol)
    return abs(amp)


def exp_oracle(a: np.ndarray, t: float) -> np.ndarray:
    """exp(itA) by scaled-and-squared Taylor summation.

    Independent of the spectral route; used as a cross-check oracle.
    """
    m = np.asarray(a, dtype=complex) * (1j * t)
    norm = np.linalg.norm(m, 1)
    s = max(0, int(math.ceil(math.log2(norm))) if norm > 1 else 0)
    m = m / (2 ** s)
    dim = m.shape[0]
    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 60):
        term = term @ m / k
        result = result + term
        if np.max(np.abs(term)) < 1e-20:
            break
    for _ in range(s):
        result = result @ result
    return result
