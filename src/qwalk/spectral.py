"""Adjacency materialization, transition matrices U(t)=exp(itA), fidelities.

The primary route is a dense symmetric eigendecomposition.  Tail-extended
graphs are evaluated on certified truncations, sized by the Chebyshev
expansion of the walk (Tal-Ezer & Kosloff 1984; Weisse et al., "The kernel
polynomial method", Rev. Mod. Phys. 2006):

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
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""

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
        # eigenvalues split only by eigensolver roundoff form one eigenspace
        lam = decomp.eigenvalues
        first = np.ones(lam.size, dtype=bool)
        first[1:] = lam[1:] - lam[:-1] > EIGEN_MERGE
        starts = first.nonzero()[0]
        w = np.add.reduceat(w, starts)
        keep = np.abs(w) > ZERO_WEIGHT
        return cls(lam[starts[keep]], w[keep])

    def __call__(self, ts) -> np.ndarray:
        """v* U(t) u at each time in ts."""
        ts = np.asarray(ts, dtype=float).ravel()
        out = np.empty(ts.shape, dtype=complex)
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
        baby = np.exp(np.multiply.outer(lam, np.arange(baby_n) * step))
        out = np.empty((giant_n, baby_n), dtype=complex)
        for g in range(0, giant_n, per):
            ks = first + baby_n * np.arange(g, min(g + per, giant_n))
            coef = np.exp(np.multiply.outer(ks * step, lam)) * self.weights
            out[g:g + per] = coef @ baby
        return out.ravel()[:count]


@dataclass(frozen=True)
class TruncationCertificate:
    """Error bound of an evaluation on the depth-L truncation (L = 0 for a
    graph without tails), valid for every time s with |s| <= |t|.

    From `prepare`, `bound` covers the error of v* U(s) u for states u and v
    on the core; from `evolve`, the 2-norm error of the evolved state.  The
    truncation part is rigorous; `bound` is never below an estimate of the
    eigensolver roundoff.
    """

    L: int
    t: float
    bound: float


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


def required_truncation(m: float, t: float, tol: float, legs: int,
                        cap: int = MAX_TRUNCATION) -> int:
    """Smallest depth L with certified error below tol, for a walk from the
    core with `legs` legs (STATE or AMPLITUDE): its expansion is exact up to
    order legs*(L+1) - 1.  Found by doubling, then bisection."""
    def certified(L: int) -> bool:
        return truncation_bound(m, t, legs * (L + 1) - 1) < tol

    if not certified(cap):
        raise NonConvergent(
            f"truncation beyond {cap} needed for t={t} (M={m}, tol={tol})"
        )
    hi = 1
    while not certified(hi):
        hi = min(2 * hi, cap)
    lo = hi // 2  # uncertified, or 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _finite_bound(profile: DegreeProfile, dim: int, t: float) -> float:
    # spectral roundoff estimate for a tail-free evaluation
    return 1e-13 * dim * max(1.0, profile.m * abs(t))


def prepare(g: WeightedGraph, t: float, tol: float = DEFAULT_TAIL_TOL
            ) -> tuple[SpectralDecomposition, TruncationCertificate]:
    """Decomposition of a truncation certified for amplitudes v* U(s) u between
    core states, for every |s| <= |t|."""
    return _prepare(g, t, tol, AMPLITUDE)


def _prepare(g: WeightedGraph, t: float, tol: float, legs: int
             ) -> tuple[SpectralDecomposition, TruncationCertificate]:
    if not math.isfinite(t):
        raise BadParam(f"time must be finite, got {t}")
    profile = degree_profile(g)
    if g.tails:
        if not tol > 0:
            raise BadParam(f"tol must be positive, got {tol}")
        L = required_truncation(profile.m, t, tol, legs,
                                cap=MAX_TRUNCATION // len(g.tails))
        # the series bound can undershoot plain eigensolver roundoff; report
        # whichever dominates so the certificate stays honest
        bound = max(truncation_bound(profile.m, t, legs * (L + 1) - 1),
                    _finite_bound(profile, g.n + L * len(g.tails), t))
    else:
        L = 0
        bound = _finite_bound(profile, g.n, t)
    a = adjacency(g, L)
    return SpectralDecomposition.of(a), TruncationCertificate(L, t, bound)


def core_vector(g: WeightedGraph, state: PureState, dim: int) -> np.ndarray:
    """The state as a length-dim vector.  Its vertices must lie on the core:
    a tail vertex has no fixed index, and the certificates assume core
    support."""
    for vertex, _ in state.support:
        if not 0 <= vertex < g.n:
            raise ParseError(f"state vertex {vertex} is not a core vertex (n={g.n})")
    return state.vector(dim)


def evolve(g: WeightedGraph, state: PureState, t: float, tol: float = DEFAULT_TAIL_TOL
           ) -> tuple[np.ndarray, TruncationCertificate]:
    """U(t) applied to a core-supported state, on core + truncated tails; the
    certificate bounds the 2-norm error of the whole returned vector."""
    decomp, cert = _prepare(g, t, tol, STATE)
    u = core_vector(g, state, decomp.eigenvalues.size)
    return decomp.apply(t, u), cert


def transfer_amplitude(g: WeightedGraph, u: PureState, v: PureState, t: float,
                       tol: float = DEFAULT_TAIL_TOL
                       ) -> tuple[complex, TruncationCertificate]:
    """v* U(t) u, with the truncation certificate used for the evaluation."""
    decomp, cert = prepare(g, t, tol)
    dim = decomp.eigenvalues.size
    amp = decomp.amplitude_curve(core_vector(g, u, dim), core_vector(g, v, dim),
                                 np.array([t]))[0]
    return complex(amp), cert


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
