"""Adjacency materialization, transition matrices U(t)=exp(itA), fidelities.

The primary route is a dense symmetric eigendecomposition.  Tail-extended
graphs are evaluated on certified truncations: a state supported on the core
needs at least L applications of A to reach tail depth L, so the discrepancy
between the depth-L and infinite evolutions is at most twice the Taylor tail
of exp(M|t|) past order L, with M the maximum absolute degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, TailsRequireTruncation
from .graphs import DegreeProfile, PureState, WeightedGraph, degree_profile

DEFAULT_TAIL_TOL = 1e-9
MAX_TRUNCATION = 2 ** 16
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
    dim = g.n + L * len(g.tails)
    a = np.zeros((dim, dim))
    for u, v, w in g.edges:
        a[u, v] = w
        a[v, u] = w
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
        """exp(itA) from the decomposition."""
        phases = np.exp(1j * t * self.eigenvalues)
        return (self.eigenvectors * phases) @ self.eigenvectors.T.conj()

    def apply(self, t: float, u: np.ndarray) -> np.ndarray:
        coeff = self.eigenvectors.T.conj() @ u
        return self.eigenvectors @ (np.exp(1j * t * self.eigenvalues) * coeff)

    def amplitude_curve(self, u: np.ndarray, v: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """v* U(t) u for an array of times, vectorized over t."""
        return FidelityCurve.of(self, u, v)(ts)


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
        # the eigenvectors are real: project the real and imaginary parts of
        # u and v in one real product instead of a complex copy of the matrix
        uv = np.empty((len(u), 2), dtype=complex)
        uv[:, 0], uv[:, 1] = u, v
        p = (decomp.eigenvectors.T @ uv.view(float)).view(complex)
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


@dataclass(frozen=True)
class TruncationCertificate:
    """Guaranteed 2-norm bound on the evolution error of a depth-L truncation."""

    L: int
    t: float
    bound: float


def series_tail(x: float, k0: int, terms: int = 400) -> float:
    """Sum of x^k / k! for k >= k0 (x >= 0)."""
    if x == 0:
        return 0.0 if k0 > 0 else 1.0
    total = 0.0
    logx = math.log(x)
    for k in range(k0, k0 + terms):
        exponent = k * logx - math.lgamma(k + 1)
        if exponent > 700.0:  # exp() would overflow; the tail is huge anyway
            return math.inf
        term = math.exp(exponent)
        total += term
        if term < 1e-300 or (total > 0 and term < total * 1e-18):
            break
    return total


def truncation_bound(m: float, t: float, L: int) -> float:
    return 2.0 * series_tail(m * abs(t), L)


def required_truncation(m: float, t: float, tol: float, start: int = 8,
                        cap: int = MAX_TRUNCATION) -> int:
    """Smallest L in the doubling schedule with certified error below tol."""
    L = start
    while truncation_bound(m, t, L) >= tol:
        L *= 2
        if L > cap:
            raise NonConvergent(
                f"truncation beyond {cap} needed for t={t} (M={m}, tol={tol})"
            )
    return L


def _finite_bound(profile: DegreeProfile, dim: int, t: float) -> float:
    # spectral roundoff estimate for a tail-free evaluation
    return 1e-13 * dim * max(1.0, profile.m * abs(t))


def prepare(g: WeightedGraph, t: float, tol: float = DEFAULT_TAIL_TOL
            ) -> tuple[SpectralDecomposition, TruncationCertificate]:
    """Decomposition of a truncation certified for evolution up to time |t|."""
    profile = degree_profile(g)
    if g.tails:
        if tol <= 0:
            raise ValueError("tol must be positive")
        L = required_truncation(profile.m, t, tol)
        # the series bound can undershoot plain eigensolver roundoff; report
        # whichever dominates so the certificate stays honest
        bound = max(truncation_bound(profile.m, t, L),
                    _finite_bound(profile, g.n + L, t))
    else:
        L = 0
        bound = _finite_bound(profile, g.n, t)
    a = adjacency(g, L)
    return SpectralDecomposition.of(a), TruncationCertificate(L, t, bound)


def evolve(g: WeightedGraph, state: PureState, t: float, tol: float = DEFAULT_TAIL_TOL
           ) -> tuple[np.ndarray, TruncationCertificate]:
    """U(t) applied to a core-supported state, on core + truncated tails."""
    decomp, cert = prepare(g, t, tol)
    u = state.vector(decomp.eigenvalues.shape[0])
    return decomp.apply(t, u), cert


def transfer_amplitude(g: WeightedGraph, u: PureState, v: PureState, t: float,
                       tol: float = DEFAULT_TAIL_TOL
                       ) -> tuple[complex, TruncationCertificate]:
    """v* U(t) u, with the truncation certificate used for the evaluation."""
    decomp, cert = prepare(g, t, tol)
    dim = decomp.eigenvalues.shape[0]
    amp = decomp.amplitude_curve(u.vector(dim), v.vector(dim), np.array([t]))[0]
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
