"""Transfer detectors: perfect state transfer at a time, PST time search,
periodicity, high-fidelity witnesses, and sedentariness estimation.

All searches run on the fidelity curve t -> |v* U(t) u|, a finite sum
sum_k w_k exp(i t lambda_k) over the eigenvalue support of (u, v).  Each query
projects u and v once into a FidelityCurve.  Its scan grids are uniform, so
they are evaluated with the baby-step/giant-step factorisation
exp(i(gB + j)h lambda) = exp(igBh lambda) exp(ijh lambda): one matrix product
per block (`FidelityCurve.grid`), not one complex exponential per time and
eigenvalue.  The candidate peaks are then refined together by golden section
in lockstep, one curve evaluation per step for all of them.  The curve's
frequencies are bounded by twice the maximum absolute degree M; the grids
sample above that Nyquist rate so no peak is missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, pi

import numpy as np

from .errors import BadParam, NoTransfer, Unreached
from .graphs import PureState, WeightedGraph, degree_profile, state_to_document
from .spectral import (
    DEFAULT_TAIL_TOL,
    TruncationCertificate,
    transfer_amplitude,
    transfer_curve,
)

PST_TOL = 1e-9
TIME_RESOLUTION = 1e-12
DEDUP_TIME = 1e-6
GOLDEN = (np.sqrt(5.0) - 1) / 2
SEDENTARY_GRID = 20_000
PGST_WINDOW = 200_000  # grid points evaluated per window of a scan


@dataclass(frozen=True)
class TransferReport:
    src: PureState
    dst: PureState
    tau: float
    gamma: complex
    fidelity: float
    kind: str  # "PST" | "periodic" | "PGST-witness"
    certificate: TruncationCertificate | None = None

    def to_document(self) -> dict:
        doc = {
            "src": state_to_document(self.src),
            "dst": state_to_document(self.dst),
            "tau": float(f"{self.tau:.12g}"),
            "gamma": [self.gamma.real, self.gamma.imag],
            "fidelity": self.fidelity,
            "kind": self.kind,
        }
        if self.certificate is not None:
            doc["truncation"] = {
                "L": self.certificate.L,
                "t": self.certificate.t,
                "bound": self.certificate.bound,
                "dim": self.certificate.dim,
                "residual": self.certificate.residual,
            }
        return doc


@dataclass(frozen=True)
class SedentaryEstimate:
    state: PureState
    grid_min: float
    horizon: float
    period: float | None

    def to_document(self) -> dict:
        return {
            "state": state_to_document(self.state),
            "grid_min": self.grid_min,
            "horizon": float(f"{self.horizon:.12g}"),
            "period": None if self.period is None else float(f"{self.period:.12g}"),
        }


def _golden_max(f, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximization over the brackets [lo[i], hi[i]] in
    lockstep: f maps an array of times to an array of values, and each step
    calls it once, on the new point of every bracket still wider than
    TIME_RESOLUTION (or than one ulp of its end, past t = 8192).  The brackets
    do not interact, so each converges as it would alone.  Returns the
    maximizers and the maxima."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    a, b = lo.copy(), hi.copy()
    n = a.size
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fcd = f(np.concatenate((c, d)))
    fc, fd = fcd[:n], fcd[n:]

    def live_of(idx):
        return idx[b[idx] - a[idx] > np.maximum(TIME_RESOLUTION, np.spacing(b[idx]))]

    live = live_of(np.arange(n))
    while live.size:
        up = fc[live] < fd[live]
        lu, ld = live[up], live[~up]
        # up: the bracket drops [a, c]; down: it drops [d, b]
        a[lu], c[lu], fc[lu] = c[lu], d[lu], fd[lu]
        b[ld], d[ld], fd[ld] = d[ld], c[ld], fc[ld]
        d[lu] = a[lu] + GOLDEN * (b[lu] - a[lu])
        c[ld] = b[ld] - GOLDEN * (b[ld] - a[ld])
        fx = f(np.concatenate((d[lu], c[ld])))
        fd[lu], fc[ld] = fx[:lu.size], fx[lu.size:]
        live = live_of(live)
    t = (a + b) / 2
    # near a flat maximum the function values are indistinguishable at double
    # precision, so polish with one parabolic step over a wider stencil, kept
    # narrow enough to fit inside its bracket at long times
    h = np.minimum(1e-5 * np.maximum(1.0, np.abs(t)), (hi - lo) / 8)
    inner = np.flatnonzero((lo + h < t) & (t < hi - h))
    k = inner.size
    fs = f(np.concatenate((t, t[inner] - h[inner], t[inner] + h[inner])))
    f0, fm, fp = fs[:n], fs[n:n + k], fs[n + k:]
    denom = fp - 2.0 * f0[inner] + fm
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = 0.5 * h[inner] * (fm - fp) / denom
    # a concave stencil whose vertex lies inside it is trusted over the golden
    # midpoint; comparing the two values would let last-bit rounding decide
    ok = (denom < 0) & (np.abs(shift) < h[inner])
    if ok.any():
        polish = inner[ok]
        t[polish] += shift[ok]
        f0[polish] = f(t[polish])
    return t, f0


def _scan(curve, step: float, total: int):
    """|curve| on the grid step * (1, ..., total), in windows of at most
    PGST_WINDOW points: yields (times, values) per window."""
    for start in range(1, total + 1, PGST_WINDOW):
        count = min(PGST_WINDOW, total + 1 - start)
        yield (np.arange(start, start + count) * step,
               np.abs(curve.grid(step, count, first=start)))


def check_pst(g: WeightedGraph, u: PureState, v: PureState, tau: float,
              pst_tol: float = PST_TOL, tol: float = DEFAULT_TAIL_TOL
              ) -> TransferReport:
    """Report PST (or periodicity when u and v coincide) at time tau.

    Raises NoTransfer, carrying the achieved fidelity, when the transfer
    fails the tolerance.
    """
    amp, cert = transfer_amplitude(g, u, v, tau, tol)
    f = abs(amp)
    if not f >= 1 - pst_tol:
        raise NoTransfer(f)
    gamma = amp / f if f > 0 else 1.0 + 0j
    kind = "periodic" if u.is_parallel_to(v) else "PST"
    return TransferReport(u, v, tau, gamma, f, kind, cert)


def search_pst(g: WeightedGraph, u: PureState, v: PureState, t_max: float,
               pst_tol: float = PST_TOL, tol: float = DEFAULT_TAIL_TOL
               ) -> list[TransferReport]:
    """All PST times in (0, t_max], found by grid scan plus local refinement.

    Returns refined local fidelity maxima reaching 1 - pst_tol, deduplicated
    within 1e-6 in t.
    """
    if not t_max > 0:
        raise BadParam(f"t_max must be positive, got {t_max}")
    curve, cert = transfer_curve(g, u, v, t_max, tol)
    n = max(4096, int(64 * t_max * max(degree_profile(g).m, 1.0)))
    step = t_max / n
    # a peak has no larger neighbour (0 beyond both ends); a window's last
    # point is decided with the next window, so ext carries it and its left
    prev = np.zeros(1)
    first = 1  # grid index of ext[1]
    peaks = []
    for _, f in chain(_scan(curve, step, n), [(None, np.zeros(1))]):
        ext = np.concatenate((prev, f))
        mid = ext[1:-1]
        is_peak = (mid >= 0.99) & (mid >= ext[:-2]) & (mid >= ext[2:])
        peaks.append((np.flatnonzero(is_peak) + first) * step)
        first += mid.size
        prev = ext[-2:]
    peaks = np.concatenate(peaks)
    taus, fids = _golden_max(lambda t: np.abs(curve(t)),
                             np.maximum(peaks - step, TIME_RESOLUTION),
                             np.minimum(peaks + step, t_max))
    kind = "periodic" if u.is_parallel_to(v) else "PST"
    reports: list[TransferReport] = []
    for t_star, f_star, amp in zip(taus, fids, curve(taus)):
        if not f_star >= 1 - pst_tol:
            continue
        if reports and abs(reports[-1].tau - t_star) < DEDUP_TIME:
            continue
        reports.append(TransferReport(u, v, float(t_star), complex(amp) / abs(amp),
                                      float(f_star), kind, cert))
    return reports


def pgst_witness(g: WeightedGraph, u: PureState, v: PureState,
                 target_fidelity: float, t_cap: float,
                 tol: float = DEFAULT_TAIL_TOL) -> TransferReport:
    """First time t <= t_cap with fidelity >= target_fidelity, or Unreached.

    This only witnesses high fidelity at a finite time; it does not decide the
    limiting behaviour.  For u parallel to v the initial plateau around t=0 is
    skipped and the first return is reported.
    """
    if not target_fidelity < 1:
        raise BadParam(f"target fidelity must be below 1, got {target_fidelity}")
    if not t_cap > 0:
        raise BadParam(f"t_cap must be positive, got {t_cap}")
    curve, cert = transfer_curve(g, u, v, t_cap, tol)
    m = max(degree_profile(g).m, 1.0)
    step = 1.0 / (64 * m)
    total = int(np.ceil(t_cap / step))
    best_f = 0.0
    skipping = u.is_parallel_to(v)

    for ts, f in _scan(curve, step, total):
        if ts[-1] > t_cap:
            ts[-1] = t_cap
            f[-1] = abs(curve(t_cap)[0])
        if skipping:
            # wait until fidelity falls below the refine threshold too, so the
            # tail of the initial plateau cannot be reported as a return
            below = np.nonzero(f < target_fidelity - 0.005)[0]
            if below.size == 0:
                continue
            ts = ts[below[0]:]
            f = f[below[0]:]
            skipping = False
        best_f = max(best_f, float(f.max()))
        hits = np.flatnonzero(f >= target_fidelity - 0.005)
        if hits.size:
            # one candidate per contiguous run of near-target grid points,
            # all refined at once; the earliest that reaches the target wins
            runs = np.split(hits, np.flatnonzero(np.diff(hits) > 1) + 1)
            peaks = ts[[run[np.argmax(f[run])] for run in runs]]
            taus, fids = _golden_max(lambda t: np.abs(curve(t)),
                                     np.maximum(peaks - step, TIME_RESOLUTION),
                                     np.minimum(peaks + step, t_cap))
            best_f = max(best_f, float(fids.max()))
            reached = np.flatnonzero(fids >= target_fidelity)
            if reached.size:
                t_star, f_star = taus[reached[0]], fids[reached[0]]
                amp = complex(curve(t_star)[0])
                return TransferReport(u, v, float(t_star), amp / abs(amp),
                                      float(f_star), "PGST-witness", cert)
    raise Unreached(best_f)


def _exact_period(support: np.ndarray) -> float | None:
    """Period of the autocorrelation when the differences of the (sorted)
    support eigenvalues are commensurable; None otherwise."""
    vals = support[np.diff(support, prepend=-np.inf) > 1e-8]
    if vals.size < 2:
        return None
    diffs = vals[1:] - vals[0]
    f0 = diffs[0]
    fracs = []
    for d in diffs:
        # small denominators only: a rational fit with a large denominator is
        # indistinguishable from an irrational ratio at double precision
        fr = Fraction(d / f0).limit_denominator(1000)
        if abs(d / f0 - fr) > 1e-9:
            return None
        fracs.append(fr)
    q = lcm(*(fr.denominator for fr in fracs))
    if q > 10 ** 6:
        return None
    gg = gcd(*(fr.numerator * (q // fr.denominator) for fr in fracs))
    period = 2 * pi * q / (f0 * gg)
    return period if period < 1e6 else None


def sedentary_estimate(g: WeightedGraph, u: PureState, horizon: float,
                       tol: float = DEFAULT_TAIL_TOL) -> SedentaryEstimate:
    """Grid minimum of the autocorrelation |u* U(t) u| over (0, horizon].

    When the support eigenvalue differences are commensurable the curve is
    periodic; the horizon is then snapped to one exact period, making the
    refined grid minimum an estimate of the true infimum over all t > 0.
    """
    if not horizon > 0:
        raise BadParam(f"horizon must be positive, got {horizon}")
    curve, _ = transfer_curve(g, u, u, horizon, tol)
    # for u = v the weights are |<phi, u>|^2: 1e-16 is an overlap of 1e-8
    period = _exact_period(curve.eigenvalues[np.abs(curve.weights) > 1e-16])
    if period is not None and (period < horizon or not g.tails):
        # snap to exactly one period (for tailed graphs only ever shrink, so
        # the truncation certificate stays valid)
        horizon = period

    step = horizon / SEDENTARY_GRID
    f = np.abs(curve.grid(step, SEDENTARY_GRID))
    lows = (np.argpartition(f, 32)[:32] + 1) * step
    _, neg_f = _golden_max(lambda t: -np.abs(curve(t)),
                           np.maximum(lows - step, TIME_RESOLUTION),
                           np.minimum(lows + step, horizon))
    grid_min = min(float(f.min()), float(-neg_f.max()))
    return SedentaryEstimate(u, grid_min, horizon, period)
