"""Transfer detectors: perfect state transfer at a time, PST time search,
periodicity, high-fidelity witnesses, and sedentariness estimation.

All searches run on the fidelity curve t -> |v* U(t) u|, a finite sum
sum_k w_k exp(i t lambda_k) over the eigenvalue support of (u, v).  Each query
projects u and v once into a FidelityCurve and evaluates that one object on its
scan grid and in golden-section refinement.  The curve's frequencies are
bounded by twice the maximum absolute degree M; the grids sample above that
Nyquist rate so no peak is missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, pi

import numpy as np

from .errors import BadParam, NoTransfer, Unreached
from .graphs import PureState, WeightedGraph, degree_profile, state_to_document
from .spectral import (
    DEFAULT_TAIL_TOL,
    FidelityCurve,
    TruncationCertificate,
    core_vector,
    prepare,
    transfer_amplitude,
)

PST_TOL = 1e-9
TIME_RESOLUTION = 1e-12
DEDUP_TIME = 1e-6
GOLDEN = (np.sqrt(5.0) - 1) / 2
SEDENTARY_GRID = 20_000
PGST_WINDOW = 200_000  # grid points scanned per pass of pgst_witness


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
            }
        return doc


@dataclass(frozen=True)
class SedentaryEstimate:
    state: PureState
    grid_min: float
    lower_bound_claim: float | None
    horizon: float
    period: float | None

    def to_document(self) -> dict:
        return {
            "state": state_to_document(self.state),
            "grid_min": self.grid_min,
            "lower_bound_claim": self.lower_bound_claim,
            "horizon": float(f"{self.horizon:.12g}"),
            "period": None if self.period is None else float(f"{self.period:.12g}"),
        }


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization of the scalar function f over [lo, hi]."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > TIME_RESOLUTION:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
    t = (a + b) / 2
    # near a flat maximum the function values are indistinguishable at double
    # precision, so polish with one parabolic step over a wider stencil
    h = 1e-5 * max(1.0, abs(t))
    if lo + h < t < hi - h:
        fm, f0, fp = f(t - h), f(t), f(t + h)
        denom = fp - 2.0 * f0 + fm
        if denom < 0:
            shift = 0.5 * h * (fm - fp) / denom
            if abs(shift) < h:
                cand = t + shift
                fc2 = f(cand)
                if fc2 >= f0:
                    return cand, fc2
    return t, f(t)


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
    decomp, cert = prepare(g, t_max, tol)
    dim = decomp.eigenvalues.size
    curve = FidelityCurve.of(decomp, core_vector(g, u, dim), core_vector(g, v, dim))
    n = max(4096, int(64 * t_max * max(degree_profile(g).m, 1.0)))
    ts = np.linspace(0.0, t_max, n + 1)[1:]
    f = np.abs(curve(ts))

    step = ts[1] - ts[0]
    padded = np.concatenate(([0.0], f, [0.0]))
    peaks = np.flatnonzero((f >= 0.99) & (f >= padded[:-2]) & (f >= padded[2:]))
    reports: list[TransferReport] = []
    for i in peaks:
        t_star, f_star = _golden_max(lambda t: abs(curve(t)[0]),
                                     max(ts[i] - step, TIME_RESOLUTION),
                                     min(ts[i] + step, t_max))
        if not f_star >= 1 - pst_tol:
            continue
        if reports and abs(reports[-1].tau - t_star) < DEDUP_TIME:
            continue
        amp = complex(curve(t_star)[0])
        gamma = amp / abs(amp)
        kind = "periodic" if u.is_parallel_to(v) else "PST"
        reports.append(TransferReport(u, v, t_star, gamma, f_star, kind, cert))
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
    decomp, cert = prepare(g, t_cap, tol)
    dim = decomp.eigenvalues.size
    curve = FidelityCurve.of(decomp, core_vector(g, u, dim), core_vector(g, v, dim))
    m = max(degree_profile(g).m, 1.0)
    step = 1.0 / (64 * m)
    total = int(np.ceil(t_cap / step))
    best_f = 0.0
    skipping = u.is_parallel_to(v)

    start = 1
    while start <= total:
        stop = min(start + PGST_WINDOW, total + 1)
        ts = np.arange(start, stop) * step
        ts[-1] = min(ts[-1], t_cap)
        f = np.abs(curve(ts))
        if skipping:
            # wait until fidelity falls below the refine threshold too, so the
            # tail of the initial plateau cannot be reported as a return
            below = np.nonzero(f < target_fidelity - 0.005)[0]
            if below.size == 0:
                start = stop
                continue
            ts = ts[below[0]:]
            f = f[below[0]:]
            skipping = False
        best_f = max(best_f, float(f.max()))
        hits = np.nonzero(f >= target_fidelity - 0.005)[0]
        # refine one candidate per contiguous run of near-target grid points
        while hits.size:
            run_end = hits[np.nonzero(np.diff(hits) > 1)[0]]
            stop_i = int(run_end[0]) if run_end.size else int(hits[-1])
            run = hits[hits <= stop_i]
            i = int(run[np.argmax(f[run])])
            hits = hits[hits > stop_i]
            t_star, f_star = _golden_max(lambda t: abs(curve(t)[0]),
                                         max(ts[i] - step, TIME_RESOLUTION),
                                         min(ts[i] + step, t_cap))
            best_f = max(best_f, f_star)
            if f_star >= target_fidelity:
                amp = complex(curve(t_star)[0])
                gamma = amp / abs(amp)
                return TransferReport(u, v, t_star, gamma, f_star,
                                      "PGST-witness", cert)
        start = stop
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
                       lower_bound_claim: float | None = None,
                       tol: float = DEFAULT_TAIL_TOL) -> SedentaryEstimate:
    """Grid minimum of the autocorrelation |u* U(t) u| over (0, horizon].

    When the support eigenvalue differences are commensurable the curve is
    periodic; the horizon is then snapped to one exact period, making the
    refined grid minimum an estimate of the true infimum over all t > 0.
    """
    if not horizon > 0:
        raise BadParam(f"horizon must be positive, got {horizon}")
    decomp, _ = prepare(g, horizon, tol)
    uvec = core_vector(g, u, decomp.eigenvalues.size)
    curve = FidelityCurve.of(decomp, uvec, uvec)
    # for u = v the weights are |<phi, u>|^2: 1e-16 is an overlap of 1e-8
    period = _exact_period(curve.eigenvalues[np.abs(curve.weights) > 1e-16])
    if period is not None and (period < horizon or not g.tails):
        # snap to exactly one period (for tailed graphs only ever shrink, so
        # the truncation certificate stays valid)
        horizon = period

    ts = np.linspace(0.0, horizon, SEDENTARY_GRID + 1)[1:]
    f = np.abs(curve(ts))
    step = ts[1] - ts[0]
    grid_min = float(f.min())
    for i in np.argsort(f)[:32]:
        _, neg_f = _golden_max(lambda t: -abs(curve(t)[0]),
                               max(ts[i] - step, TIME_RESOLUTION),
                               min(ts[i] + step, horizon))
        grid_min = min(grid_min, -neg_f)
    return SedentaryEstimate(u, grid_min, lower_bound_claim, horizon, period)
