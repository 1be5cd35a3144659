"""Transfer detectors: perfect state transfer at a time, PST time search,
periodicity, high-fidelity witnesses, and sedentariness estimation.

All searches run on the fidelity curve t -> |v* U(t) u|, a finite sum
sum_k w_k exp(i t lambda_k) over the eigenvalue support of (u, v).  Each query
projects u and v once into a FidelityCurve.  Its scan grids are uniform, so
they are evaluated with the baby-step/giant-step factorisation
exp(i(gB + j)h lambda) = exp(igBh lambda) exp(ijh lambda): one matrix product
per block (`FidelityCurve.grid`), not one complex exponential per time and
eigenvalue.  All candidates are then refined at once by Newton's method on
the curve's exact derivatives, with a bisection safeguard.  The frequencies
are bounded by twice the maximum absolute degree M; all three scans
(`search_pst`, `pgst_witness` and `sedentary_estimate`) sample 64 M points per
unit time, far above that Nyquist rate, and take their candidates from one
walker, `_scan_extrema`: the local grid extrema of `_scan` windows of at most
PGST_WINDOW points, each window's edge point decided with the next window.

A curve with two support points, such as that of a pair or plus state on
twin P_2 arms (A B = B T spans a 2-dimensional invariant space), is one
cosine: |f|^2 = |w0|^2 + |w1|^2 + 2 |w0 w1| cos(Delta t + phi), with
Delta = lambda_1 - lambda_0 and phi = arg w1 - arg w0.  The walker and the
refinement answer it in closed form, with the same grid indices, windows and
brackets: the grid points nearest the extrema and the extrema themselves, with
no grid evaluation and no Newton step.
"""

from __future__ import annotations

from cmath import phase
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import ceil, cos, floor, gcd, lcm, pi

import numpy as np

from .errors import BadParam, NoTransfer, Unreached
from .graphs import PureState, WeightedGraph, degree_profile, state_to_document
from .spectral import (
    AMPLITUDE,
    DEFAULT_TAIL_TOL,
    FidelityCurve,
    TruncationCertificate,
    _reduce,
    transfer_amplitude,
    transfer_curve,
)

PST_TOL = 1e-9
TIME_RESOLUTION = 1e-12
DEDUP_TIME = 1e-6
PGST_WINDOW = 200_000  # grid points evaluated per window of a scan
GRID_FLOOR = 4096  # fewest points of a search or sedentary grid; pgst_witness's first window
MAX_GRID = 1 << 32  # grid points a scan may walk: about 2 minutes at 4e7 points/s


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


def _cosine(curve: FidelityCurve) -> tuple[float, float] | None:
    """(Delta, phi), Delta > 0, when |curve|^2 is the single cosine
    |w0|^2 + |w1|^2 + 2 |w0 w1| cos(Delta t + phi): two distinct eigenvalues
    and one weight each.  None otherwise."""
    lam, w = curve.eigenvalues, curve.weights
    if lam.size != 2 or w.ndim != 1 or lam[0] == lam[1]:
        return None
    delta, phi = float(lam[1] - lam[0]), phase(complex(w[1]) * complex(w[0]).conjugate())
    return (delta, phi) if delta > 0 else (-delta, -phi)


def _refine(curve: FidelityCurve, lo, hi, sign: float = 1.0
            ) -> tuple[np.ndarray, np.ndarray]:
    """Maximize sign * |f| for the curve f over the brackets [lo[i], hi[i]] in
    lockstep, one curve evaluation per step for all live brackets.

    A single cosine (`_cosine`) is answered in closed form: each bracket's
    first extremum of the kind, where Delta t + phi is in 2 pi Z (sign < 0:
    pi + 2 pi Z), when it lies strictly inside the bracket, else the
    midpoint; one curve evaluation for all brackets and no step.

    Any other curve: safeguarded Newton (rtsafe) on g' = 0 for g = |f|^2,
    whose derivatives g' = 2 Re(conj(f) f') and
    g'' = 2 (|f'|^2 + Re(conj(f) f'')) are exact.  Only brackets where
    sign * g' falls from > 0 to < 0 iterate.  The Newton step is taken where
    sign * g'' < 0, it lands inside the bracket and it is under half the step
    before last; else the bracket is bisected.  A bracket stops when its
    Newton step or width is within TIME_RESOLUTION (or one ulp of t).

    Returns the best of each bracket's last point and ends: the times and the
    curve's values there."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    cosine = _cosine(curve)
    if cosine is not None:
        delta, phi = cosine
        top = 0.0 if sign > 0 else pi  # the phase of the extrema sought
        m = np.floor((delta * lo + phi - top) / (2 * pi)) + 1
        t = (2 * pi * m + top - phi) / delta
        t = np.where((lo < t) & (t < hi), t, (lo + hi) / 2)
        ts = np.concatenate((t, lo, hi)).reshape(3, -1)
        fs = curve(ts).reshape(ts.shape)
    else:
        ts, fs = _newton(curve, lo, hi, sign)
    best, cols = np.argmax(sign * np.abs(fs), axis=0), np.arange(lo.size)
    return ts[best, cols], fs[best, cols]


def _newton(curve: FidelityCurve, lo: np.ndarray, hi: np.ndarray, sign: float
            ) -> tuple[np.ndarray, np.ndarray]:
    """_refine's Newton iteration: the (3, brackets) times and values of each
    bracket's last point and its two ends."""
    lam = curve.eigenvalues
    # columns f, f', f'': weights w, i lam w and -lam^2 w
    jet = FidelityCurve(lam, curve.weights[:, None] * (1j * lam[:, None]) ** np.arange(3))

    def evaluate(ts):  # f, sign * g' / 2 and sign * g'' / 2
        f = jet(ts).T
        return (f[0], sign * (f[0].conj() * f[1]).real,
                sign * (np.abs(f[1]) ** 2 + (f[0].conj() * f[2]).real))

    ts = np.stack(((lo + hi) / 2, lo, hi))
    fs, d1, d2 = (v.reshape(ts.shape) for v in evaluate(ts))
    live = np.flatnonzero((d1[1] > 0) & (d1[2] < 0))
    t, f, d1, d2 = ts[0], fs[0], d1[0], d2[0]  # the interior points, in place
    a, b, last, before = lo.copy(), hi.copy(), hi - lo, hi - lo  # and the last 2 steps
    while True:
        x, s1, s2 = t[live], d1[live], d2[live]
        up = s1 > 0
        a[live[up]], b[live[~up]] = x[up], x[~up]
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.where(s2 < 0, -s1 / s2, np.inf)
        # converged before contained: a converged step may round onto an end
        tol = np.maximum(TIME_RESOLUTION, np.spacing(x))
        go = (np.abs(dx) > tol) & (b[live] - a[live] > tol)
        live, x, dx = live[go], x[go], dx[go]
        if not live.size:
            break
        new = np.where((a[live] < x + dx) & (x + dx < b[live])
                       & (np.abs(dx) < before[live] / 2), x + dx, (a[live] + b[live]) / 2)
        before[live], last[live] = last[live], np.abs(new - x)
        t[live] = new
        f[live], d1[live], d2[live] = evaluate(new)
    return ts, fs


def _grid_count(points: float) -> int:
    """int(points); BadParam when the horizon makes the scan grid longer than
    MAX_GRID points (or not finite), so it could not be walked."""
    if not points <= MAX_GRID:
        raise BadParam(f"the horizon needs {points:.3g} grid points, "
                       f"more than the {MAX_GRID} a scan may walk")
    return int(points)


def _windows(total: int, doubling: bool = False):
    """(first, count) of each window of the grid 1, ..., total: PGST_WINDOW
    points, or (doubling) GRID_FLOOR points doubling up to PGST_WINDOW."""
    start, size = 1, GRID_FLOOR if doubling else PGST_WINDOW
    while start <= total:
        count = min(size, PGST_WINDOW, total + 1 - start)
        yield start, count
        start, size = start + count, 2 * size


def _scan(curve, step: float, total: int, doubling: bool = False):
    """|curve| on the grid step * (1, ..., total), in _windows: yields the
    values of each window."""
    for start, count in _windows(total, doubling):
        yield np.abs(curve.grid(step, count, first=start))


def _scan_extrema(curve, step: float, total: int, lowest: bool = False,
                  doubling: bool = False):
    """Walk _scan's windows (doubling as there) and yield, per window, the
    grid indices and values of the points where |curve| is above its left
    neighbour and no lower than its right one (lowest: below, no higher),
    with nothing beyond both ends of the grid.  So a run of equal values
    yields its first point alone: the flat curve of a state in the kernel
    gives one candidate, not one per grid point.  A window's last point is
    decided with the next window, so it is carried across the edge, and the
    grid's last point comes last, alone.

    A single cosine that the grid resolves (`_cosine`, step * Delta < pi)
    has one such point per period, the one nearest the extremum, and an end
    point where |curve| runs toward that end: those indices are found in
    closed form and the curve is evaluated there alone, one call per window.
    """
    cosine = _cosine(curve)
    if cosine is not None and cosine[0] * step < pi:
        yield from _cosine_extrema(curve, *cosine, step, total, lowest, doubling)
        return
    pad = np.full(1, np.inf if lowest else -np.inf)
    beat, keep = (np.less, np.less_equal) if lowest else (np.greater, np.greater_equal)
    prev, first = pad, 1  # first: the grid index of ext[1]
    for f in chain(_scan(curve, step, total, doubling), [pad]):
        ext = np.concatenate((prev, f))
        mid = ext[1:-1]
        k = np.flatnonzero(beat(mid, ext[:-2]) & keep(mid, ext[2:]))
        yield k + first, mid[k]
        first += mid.size
        prev = ext[-2:]


def _cosine_extrema(curve, delta: float, phi: float, step: float, total: int,
                    lowest: bool, doubling: bool):
    """_scan_extrema for the cosine cos(Delta t + phi), window by window."""
    theta, top = delta * step, pi if lowest else 0.0
    # the extrema sought lie at the grid positions m * period + offset
    period, offset = 2 * pi / theta, (top - phi) / theta

    def end(k, inner):  # the end point k, beside inner, is an extremum
        ends = cos(theta * k + phi), cos(theta * inner + phi)
        return ends[0] <= ends[1] if lowest else ends[0] >= ends[1]

    def at(k):
        return k, np.abs(curve(k * step)) if k.size else np.empty(0)

    lo = 1
    for first, count in _windows(total, doubling):
        hi = first + count - 2  # this window decides lo, ..., hi, below total
        # the inner points nearest the extrema, rounded half up
        m = np.arange(floor((lo - 0.5 - offset) / period),
                      ceil((hi + 0.5 - offset) / period) + 1)
        k = (m * period + (offset + 0.5)).astype(np.intp)
        k = k[(max(lo, 2) <= k) & (k <= hi)]
        if lo == 1 and total > 1 and end(1, 2):
            k = np.concatenate(([1], k))
        yield at(k)
        lo = hi + 1
    yield at(np.arange(total, total + (total == 1 or end(total, total - 1))))


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
    within 1e-6 in t, but none at t = TIME_RESOLUTION: the t=0 plateau.  The
    grid has max(GRID_FLOOR, 64 M t_max) points (M the maximum absolute
    degree); BadParam when that exceeds MAX_GRID = 2^32.
    """
    if not t_max > 0:
        raise BadParam(f"t_max must be positive, got {t_max}")
    n = max(GRID_FLOOR, _grid_count(64 * t_max * max(degree_profile(g).m, 1.0)))
    curve, cert = transfer_curve(g, u, v, t_max, tol)
    step = t_max / n
    maxima = _scan_extrema(curve, step, n)
    peaks = np.concatenate([k[f >= 0.99] for k, f in maxima]) * step
    taus, amps = _refine(curve, np.maximum(peaks - step, TIME_RESOLUTION),
                         np.minimum(peaks + step, t_max))
    kind = "periodic" if u.is_parallel_to(v) else "PST"
    reports: list[TransferReport] = []
    for t_star, f_star, amp in zip(taus, np.abs(amps), amps):
        if not f_star >= 1 - pst_tol or t_star <= TIME_RESOLUTION or (
                reports and abs(reports[-1].tau - t_star) < DEDUP_TIME):
            continue
        reports.append(TransferReport(u, v, float(t_star), complex(amp) / abs(amp),
                                      float(f_star), kind, cert))
    return reports


def pgst_witness(g: WeightedGraph, u: PureState, v: PureState,
                 target_fidelity: float, t_cap: float,
                 tol: float = DEFAULT_TAIL_TOL) -> TransferReport:
    """A time t <= t_cap with fidelity >= target_fidelity, or Unreached.

    Every local grid maximum at or above near = target_fidelity - 0.005 is
    refined, and the witness is the earliest refined maximum that reaches the
    target, not the first time the fidelity crosses it; on 98 of 3000 random
    curves that is earlier (still at or above the target) than the highest
    maximum of its stretch of near-target points.  This only witnesses high
    fidelity at a finite time; it does not decide the limiting behaviour.  For
    u parallel to v the initial plateau, before the first local grid minimum,
    is skipped.  The grid has n = ceil(64 M t_cap) points of step
    t_cap / n (M the maximum absolute degree); BadParam when n exceeds
    MAX_GRID = 2^32.  _scan_extrema walks it in windows that double from
    GRID_FLOOR points, and the walk stops at the first window that answers.
    """
    if not target_fidelity < 1:
        raise BadParam(f"target fidelity must be below 1, got {target_fidelity}")
    if not t_cap > 0:
        raise BadParam(f"t_cap must be positive, got {t_cap}")
    n = _grid_count(np.ceil(64 * t_cap * max(degree_profile(g).m, 1.0)))
    curve, cert = transfer_curve(g, u, v, t_cap, tol)
    step = t_cap / n
    near = target_fidelity - 0.005  # local grid maxima at or above this are refined
    plateau, best_f = 0, 0.0  # the grid index where the initial plateau ends
    if u.is_parallel_to(v):  # the grid's lowest point is a local minimum
        k, f = next((k, f) for k, f in _scan_extrema(curve, step, n, lowest=True,
                                                     doubling=True) if k.size)
        plateau, best_f = int(k[0]), float(f[0])
    for k, f in _scan_extrema(curve, step, n, doubling=True):
        # a maximum at the plateau's end is the first point of a curve that
        # is flat from the start, such as that of a state in the kernel
        f = np.where(k >= plateau, f, -np.inf)
        best_f = max(best_f, float(f.max(initial=0.0)))
        peaks = k[f >= near] * step
        if not peaks.size:
            continue
        taus, amps = _refine(curve, np.maximum(peaks - step, TIME_RESOLUTION),
                             np.minimum(peaks + step, t_cap))
        fids = np.abs(amps)
        best_f = max(best_f, float(fids.max()))
        reached = np.flatnonzero(fids >= target_fidelity)
        if reached.size:
            amp = complex(amps[reached[0]])
            return TransferReport(u, v, float(taus[reached[0]]), amp / abs(amp),
                                  float(fids[reached[0]]), "PGST-witness", cert)
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
    refined grid minimum an estimate of the true infimum over all t > 0.  On
    a tailed graph the snap only ever shrinks the horizon, and on the Krylov
    route the period is that of the curve on the state's Krylov space, found
    before the certificate closes: the result is certified over one period
    only, and snapping treats that space as exactly invariant.  Its leak
    into the tails, below tol over one period, may pass tol by the horizon.

    The (snapped) horizon gets max(GRID_FLOOR, 64 M horizon) grid points (M
    the maximum absolute degree), walked in windows of PGST_WINDOW points, so
    the cost grows with M * horizon and memory does not; BadParam when the
    grid exceeds MAX_GRID = 2^32.  The 32 lowest local grid minima, one per
    basin, are refined.  For g = |f|^2, |g''| <= spread^2 S^2 (spread the
    width of the eigenvalue support, S = sum |w|), so with step h the
    result's square exceeds the infimum of g over [h, horizon] by at most
    spread^2 S^2 h^2 / 8.
    """
    if not horizon > 0:
        raise BadParam(f"horizon must be positive, got {horizon}")

    def period_of(curve):
        # for u = v the weights are |<phi, u>|^2: 1e-16 is an overlap of 1e-8
        return _exact_period(curve.eigenvalues[np.abs(curve.weights) > 1e-16])

    # the Krylov route finds the period before it certifies, and certifies
    # at the snapped horizon
    decomp, _, (x,) = _reduce(g, (u,), horizon, tol, AMPLITUDE,
                              lambda curve: min(horizon, period_of(curve) or horizon))
    curve = FidelityCurve.of(decomp, x, x)
    period = period_of(curve)
    if period is not None and (period < horizon or not g.tails):
        # snap to exactly one period (for tailed graphs only ever shrink, so
        # the certificate stays valid)
        horizon = period

    n = max(GRID_FLOOR, _grid_count(64 * horizon * max(degree_profile(g).m, 1.0)))
    step = horizon / n
    # the 32 lowest local minima, one per basin; the lowest grid point is one
    low_k, low_f = np.empty(0, dtype=np.intp), np.empty(0)
    for k, f in _scan_extrema(curve, step, n, lowest=True):
        low_k, low_f = np.concatenate((low_k, k)), np.concatenate((low_f, f))
        if low_f.size > 32:
            keep = np.argpartition(low_f, 31)[:32]
            low_k, low_f = low_k[keep], low_f[keep]
    lows = np.sort(low_k) * step
    _, amps = _refine(curve, np.maximum(lows - step, TIME_RESOLUTION),
                      np.minimum(lows + step, horizon), sign=-1.0)
    grid_min = min(float(low_f.min()), float(np.abs(amps).min()))
    return SedentaryEstimate(u, grid_min, horizon, period)
