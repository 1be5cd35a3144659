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
unit time, far above that Nyquist rate, and walk their grids in `_scan`
windows of at most PGST_WINDOW points.
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


def _refine(curve: FidelityCurve, lo, hi, sign: float = 1.0
            ) -> tuple[np.ndarray, np.ndarray]:
    """Maximize sign * |f| for the curve f over the brackets [lo[i], hi[i]] in
    lockstep, one curve evaluation per step for all live brackets.

    Safeguarded Newton (rtsafe) on g' = 0 for g = |f|^2, whose derivatives
    g' = 2 Re(conj(f) f') and g'' = 2 (|f'|^2 + Re(conj(f) f'')) are exact.
    Only brackets where sign * g' falls from > 0 to < 0 iterate.  The Newton
    step is taken where sign * g'' < 0, it lands inside the bracket and it is
    under half the step before last; else the bracket is bisected.  A bracket
    stops when its Newton step or width is within TIME_RESOLUTION (or one ulp
    of t).  Returns the best of each bracket's last point and ends: the
    times and the curve's values there."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
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
    best, cols = np.argmax(sign * np.abs(fs), axis=0), np.arange(lo.size)
    return ts[best, cols], fs[best, cols]


def _grid_count(points: float) -> int:
    """int(points); BadParam when the horizon makes the scan grid longer than
    MAX_GRID points (or not finite), so it could not be walked."""
    if not points <= MAX_GRID:
        raise BadParam(f"the horizon needs {points:.3g} grid points, "
                       f"more than the {MAX_GRID} a scan may walk")
    return int(points)


def _scan(curve, step: float, total: int, doubling: bool = False):
    """|curve| on the grid step * (1, ..., total), in windows of PGST_WINDOW
    points, or (doubling) of GRID_FLOOR points doubling up to PGST_WINDOW:
    yields (first grid index, values) per window."""
    start, size = 1, GRID_FLOOR if doubling else PGST_WINDOW
    while start <= total:
        count = min(size, PGST_WINDOW, total + 1 - start)
        yield start, np.abs(curve.grid(step, count, first=start))
        start, size = start + count, 2 * size


def _scan_extrema(curve, step: float, total: int, lowest: bool = False):
    """Walk _scan's windows and yield, per window, the grid indices and values
    of the points where |curve| has no larger (lowest: no smaller) neighbour,
    with nothing beyond both ends of the grid.  A window's last point is
    decided with the next window, so it is carried across the edge."""
    pad = np.full(1, np.inf if lowest else -np.inf)
    keep = np.less_equal if lowest else np.greater_equal
    prev, first = pad, 1  # first: the grid index of ext[1]
    for _, f in chain(_scan(curve, step, total), [(None, pad)]):
        ext = np.concatenate((prev, f))
        mid = ext[1:-1]
        k = np.flatnonzero(keep(mid, ext[:-2]) & keep(mid, ext[2:]))
        yield k + first, mid[k]
        first += mid.size
        prev = ext[-2:]


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
    within 1e-6 in t.  The grid has max(GRID_FLOOR, 64 M t_max) points (M the
    maximum absolute degree); BadParam when that exceeds MAX_GRID = 2^32.
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
        if not f_star >= 1 - pst_tol or (
                reports and abs(reports[-1].tau - t_star) < DEDUP_TIME):
            continue
        reports.append(TransferReport(u, v, float(t_star), complex(amp) / abs(amp),
                                      float(f_star), kind, cert))
    return reports


def pgst_witness(g: WeightedGraph, u: PureState, v: PureState,
                 target_fidelity: float, t_cap: float,
                 tol: float = DEFAULT_TAIL_TOL) -> TransferReport:
    """A time t <= t_cap with fidelity >= target_fidelity, or Unreached.

    A run is a stretch of consecutive grid points with fidelity at or above
    target_fidelity - 0.005.  Each run is refined to its peak, and the witness
    is the refined peak of the earliest run whose peak reaches the target:
    not the first time the fidelity crosses the target, which can be earlier
    within that run.  This only witnesses high fidelity at a finite time; it
    does not decide the limiting behaviour.  For u parallel to v the initial
    plateau around t=0 is skipped and the first return is reported.  The grid
    has ceil(64 M t_cap) points (M the maximum absolute degree); BadParam when
    that exceeds MAX_GRID = 2^32.  It is walked in windows that double from
    GRID_FLOOR points, and the walk stops at the first window that answers.
    """
    if not target_fidelity < 1:
        raise BadParam(f"target fidelity must be below 1, got {target_fidelity}")
    if not t_cap > 0:
        raise BadParam(f"t_cap must be positive, got {t_cap}")
    step = 1.0 / (64 * max(degree_profile(g).m, 1.0))
    total = _grid_count(np.ceil(t_cap / step))
    curve, cert = transfer_curve(g, u, v, t_cap, tol)
    best_f = 0.0
    skipping = u.is_parallel_to(v)
    near = target_fidelity - 0.005  # grid points at or above this start a run
    # the best point of a run cut by the last window's edge, carried into the
    # next window so the run is refined around its true peak
    held_t = held_f = np.empty(0)
    # windows double from GRID_FLOOR points, so the scan stops near the witness
    for start, f in _scan(curve, step, total, doubling=True):
        end = start + f.size - 1  # the window's last grid index
        ts = np.arange(start, end + 1) * step
        if ts[-1] > t_cap:
            ts[-1] = t_cap
            f[-1] = abs(curve(t_cap)[0])
        if skipping:
            # wait until fidelity falls below the refine threshold too, so the
            # tail of the initial plateau cannot be reported as a return
            below = np.nonzero(f < near)[0]
            if below.size == 0:
                continue
            ts, f = ts[below[0]:], f[below[0]:]
            skipping = False
        ts, f = np.concatenate((held_t, ts)), np.concatenate((held_f, f))
        held_t = held_f = np.empty(0)
        best_f = max(best_f, float(f.max()))
        hits = np.flatnonzero(f >= near)
        if not hits.size:
            continue
        # one candidate per contiguous run of near-target grid points,
        # all refined at once; the earliest that reaches the target wins
        runs = np.split(hits, np.flatnonzero(np.diff(hits) > 1) + 1)
        peaks = [run[np.argmax(f[run])] for run in runs]
        if hits[-1] == f.size - 1 and end < total:
            held_t, held_f = ts[peaks[-1:]], f[peaks[-1:]]
            del peaks[-1]
            if not peaks:
                continue
        taus, amps = _refine(curve, np.maximum(ts[peaks] - step, TIME_RESOLUTION),
                             np.minimum(ts[peaks] + step, t_cap))
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
