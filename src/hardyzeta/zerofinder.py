"""Zero location, simplicity diagnostics, and gap statistics.

Sign-change scanning with Brent refinement for real interval functions,
the smooth zero-count estimate theta(T)/pi + 1 used to cross-check
scans, a Lehmer-pair detector (abnormally close consecutive zeros of
the Hardy function), and a winding-number zero counter for rectangles
in the complex plane.

Critical-line work runs on two routes: the Riemann-Siegel sum does the
cheap scanning, the Euler-Maclaurin route refines and re-verifies every
zero, so a defect in either route cannot silently plant or move zeros.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import BracketError, ContourError, DomainError
from .hilbert import Interval, SampledFunction
from .specialfn import TWO_PI, ThetaMode, theta, theta_derivative
from .zetaeval import EvalConfig, generalized_hardy, hardy_z_rs

#: Largest height validated for double-precision scanning.
MAX_SCAN_HEIGHT = 1.0e4

#: |f'| must exceed this times the local amplitude for a zero to be
#: flagged simple.
SIMPLE_DERIVATIVE_FACTOR = 1e-6


@dataclass(frozen=True)
class ZeroRecord:
    """A refined zero with its bracket and simplicity diagnostics."""

    location: float
    bracket: tuple[float, float]
    derivative: float
    simple: bool
    residual: float


@dataclass(frozen=True)
class LehmerPair:
    """Two consecutive zeros whose normalized gap is abnormally small.

    normalized_gap = (t_high - t_low) * theta'(midpoint) / pi, i.e. the
    gap in units of the local mean spacing; min_between is the extremal
    |Z| reached between the two zeros (tiny for a genuine Lehmer pair).
    """

    t_low: float
    t_high: float
    normalized_gap: float
    min_between: float


#: Winding counts refuse contours where |f| drops under this: the phase
#: of f is unreliable that close to a zero.
CONTOUR_MIN_ABS = 1e-8

#: Grid cells whose endpoint |Z| both stay above this are considered
#: safe from a hidden (Lehmer-style) pair of zeros inside the cell.
RISK_AMPLITUDE = 0.2


def _straddles(vals: np.ndarray) -> np.ndarray:
    """The bracket rule: True at i when vals[i], vals[i+1] strictly
    change sign."""
    v0, v1 = vals[:-1], vals[1:]
    return ((v0 < 0.0) & (v1 > 0.0)) | ((v1 < 0.0) & (v0 > 0.0))


def _scan(f: SampledFunction, interval: Interval, step: float,
          risk_amplitude: float | None) -> list[tuple[float, float]]:
    """Sign-change scan of f on the grid a, a+step, ..., b.

    Grid points where f lands exactly on zero are expanded into a
    bracket of +/- step/10 around the point.  When risk_amplitude is
    set, cells without a sign change whose smaller endpoint |f| dips
    under it are rescanned at step/10, since a pair of zeros hiding
    inside one cell forces the neighbouring grid values down.
    """
    if not 0.0 < step < interval.width:
        raise DomainError(
            f"step must lie in (0, {interval.width}), got {step}"
        )
    n = int(math.floor(interval.width / step))
    xs = interval.a + step * np.arange(n + 1)
    if xs[-1] < interval.b - 1e-12 * max(1.0, abs(interval.b)):
        xs = np.append(xs, interval.b)
    vals = f.sample(xs)
    change = _straddles(vals)
    brackets: list[tuple[float, float]] = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            lo = max(interval.a, xs[i] - 0.1 * step)
            hi = min(interval.b, xs[i] + 0.1 * step)
            brackets.append((lo, hi))
        elif change[i]:
            brackets.append((float(xs[i]), float(xs[i + 1])))
        elif (risk_amplitude is not None
              and min(abs(vals[i]), abs(vals[i + 1])) < risk_amplitude):
            # linspace returns both cell ends exactly: reuse their values.
            sub = np.linspace(xs[i], xs[i + 1], 11)
            sub_vals = np.r_[vals[i], f.sample(sub[1:-1]), vals[i + 1]]
            brackets.extend((float(sub[j]), float(sub[j + 1]))
                            for j in np.flatnonzero(_straddles(sub_vals)))
    if vals[-1] == 0.0:
        brackets.append((max(interval.a, xs[-1] - 0.1 * step), float(xs[-1])))
    return brackets


def scan_sign_changes(f: SampledFunction, interval: Interval,
                      step: float) -> list[tuple[float, float]]:
    """All consecutive grid pairs of f with a strict sign change.

    Grid points where f lands exactly on zero are expanded into a
    bracket of +/- step/10 around the point.
    """
    return _scan(f, interval, step, None)


def refine_zero(f: SampledFunction, bracket: tuple[float, float],
                tol: float = 1e-10) -> ZeroRecord:
    """Brent refinement of a bracketed sign change.

    The derivative estimate is a central difference at
    h = max(1e-6, tol); the zero is flagged simple when |f'| clears
    SIMPLE_DERIVATIVE_FACTOR times the bracket's amplitude.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"bracket must be ordered, got ({lo}, {hi})")
    # One cache for this call: brentq re-evaluates both ends and returns
    # a point it has evaluated (an end, when f is exactly 0 there).
    f_at = functools.cache(f.eval)
    flo, fhi = f_at(lo), f_at(hi)
    if flo != 0.0 and fhi != 0.0 and (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on ({lo}, {hi}): f={flo:.3e}, {fhi:.3e} "
            "(bracket lost, likely evaluation noise)"
        )
    root = float(brentq(f_at, lo, hi, xtol=tol, rtol=1e-15))
    h = max(1e-6, tol)
    deriv = (f_at(root + h) - f_at(root - h)) / (2.0 * h)
    residual = abs(f_at(root))
    local_scale = max(abs(flo), abs(fhi))
    simple = abs(deriv) > SIMPLE_DERIVATIVE_FACTOR * local_scale
    return ZeroRecord(location=root, bracket=(lo, hi), derivative=deriv,
                      simple=simple, residual=residual)


def zero_count_estimate(T: float) -> float:
    """Smooth estimate theta(T)/pi + 1 of the zero count up to height T."""
    if not T > TWO_PI:
        raise DomainError(f"count estimate needs T > 2*pi, got {T}")
    return theta(T, ThetaMode.EXACT) / math.pi + 1.0


def hardy_rs_function(cfg: EvalConfig | None = None) -> SampledFunction:
    """Z(t) via the Riemann-Siegel sum; the fast scanning route."""
    return SampledFunction(eval=lambda t: hardy_z_rs(t, cfg), label="Z_rs")


def hardy_em_function(cfg: EvalConfig | None = None) -> SampledFunction:
    """Z(t) via Euler-Maclaurin; the accurate refinement route."""
    return SampledFunction(eval=lambda t: generalized_hardy(0.5, t, cfg).z,
                           label="Z_em")


def find_critical_zeros(interval: Interval, step: float = 0.01,
                        cfg: EvalConfig | None = None,
                        tol: float = 1e-10) -> list[ZeroRecord]:
    """Scan-then-refine all Hardy-function zeros on an interval.

    Brackets come from the Riemann-Siegel route at the given step (with
    low-amplitude cells rescanned at step/10, where close pairs could
    hide inside one cell).  Each bracket is then refined on the
    Euler-Maclaurin route: the two routes differ by up to the
    leading-remainder error, so the bracket is grown by factors 1, 2, 4
    and 8 about its centre (never past its neighbours) and the first
    growth that refine_zero accepts gives the record.  Brackets that
    refine_zero rejects at every growth, because their sign change never
    survives on the accurate route, are discarded as scanning artifacts.
    An em_terms too short for the interval raises DomainError at the
    first Euler-Maclaurin refinement (see zetaeval._em_sum).
    """
    if interval.a < TWO_PI:
        raise DomainError(
            f"critical-line scan needs the interval above 2*pi, got {interval}"
        )
    if interval.b > MAX_SCAN_HEIGHT:
        raise DomainError(
            f"interval exceeds the validated height {MAX_SCAN_HEIGHT:g}"
        )
    z_rs = hardy_rs_function(cfg)
    z_em = hardy_em_function(cfg)
    brackets = _scan(z_rs, interval, step, RISK_AMPLITUDE)
    brackets.sort()
    records = []
    for k, (lo, hi) in enumerate(brackets):
        # Expansion room: never cross the neighbouring brackets.
        lo_cap = brackets[k - 1][1] if k > 0 else interval.a
        hi_cap = brackets[k + 1][0] if k + 1 < len(brackets) else interval.b
        c = 0.5 * (lo + hi)
        w = 0.5 * (hi - lo)
        for grow in (1.0, 2.0, 4.0, 8.0):
            grown = (max(lo_cap, c - grow * w), min(hi_cap, c + grow * w))
            try:
                records.append(refine_zero(z_em, grown, tol))
                break
            except BracketError:
                pass
    records.sort(key=lambda r: r.location)
    deduped: list[ZeroRecord] = []
    for r in records:
        if deduped and abs(r.location - deduped[-1].location) <= max(10.0 * tol, 1e-9):
            continue
        deduped.append(r)
    return deduped


def lehmer_scan(interval: Interval, threshold: float, step: float = 0.01,
                cfg: EvalConfig | None = None) -> list[LehmerPair]:
    """Consecutive Hardy-function zeros closer than `threshold` mean gaps.

    Refines all zeros in the interval (Riemann-Siegel scan,
    Euler-Maclaurin refinement), normalizes consecutive gaps by
    theta'(midpoint)/pi, and returns pairs under the threshold together
    with the extremal |Z| between them.  Pass threshold=inf to obtain
    every consecutive pair (useful for gap statistics).
    """
    if not threshold > 0.0:
        raise DomainError(f"threshold must be positive, got {threshold}")
    records = find_critical_zeros(interval, step=step, cfg=cfg)
    z_rs = hardy_rs_function(cfg)
    pairs: list[LehmerPair] = []
    for r0, r1 in zip(records[:-1], records[1:]):
        gap = r1.location - r0.location
        mid = 0.5 * (r0.location + r1.location)
        ngap = gap * theta_derivative(mid) / math.pi
        if ngap < threshold:
            ts = np.linspace(r0.location, r1.location, 66)[1:-1]
            barrier = float(np.max(np.abs(z_rs.sample(ts))))
            pairs.append(LehmerPair(t_low=r0.location, t_high=r1.location,
                                    normalized_gap=ngap, min_between=barrier))
    return pairs


def _phase_steps(f: Callable[[complex], complex], z0: complex, z1: complex,
                 v0: complex, v1: complex, depth: int = 0) -> float:
    """Total argument increment of f along [z0, z1], subdividing until
    each step turns by less than pi/2."""
    if abs(v0) < CONTOUR_MIN_ABS or abs(v1) < CONTOUR_MIN_ABS:
        raise ContourError(
            f"|f| dipped to {min(abs(v0), abs(v1)):.3e} at the contour near "
            f"{z0 if abs(v0) < abs(v1) else z1}; a zero is too close"
        )
    dphi = cmath.phase(v1 / v0)
    if abs(dphi) <= 0.5 * math.pi:
        return dphi
    if depth >= 48:
        raise ContourError(
            f"phase failed to settle between {z0} and {z1}; "
            "a zero may sit on the contour"
        )
    zm = 0.5 * (z0 + z1)
    vm = f(zm)
    return (_phase_steps(f, z0, zm, v0, vm, depth + 1)
            + _phase_steps(f, zm, z1, vm, v1, depth + 1))


def argument_principle_count(f: Callable[[complex], complex],
                             box: Sequence[float],
                             n_per_side: int = 256) -> int:
    """Number of zeros of f inside a rectangle, by winding number.

    box = (sigma1, sigma2, t1, t2).  The contour is sampled with
    n_per_side points per side and each step's argument increment is
    adaptively subdivided below pi/2, so once the sampling resolves the
    phase the count is exact and invariant under refinement.  Raises
    ContourError when |f| on the contour drops under CONTOUR_MIN_ABS.
    """
    s1, s2, t1, t2 = box
    if not (s1 < s2 and t1 < t2):
        raise DomainError(f"degenerate box {box}")
    if n_per_side < 2:
        raise DomainError("n_per_side must be >= 2")
    corners = [complex(s1, t1), complex(s2, t1), complex(s2, t2),
               complex(s1, t2), complex(s1, t1)]
    zs: list[complex] = []
    for a, b in zip(corners[:-1], corners[1:]):
        for k in range(n_per_side):
            zs.append(a + (b - a) * (k / n_per_side))
    zs.append(corners[0])
    vals = [f(z) for z in zs]
    total = 0.0
    for i in range(len(zs) - 1):
        total += _phase_steps(f, zs[i], zs[i + 1], vals[i], vals[i + 1])
    winding = total / TWO_PI
    count = round(winding)
    if abs(winding - count) > 0.25:
        raise ContourError(
            f"winding {winding:.6f} is not settling on an integer; "
            "refine the contour"
        )
    return int(count)
