"""Zero location, simplicity diagnostics, and gap statistics.

Sign-change scanning with Brent refinement for real interval functions,
the smooth zero-count estimate theta(T)/pi + 1 used to cross-check
scans, a Lehmer-pair detector (abnormally close consecutive zeros of
the Hardy function), and a winding-number zero counter for rectangles
in the complex plane.

Critical-line work runs on two routes: the Riemann-Siegel sum does the
cheap scanning, the Euler-Maclaurin route refines and re-verifies every
zero, so a defect in either route cannot silently plant or move zeros.
scan_and_refine is the one scan-then-refine loop: it scans on a
function's scan route (SampledFunction.scan_route) where that route is
valid, and refines every zero on the function itself.
The scan step is capped below the smallest zero gap up to
MAX_SCAN_HEIGHT, so no two zeros can share a grid cell.
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
from .specialfn import TWO_PI, theta, theta_derivative
from .zetaeval import MAX_TERMS, generalized_hardy, hardy_z_rs

#: Largest height validated for double-precision scanning.
MAX_SCAN_HEIGHT = 1.0e4

#: |f'| must exceed this times the local amplitude for a zero to be
#: flagged simple.
SIMPLE_DERIVATIVE_FACTOR = 1e-6


@dataclass(frozen=True)
class ZeroRecord:
    """A refined zero, the bracket refine_zero accepted, and diagnostics."""

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

#: Largest scan step find_critical_zeros accepts.  Up to MAX_SCAN_HEIGHT
#: consecutive zeros lie at least 0.0377 apart (the Lehmer pair near
#: 7005; the next-closest gaps are 0.0433 at 5229.20 and 0.0908 at
#: 4292.73), so a grid finer than that gap puts a point between any two
#: zeros; 0.02 leaves a margin of 1.9x.  If MAX_SCAN_HEIGHT ever rises,
#: the smallest gap must be measured again.
MAX_SCAN_STEP = 0.02


def scan_sign_changes(f: SampledFunction, interval: Interval,
                      step: float) -> list[tuple[float, float]]:
    """All consecutive grid pairs of f with a strict sign change, in
    ascending order, from one sample call on the grid a, a+step, ..., b.

    Grid points where f lands exactly on zero are expanded into a
    bracket of +/- step/10 around the point.  A step whose grid could
    exceed MAX_TERMS points raises DomainError before f is evaluated.
    """
    if not 0.0 < step < interval.width:
        raise DomainError(
            f"step must lie in (0, {interval.width}), got {step}"
        )
    n = int(math.floor(interval.width / step))
    if n + 2 > MAX_TERMS:
        raise DomainError(
            f"step={step} gives a grid of over MAX_TERMS={MAX_TERMS} "
            f"points on {interval}"
        )
    xs = interval.a + step * np.arange(n + 1)
    if xs[-1] < interval.b - 1e-12 * max(1.0, abs(interval.b)):
        xs = np.append(xs, interval.b)
    vals = f.sample(xs)
    v0, v1 = vals[:-1], vals[1:]
    change = ((v0 < 0.0) & (v1 > 0.0)) | ((v1 < 0.0) & (v0 > 0.0))
    brackets: list[tuple[float, float]] = []
    for i in np.flatnonzero(change | (v0 == 0.0)).tolist():
        x = float(xs[i])
        if vals[i] == 0.0:
            brackets.append((max(interval.a, x - 0.1 * step),
                             min(interval.b, x + 0.1 * step)))
        else:
            brackets.append((x, float(xs[i + 1])))
    if vals[-1] == 0.0:
        x = float(xs[-1])
        brackets.append((max(interval.a, x - 0.1 * step), x))
    return brackets


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
    return theta(T) / math.pi + 1.0


def hardy_rs_function() -> SampledFunction:
    """Z(t) via the Riemann-Siegel sum; the fast scanning route."""
    # The lambda looks hardy_z_rs up at call time, so a wrapper set on
    # this module's global after construction is still called.
    return SampledFunction(eval=lambda t: hardy_z_rs(t), label="Z_rs")


def hardy_em_function() -> SampledFunction:
    """Z(t) via Euler-Maclaurin, the accurate refinement route, with the
    Riemann-Siegel route as its scan route."""
    return SampledFunction(eval=lambda t: generalized_hardy(0.5, t).z,
                           label="Z_em", scan_route=hardy_rs_function())


def scan_and_refine(f: SampledFunction, interval: Interval, step: float,
                    tol: float) -> list[ZeroRecord]:
    """Scan-then-refine the zeros of f on an interval, ascending.

    Brackets come from one scan at the given step: on f.scan_route when
    f has one and the interval lies inside its validated range
    [2*pi, MAX_SCAN_HEIGHT], on f itself otherwise.  Each bracket is
    refined on f, first on its grid cell.  The Riemann-Siegel and
    Euler-Maclaurin routes place a zero up to 7.5e-3 apart (near
    t = 25.01), many cells at a small step, so a cell without a sign
    change of f is refined once more on its span, from midway to the
    previous bracket (or interval.a) to midway to the next (or
    interval.b).  Spans are disjoint and ordered, so records come out
    ascending and distinct.  A span without a sign change drops the
    bracket: a scan-route-only pair of sign changes, or a zero just
    outside the interval.
    """
    in_range = TWO_PI <= interval.a and interval.b <= MAX_SCAN_HEIGHT
    scan = f.scan_route if f.scan_route is not None and in_range else f
    brackets = scan_sign_changes(scan, interval, step)
    mids = [0.5 * (p[1] + q[0]) for p, q in zip(brackets, brackets[1:])]
    splits = [interval.a, *mids, interval.b]
    records = []
    for k, cell in enumerate(brackets):
        for bracket in (cell, (splits[k], splits[k + 1])):
            try:
                records.append(refine_zero(f, bracket, tol))
                break
            except BracketError:
                pass
    return records


def find_critical_zeros(interval: Interval, step: float = 0.01,
                        tol: float = 1e-10) -> list[ZeroRecord]:
    """All Hardy-function zeros on an interval: scan_and_refine of
    hardy_em_function(), so brackets come from a Riemann-Siegel scan and
    every zero is refined on the Euler-Maclaurin route.

    The interval must lie in [2*pi, MAX_SCAN_HEIGHT] and the step must
    not exceed MAX_SCAN_STEP, so that no two zeros share a grid cell
    (DomainError otherwise, before anything is evaluated).
    """
    if interval.a < TWO_PI:
        raise DomainError(
            f"critical-line scan needs the interval above 2*pi, got {interval}"
        )
    if interval.b > MAX_SCAN_HEIGHT:
        raise DomainError(
            f"interval exceeds the validated height {MAX_SCAN_HEIGHT:g}"
        )
    if not step <= MAX_SCAN_STEP:
        raise DomainError(
            f"step must not exceed MAX_SCAN_STEP={MAX_SCAN_STEP:g}, got {step}"
        )
    return scan_and_refine(hardy_em_function(), interval, step, tol)


def lehmer_scan(interval: Interval, threshold: float,
                step: float = 0.01) -> list[LehmerPair]:
    """Consecutive Hardy-function zeros closer than `threshold` mean gaps.

    Refines all zeros in the interval with find_critical_zeros (so step
    must not exceed MAX_SCAN_STEP), normalizes consecutive gaps by
    theta'(midpoint)/pi, and returns pairs under the threshold together
    with the extremal |Z| between them.  Pass threshold=inf to obtain
    every consecutive pair (useful for gap statistics).
    """
    if not threshold > 0.0:
        raise DomainError(f"threshold must be positive, got {threshold}")
    records = find_critical_zeros(interval, step=step)
    z_rs = hardy_rs_function()
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
    ContourError when |f| on the contour drops under CONTOUR_MIN_ABS,
    and DomainError before any evaluation when the 4*n_per_side contour
    points would exceed MAX_TERMS.
    """
    s1, s2, t1, t2 = box
    if not (s1 < s2 and t1 < t2):
        raise DomainError(f"degenerate box {box}")
    if not 2 <= n_per_side <= MAX_TERMS // 4:
        raise DomainError(
            f"n_per_side must lie in [2, {MAX_TERMS // 4}], got {n_per_side}"
        )
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
