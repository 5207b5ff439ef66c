"""Zero location, simplicity diagnostics, and gap statistics.

Sign-change scanning for real interval functions, refined by
safeguarded Newton steps on a function's jet (value and derivative) or,
without one, by Brent's method (a port of scipy's brentq), the smooth
zero-count estimate theta(T)/pi + 1 used to cross-check scans, a
Lehmer-pair detector (abnormally close consecutive zeros of the Hardy
function), and a winding-number zero counter for rectangles in the
complex plane.

Critical-line work runs on two routes: the Riemann-Siegel sum does the
cheap scanning, the Euler-Maclaurin route refines and re-verifies every
zero, so a defect in either route cannot silently plant or move zeros.
scan_and_refine is the one scan-then-refine loop: it scans on a
function's scan route (SampledFunction.scan_route) where that route is
valid, and refines every zero on the function itself.
The scan step is capped below the smallest zero gap up to
MAX_SCAN_HEIGHT, so no two zeros can share a grid cell.  A window
narrower than the step is scanned at its two ends: it holds at most
one zero, since its width is below that gap too.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (BracketError, ContourError, DomainError,
                     EvaluationError, NumericsError)
from .hilbert import Interval, SampledFunction
from .specialfn import TWO_PI, _require_count, theta, theta_derivative
from .zetaeval import (MAX_TERMS, _hardy_z_jet, generalized_hardy,
                       hardy_z_rs)

#: Largest height validated for double-precision scanning.
MAX_SCAN_HEIGHT = 1.0e4

#: |f'| must exceed this times the local amplitude for a zero to be
#: flagged simple.
SIMPLE_DERIVATIVE_FACTOR = 1e-6


@dataclass(frozen=True, slots=True)
class ZeroRecord:
    """A refined zero, the bracket refine_zero accepted, and diagnostics.

    derivative is f' and residual |f|: for a function with a jet, the
    jet's values at the last Newton point, under half the tolerance from
    location (analytic Z'(t) on the Euler-Maclaurin route); otherwise a
    central difference at location and |f(location)|.  simple says that
    |derivative| clears SIMPLE_DERIVATIVE_FACTOR times the bracket's
    amplitude."""

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


def _scan_grid(interval: Interval, step: float) -> np.ndarray:
    """The scan grid a, a+step, ..., b: b replaces the last step's point
    when that lands within 1e-12 max(1, |b|) of it, and is appended
    otherwise, so a step at least the interval's width gives the grid
    [a, b].  A step that is not positive, or whose grid could exceed
    MAX_TERMS points, raises DomainError."""
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step}")
    cells = interval.width / step
    if not cells < MAX_TERMS - 1:
        raise DomainError(
            f"step={step} gives a grid of over MAX_TERMS={MAX_TERMS} "
            f"points on {interval}"
        )
    n = math.floor(cells)
    xs = interval.a + step * np.arange(n + 1)
    if n > 0 and xs[-1] >= interval.b - 1e-12 * max(1.0, abs(interval.b)):
        xs[-1] = interval.b
    else:
        xs = np.append(xs, interval.b)
    return xs


def _brackets(xs: np.ndarray, vals: np.ndarray, interval: Interval,
              step: float, end: Callable[[], float] | None = None
              ) -> Iterator[tuple[float, float]]:
    """The sign-change brackets of values vals on the grid xs, ascending:
    each consecutive grid pair with a strict sign change, and for each
    grid point where vals is exactly zero the bracket of +/- step/10
    around it, clipped to the interval.  When end is given, vals[-1] is
    set to end() only after every bracket left of the last cell has
    been taken."""

    def cells(lo: int, hi: int) -> Iterator[tuple[float, float]]:
        v0, v1 = vals[lo:hi], vals[lo + 1:hi + 1]
        change = ((v0 < 0.0) & (v1 > 0.0)) | ((v1 < 0.0) & (v0 > 0.0))
        for i in (lo + np.flatnonzero(change | (v0 == 0.0))).tolist():
            x = float(xs[i])
            if vals[i] == 0.0:
                yield (max(interval.a, x - 0.1 * step),
                       min(interval.b, x + 0.1 * step))
            else:
                yield (x, float(xs[i + 1]))

    last = len(xs) - 2
    yield from cells(0, last)
    if end is not None:
        vals[-1] = end()
    yield from cells(last, last + 1)
    if vals[-1] == 0.0:
        x = float(xs[-1])
        yield (max(interval.a, x - 0.1 * step), x)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be a positive finite number, got {tol!r}")


def _brent(f: Callable[[float], float], xa: float, xb: float,
           xtol: float) -> float:
    """A root of f on [xa, xb] where f(xa) and f(xb) differ in sign:
    Brent's zeroin (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4), step for step as scipy.optimize.brentq's
    C loop with rtol = 1e-15 and 100 iterations.  It stops when f is
    exactly 0 or the bracket's half-width falls under
    (xtol + rtol |x|)/2, and returns the end of the bracket with the
    smaller |f|.  rtol is 4.5 ulps, above the 4 ulps under which the
    step can stall on roundoff; bisection alone shrinks a bracket below
    1e-15 of its width in 50 iterations.

    f must return a float at each point (refine_zero passes
    SampledFunction._value, which checks it).  Raises BracketError when
    f(xa) and f(xb) share a sign, and NumericsError when 100 iterations
    do not converge.
    """
    rtol = 1e-15
    maxiter = 100
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"no sign change on ({xa}, {xb})")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise NumericsError(f"Brent did not converge on ({xa}, {xb}) in "
                        f"{maxiter} iterations")


def _newton(jet: Callable[[float], tuple[float, float]], xa: float,
            xb: float, fa: float, fb: float,
            xtol: float) -> tuple[float, float, float]:
    """A root of f on [xa, xb], where fa = f(xa) and fb = f(xb) differ in
    sign or one is 0, by safeguarded Newton on jet(x) = (f(x), f'(x)),
    with f and f' at the last jet point x.  It starts at the end where f
    is 0, else at the secant root of the two end values.  Each jet point
    replaces the end of the bracket whose sign it shares; the step from
    it is Newton's where that lands strictly inside the bracket, else
    the one to the bracket's midpoint (f' = 0 included).  It stops when
    f is exactly 0 at x, returning x, or when the step falls under
    Brent's delta = (xtol + rtol |x|)/2, rtol = 1e-15, returning x plus
    the step, kept within the bracket, as Numerical Recipes' rtsafe
    returns its last update: a Newton step that short leaves x + step
    within about step^2 f''/f' of the root, when jet's f' is f's
    derivative, and a bisection step that short leaves the midpoint
    within delta of the bracket's sign change.  Where the values are
    only good to noise e, as Euler-Maclaurin's at a Lehmer pair, the
    root is only good to about e/|f'|, by this or by Brent's method.
    Raises NumericsError when 100 jet points do not converge.
    """
    rtol = 1e-15
    maxiter = 100
    if fa == 0.0 or fb == 0.0:
        x = xa if fa == 0.0 else xb
    else:
        x = xa - fa * (xb - xa) / (fb - fa)
    for _ in range(maxiter):
        fx, dx = jet(x)
        if fx == 0.0:
            return x, fx, dx
        if (fx < 0.0) == (fa < 0.0):
            xa, fa = x, fx
        else:
            xb = x
        step = -fx / dx if dx != 0.0 else math.inf
        delta = (xtol + rtol * abs(x)) / 2.0
        # A step under delta may round back onto x: it ends the search
        # before the bracket is asked whether x + step lies inside.
        if abs(step) >= delta and not xa < x + step < xb:
            step = 0.5 * (xa + xb) - x
        if abs(step) < delta:
            return min(max(x + step, xa), xb), fx, dx
        x += step
    raise NumericsError(f"Newton did not converge on ({xa}, {xb}) in "
                        f"{maxiter} iterations")


def refine_zero(f: SampledFunction, bracket: tuple[float, float],
                tol: float = 1e-10) -> ZeroRecord:
    """Refinement of a bracketed sign change, to within tol + 1e-15
    |root|.

    f's callback signs both bracket ends.  A function with a jet is then
    refined by safeguarded Newton on the jet inside that bracket
    (_newton): its derivative and residual are the jet's f' and |f| at
    the last jet point, under (tol + 1e-15 |root|)/2 from the root it
    returns.  Any other function is refined by Brent's method (_brent),
    its residual is |f| at the root, and its derivative a central
    difference at h = max(1e-6, tol).  The zero is flagged simple when
    |f'| clears SIMPLE_DERIVATIVE_FACTOR times the bracket's amplitude.
    A tol that is not a positive finite number raises DomainError before
    f is evaluated.  Every value of f, at the bracket ends, the Brent
    iterates and the derivative and residual points, is read through
    SampledFunction._value, and every jet pair through
    SampledFunction._jet_value, so a refused or non-finite value raises
    EvaluationError naming its point, chained from the cause.
    """
    _check_tol(tol)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"bracket must be ordered, got ({lo}, {hi})")
    # One cache for this call: Brent re-evaluates both ends and returns
    # a point it has evaluated (an end, when f is exactly 0 there).
    f_at = functools.cache(f._value)
    flo, fhi = f_at(lo), f_at(hi)
    if flo != 0.0 and fhi != 0.0 and (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on ({lo}, {hi}): f={flo:.3e}, {fhi:.3e} "
            "(bracket lost, likely evaluation noise)"
        )
    if f.jet is not None:
        root, value, deriv = _newton(f._jet_value, lo, hi, flo, fhi, tol)
    else:
        root = _brent(f_at, lo, hi, tol)
        h = max(1e-6, tol)
        deriv = (f_at(root + h) - f_at(root - h)) / (2.0 * h)
        value = f_at(root)
    residual = abs(value)
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
    Riemann-Siegel route as its scan route and Z and Z' from one
    Euler-Maclaurin sum as its jet (zetaeval._hardy_z_jet)."""
    # The lambdas look their kernels up at call time, as in
    # hardy_rs_function: a route set on this module's globals replaces
    # value and jet alike.
    return SampledFunction(eval=lambda t: generalized_hardy(0.5, t).z,
                           label="Z_em", scan_route=hardy_rs_function(),
                           jet=lambda t: _hardy_z_jet(t))


def scan_and_refine(f: SampledFunction, interval: Interval, step: float,
                    tol: float) -> list[ZeroRecord]:
    """Scan-then-refine the zeros of f on an interval, ascending.

    Brackets come from one scan on the grid a, a+step, ..., b (just
    [a, b] when the step is at least the width): on f.scan_route when
    f has one and the interval lies inside its validated range
    [2*pi, MAX_SCAN_HEIGHT], on f itself otherwise.  A scan on the route
    samples the whole grid there in one call but takes the signs at
    interval.a and interval.b from f, at two more evaluations of f: a
    zero whose two positions straddle a window end is then inside the
    window exactly when f puts it there, and is found.  Each bracket is
    refined on f, first on its grid cell.  The Riemann-Siegel and
    Euler-Maclaurin routes place a zero up to 7.5e-3 apart (near
    t = 25.01), many cells at a small step, so a cell without a sign
    change of f is refined once more on its span, from midway to the
    previous bracket (or interval.a) to midway to the next (or
    interval.b).  Spans are disjoint and ordered, so records come out
    ascending and distinct.  A span without a sign change drops the
    bracket: a scan-route-only pair of sign changes, or a zero just
    outside the interval.  A tol that is not a positive finite number,
    a step that is not positive, or one whose grid would exceed
    MAX_TERMS points raises DomainError before anything is evaluated.
    Sampling, the two
    window-end signs and refinement read f as SampledFunction._value
    does, so a refused or non-finite value anywhere raises
    EvaluationError naming its point, chained from the cause, and no
    partial list is returned.
    """
    _check_tol(tol)
    in_range = TWO_PI <= interval.a and interval.b <= MAX_SCAN_HEIGHT
    xs = _scan_grid(interval, step)
    if f.scan_route is not None and in_range:
        vals = f.scan_route.sample(xs)
        # A zero between its two routes' positions at a window end is
        # inside the window on f or not at all: f signs the ends.
        vals[0] = f._value(float(xs[0]))
        brackets = _brackets(xs, vals, interval, step,
                             end=lambda: f._value(float(xs[-1])))
    else:
        brackets = _brackets(xs, f.sample(xs), interval, step)
    # Each span reaches midway to the neighbouring brackets.  The next
    # bracket is drawn only as this one is refined, so f signs the right
    # end after the zeros left of it: f meets its heights in rising
    # order, as the one-entry memos of the Euler-Maclaurin head want.
    records = []
    lo = interval.a
    cell = next(brackets, None)
    while cell is not None:
        following = next(brackets, None)
        hi = (interval.b if following is None
              else 0.5 * (cell[1] + following[0]))
        for bracket in (cell, (lo, hi)):
            try:
                records.append(refine_zero(f, bracket, tol))
                break
            except BracketError:
                pass
        lo, cell = hi, following
    return records


def find_critical_zeros(interval: Interval,
                        step: float = 0.01) -> list[ZeroRecord]:
    """All Hardy-function zeros on an interval: scan_and_refine of
    hardy_em_function() at tol 1e-10, so brackets come from a
    Riemann-Siegel scan with the window ends signed on Euler-Maclaurin,
    and every zero is refined on the Euler-Maclaurin route, by Newton
    steps on its jet inside a bracket Euler-Maclaurin signs.

    The interval must lie in [2*pi, MAX_SCAN_HEIGHT] and the step must
    not exceed MAX_SCAN_STEP, so that no two zeros share a grid cell
    (DomainError otherwise, before anything is evaluated); an interval
    narrower than the step is scanned at its two ends.  A route
    that refuses a height or returns a non-finite value there raises
    EvaluationError naming the height, chained from the cause (the
    kernel's DomainError, for a refusal).
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
    return scan_and_refine(hardy_em_function(), interval, step, 1e-10)


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


def _contour_value(z: complex, value: object) -> complex:
    """value, f's value at the contour point z, as a complex; a value
    that is not a finite complex number raises EvaluationError with z."""
    try:
        v = complex(value)
        if not cmath.isfinite(v):
            raise ValueError(f"returned a non-finite value {v!r}")
        return v
    except (TypeError, ValueError) as exc:
        raise EvaluationError(f"f failed at z={z!r}: {exc}", point=z) from exc


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
    vm = _contour_value(zm, f(zm))
    return (_phase_steps(f, z0, zm, v0, vm, depth + 1)
            + _phase_steps(f, zm, z1, vm, v1, depth + 1))


def argument_principle_count(f: Callable[[np.ndarray | complex],
                                         np.ndarray | complex],
                             box: Sequence[float],
                             n_per_side: int = 256) -> int:
    """Number of zeros of f inside a rectangle, by winding number.

    box = (sigma1, sigma2, t1, t2).  The contour is sampled with
    n_per_side points per side and each step's argument increment is
    adaptively subdivided below pi/2, so once the sampling resolves the
    phase the count is exact and invariant under refinement.  Raises
    ContourError when |f| on the contour drops under CONTOUR_MIN_ABS.
    Raises DomainError before any evaluation when box is not four
    numbers, when its sigma side [sigma1, sigma2] or its t side
    [t1, t2] is not an Interval (finite with a < b; the message names
    the side), or when n_per_side is not an integer in
    [2, MAX_TERMS // 4], so that the 4*n_per_side contour points stay
    within MAX_TERMS.

    f maps points to values numpy-style: it is called once on the
    complex ndarray of the 4*n_per_side+1 grid points, and must return
    an array of their values, then once on each subdivision midpoint, a
    complex, one at a time.  A grid result of another shape raises
    TypeError.  A grid or midpoint value that is not a finite complex
    number raises EvaluationError with its point, chained from the
    cause, the grid's before any subdivision; exceptions f raises
    propagate unchanged.
    """
    if len(box) != 4:
        raise DomainError(f"box must be (sigma1, sigma2, t1, t2), got {box!r}")
    s1, s2, t1, t2 = box
    for side, lo, hi in (("sigma", s1, s2), ("t", t1, t2)):
        try:
            Interval(lo, hi)
        except DomainError as exc:
            raise DomainError(
                f"the {side} side of box {box!r} is refused: {exc}") from exc
    n_per_side = _require_count(n_per_side, "n_per_side", 2, MAX_TERMS // 4)
    corners = [complex(s1, t1), complex(s2, t1), complex(s2, t2),
               complex(s1, t2), complex(s1, t1)]
    frac = np.arange(n_per_side, dtype=float) / n_per_side
    grid = np.concatenate(
        [a + (b - a) * frac for a, b in zip(corners[:-1], corners[1:])]
        + [corners[:1]])
    raw = f(grid)
    try:
        vals = np.asarray(raw, dtype=complex)
    except (TypeError, ValueError):  # an entry numpy cannot make complex
        vals = np.asarray(raw, dtype=object)
    if vals.shape != grid.shape:
        raise TypeError(f"f must map the {grid.size} contour points to as "
                        f"many values, got an array of shape {vals.shape}")
    zs, vs = grid.tolist(), vals.tolist()
    if vals.dtype == object or not np.isfinite(vals).all():
        vs = [_contour_value(z, v) for z, v in zip(zs, vs)]
    total = 0.0
    for i in range(len(zs) - 1):
        total += _phase_steps(f, zs[i], zs[i + 1], vs[i], vs[i + 1])
    winding = total / TWO_PI
    count = round(winding)
    if abs(winding - count) > 0.25:
        raise ContourError(
            f"winding {winding:.6f} is not settling on an integer; "
            "refine the contour"
        )
    return int(count)
