"""Zeta-family evaluation kernels.

Euler-Maclaurin continuation of the Riemann and Hurwitz zeta functions,
the Riemann-Siegel main-sum evaluation of the Hardy Z function, the
generalized Hardy function Z(sigma, t) = Re zeta(sigma+it) e^{i theta(t)},
Dirichlet partial-sum spirals, the residue identity that links the two
spirals, and the Davenport-Heilbronn linear combination of mod-5
L-functions.

Two deliberately independent routes exist for values on the critical
line: the Euler-Maclaurin route (accurate, used as the oracle) and the
Riemann-Siegel route (fast, used for scanning).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, PoleError
from .specialfn import (TWO_PI, _require_count, _require_finite, log_gamma,
                        theta, theta_asymptotic)

# Bernoulli numbers B_2 .. B_42 as exact rationals: the correction
# coefficients B_{2k}/(2k)! for up to EM_ORDER_MAX terms and the first
# omitted one.
_BERNOULLI_EVEN = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
    Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322),
    Fraction(-7709321041217, 510),
    Fraction(2577687858367, 6),
    Fraction(-26315271553053477373, 1919190),
    Fraction(2929993913841559, 6),
    Fraction(-261082718496449122051, 13530),
    Fraction(1520097643918070802691, 1806),
)

_EM_COEF = tuple(
    float(b / math.factorial(2 * (k + 1)))
    for k, b in enumerate(_BERNOULLI_EVEN)
)

#: Bernoulli correction terms m of the fixed Euler-Maclaurin pair, taken
#: where Backlund's pair sums at least as many head terms, or has none.
EM_ORDER = 8

#: Bernoulli correction terms m of Backlund's Euler-Maclaurin pair.
EM_ORDER_MAX = 20

#: Backlund bound, absolute, that the EM_ORDER_MAX pair is sized to meet.
EM_TARGET = 1e-11

# Riemann zeta heads of at least this many terms are summed over the
# integers coprime to 30 (_factored_head), below it term by term, by
# zeta_em and by the batched core (_em_blocks) alike.  Scalar head
# times with the split memoized, factored against term by term, best of
# 20 rounds of 100 calls at s = 1/2 + 1000i, in process on a 2-vCPU
# shared Xeon: 14.3 against 11.7 us at 100 terms, 15.3 against 14.3 at
# 150, 16.9 against 16.9 at 200, 18.3 against 20.8 at 250, 19.3 against
# 24.5 at 450, 22.7 against 37.6 at 800 and 46.8 against 115.2 at 2688.
# At sigma = 1/2 the head reaches 200 terms at t = 653.
_SMOOTH_MIN_TERMS = 200

# Most elements, points times columns of the widest head, in one chunk of
# the batched heads (_add_heads).  A chunk's phase tables and row blocks
# are views of two buffers of at most this many complex elements, 512 KB,
# and factored heads take a third, allocated once per call.  On a full
# block of points the heads peak 1.88 MB above their entry for mod-5
# points at sigma = 0.6, t in [10, 20], 3.59 MB for mod-5 points at
# t = 100 with 2^14 distinct sigma (2 MB of it their weight tables) and
# 2.38 MB for Z(1/2, .) at t in [9000, 9010], 115, 219 and 145 B a
# point (tracemalloc), each below the peak of the tails before them.
# A one-offset call holds one chunk's _Heads at a time (_chunk_heads):
# all of them at once would take 4.73 MB on Z(1/2, .), above the tails.
_HEAD_BLOCK = 2**14

# Most elements in the weight tables of one sigma group of the batched
# heads (_sigma_groups), 2 MB of complex elements.  The 149 distinct
# sigma of a dh-winding contour (sigma from 0.51 to 1, 128 points a
# side) make one group while its heads have at most 879 terms (t up to
# about 2960).
_WEIGHT_BLOCK = 8 * _HEAD_BLOCK

# Most points one block of the batched Euler-Maclaurin core (_em_blocks)
# takes at once.  A mod-5 block holds under 1 KB a point on either pair
# (tracemalloc peak, 15.6 MB at 2^14 points), so a grid of MAX_TERMS
# points taken whole would need some 900 MB; a zeta block of Z(1/2, .)
# at t = 9000 peaks at 394 B a point (6.45 MB).
_POINT_BLOCK = 2**14

#: Largest Backlund truncation bound allowed, relative to max(1, |value|).
EM_TOL = 1e-8

#: Most terms one Euler-Maclaurin or Riemann-Siegel evaluation, or one
#: Dirichlet partial-sum series, sums.
MAX_TERMS = 10**6

# Constants of Backlund's N in _em_pair: edge = sigma + _EDGE_SHIFT, and
# logs it compares against and sums.
_EDGE_SHIFT = 2 * EM_ORDER_MAX + 1
_LOG_MAX_TERMS = math.log(MAX_TERMS)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_COEF_OVER_TARGET = math.log(abs(_EM_COEF[EM_ORDER_MAX]) / EM_TARGET)

# As a >= 5e-324, the head term a^-sigma can overflow only above this
# sigma (~0.95).
_SIGMA_HEAD_SAFE = _LOG_FLOAT_MAX / -math.log(5e-324)

# Largest real part x at which glibc's cexp(x+iy) is exp(x) (cos y,
# sin y), product for product: above (int)(1023 log 2) = 709 it rescales
# by exp(709).  The batched heads (_add_heads) take each term as such a
# product, so _em_block refuses a point with a head exponent above it.
_EXP_SPLIT_MAX = 709.0

#: Machine epsilon of a double, for the head-sum rounding estimate.
_EPS = 2.0**-52

#: Mixing constant of the Davenport-Heilbronn combination,
#: (sqrt(10 - 2 sqrt 5) - 2) / (sqrt 5 - 1) ~= 0.2840790438.
KAPPA = (math.sqrt(10.0 - 2.0 * math.sqrt(5.0)) - 2.0) / (math.sqrt(5.0) - 1.0)

# Odd Dirichlet character mod 5 fixed by chi(2) = i.
_CHI5 = {1: 1.0 + 0.0j, 2: 1.0j, 3: -1.0j, 4: -1.0 + 0.0j}

# Davenport-Heilbronn coefficients on the residues 1..4 mod 5.
_DH_COEF = {1: 1.0, 2: KAPPA, 3: -KAPPA, 4: -1.0}


def _em_pair(s: complex) -> tuple[int, int]:
    """Cutoff N and Bernoulli order m of the Euler-Maclaurin sum at s.

    Of (max(50, ceil(2|t|/pi)), EM_ORDER) and (N_B, EM_ORDER_MAX), the
    pair with fewer head terms, the first on a tie or where N_B does not
    exist.  A head term costs a complex exp, and in the batched tails a
    Bernoulli order costs about as much as a head term, so the second
    pair wins from low |t| on: at sigma = 1/2 N_B is 12 at t = 0 and 69
    at t = 200, against 50 and 128.  Raises DomainError where
    |t|/2pi >= MAX_TERMS: Backlund's premise then needs N > MAX_TERMS,
    and 2|t| may overflow.

    N_B is the smallest N > |t|/2pi at which Backlund's bound with
    m = EM_ORDER_MAX is at most EM_TARGET.  It does not exist where his
    premise sigma+2m+1 > 0 fails, where it would exceed MAX_TERMS, or
    where the tail's Pochhammer product s(s+1)...(s+2m) could overflow
    a double.  With edge = sigma+2m+1 and base >= N, the bound is at
    most |B_{2m+2}/(2m+2)!| (|s|+2m+1)^{2m+2} N^{-edge} / edge, since
    each of the 2m+2 factors |s+j| in |s+2m+1| prod_{j<=2m} |s+j| is at
    most |s|+2m+1.  Solving for N in logs takes O(1), and the exp is
    taken only below log MAX_TERMS, so nothing here can overflow.  The
    batched core takes every point's pair here, so the function keeps
    to plain comparisons: a max() call per point cost a quarter of its
    time.
    """
    t = abs(s.imag)
    if t / TWO_PI >= MAX_TERMS:
        raise DomainError(
            f"no Euler-Maclaurin cutoff within MAX_TERMS={MAX_TERMS} at "
            f"s={s}: Backlund's bound needs N above |Im s|/2pi="
            f"{t / TWO_PI:.3g}"
        )
    n = math.ceil(2.0 * t / math.pi)
    if n < 50:
        n = 50
    edge = s.real + _EDGE_SHIFT
    log_poch = (_EDGE_SHIFT + 1) * math.log(abs(s) + _EDGE_SHIFT)
    if edge <= 0.0 or log_poch > _LOG_FLOAT_MAX:
        return n, EM_ORDER
    log_n = (log_poch + _LOG_COEF_OVER_TARGET - math.log(edge)) / edge
    if log_n > _LOG_MAX_TERMS:
        return n, EM_ORDER
    n_b = math.ceil(math.exp(log_n))
    if n_b <= t / TWO_PI:
        n_b = int(t / TWO_PI) + 1
    if n <= n_b:
        return n, EM_ORDER
    return n_b, EM_ORDER_MAX


@dataclass(frozen=True)
class GeneralizedHardyValue:
    """Projections of zeta(sigma+it) on e^{i theta(t)} and i e^{i theta(t)}.

    z is the in-phase (generalized Hardy) component, y the perpendicular
    one; z^2 + y^2 = |zeta(sigma+it)|^2 up to evaluation error.
    """

    z: float
    y: float


@dataclass(frozen=True)
class SpiralPath:
    """Dirichlet partial sums and the polyline of their midpoints.

    points[k] is the (k+1)-term partial sum of sum n^{-s}; midpoints[k]
    is the average of consecutive points and traces the inverse spiral.
    """

    points: np.ndarray
    midpoints: np.ndarray


def _powers(ns: np.ndarray, p: complex) -> np.ndarray:
    """ns ** p for positive real ns, as exp(p log ns): one real log and
    one complex exp per term instead of a general complex power.  glibc's
    cpow is cexp(p clog x), and clog of a positive integer equals its
    real log, so for integer ns the two agree bit for bit; non-integer
    bases near 1 take another clog path and differ by roundoff."""
    return np.exp(p * np.log(ns))


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


# The residues mod 30 of the integers coprime to 30.
_WHEEL = np.array([1.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0])


def _smooth_numbers(limit: int) -> np.ndarray:
    """The 5-smooth integers 1 <= m <= limit, ascending: 1 times each
    power of 2, those times each power of 3, all of those times each
    power of 5."""
    smooth = [1]
    for p in (2, 3, 5):
        for m in smooth[:]:
            m *= p
            while m <= limit:
                smooth.append(m)
                m *= p
    return np.array(sorted(smooth), dtype=float)


# Every 5-smooth m a head can hold, 507 of them (4 KB): a split reads its
# m as a prefix.
_SMOOTH = _smooth_numbers(MAX_TERMS)


def _smooth_prefix(limit: int) -> np.ndarray:
    """The 5-smooth integers 1 <= m <= limit, ascending."""
    return _SMOOTH[:np.searchsorted(_SMOOTH, limit, "right")]


def _coprime_numbers(limit: int) -> np.ndarray:
    """The integers 1 <= c <= limit coprime to 30, ascending."""
    # The wheel in floats and one cut: int64 % and a boolean mask would
    # load numpy code pages no other kernel loads.
    wheel = (30.0 * np.arange(limit // 30 + 1, dtype=float)[:, None]
             + _WHEEL).ravel()
    return wheel[:np.searchsorted(wheel, limit, "right")]


def _last_smooth(smooth: np.ndarray, coprime: np.ndarray,
                 terms: int | np.ndarray) -> np.ndarray:
    """For each c of coprime, the index in smooth (the 5-smooth m up to
    at least terms, ascending) of the largest m <= terms / c: the rule
    by which _factor_split splits a head of terms terms, and by which
    the batched head cuts each shorter head's split from a longer one,
    a row for each of a column of terms."""
    # Exact in floats: m c <= terms gives fl(terms / c) >= m, and
    # m c > terms puts terms / c at least 1/c >= 1/MAX_TERMS below m,
    # far more than its rounding error below MAX_TERMS.
    return np.searchsorted(smooth, terms / coprime, "right") - 1


@functools.lru_cache(maxsize=1)
def _factor_split(terms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log c for the c <= terms coprime to 30, log m for the 5-smooth
    m <= terms, and for each c the index of the largest m <= terms / c,
    all read-only.  Every n <= terms is m c for exactly one such pair,
    so the m of c are those up to its index.

    Memoized by length, one entry: the heads of one window arrive with
    rising lengths, so a longer cache misses no less, and the entry of
    the last length is all that stays live.  A block of the batched head
    reads it once, for its longest head (_factor_table)."""
    coprime, smooth = _coprime_numbers(terms), _smooth_prefix(terms)
    last = _last_smooth(smooth, coprime, terms)
    return _frozen(np.log(coprime)), _frozen(np.log(smooth)), _frozen(last)


def _factor_table(terms: int) -> tuple[np.ndarray, ...]:
    """c, m, log c and log m for the c <= terms coprime to 30 and the
    5-smooth m <= terms: the table of one block of points, from which
    _add_heads cuts the split of each factored head length."""
    coprime_log, smooth_log, _ = _factor_split(terms)
    return (_coprime_numbers(terms), _smooth_prefix(terms), coprime_log,
            smooth_log)


def _factored_head(s: complex, terms: int) -> complex:
    """sum_{n<=terms} n^{-s}, factored by complete multiplicativity as
    sum_c c^{-s} W(terms / c) over the c <= terms coprime to 30, where
    W(x) is the sum of m^{-s} over the 5-smooth m <= x, read from their
    cumulative sum.  Takes one complex exp for each c, about 27% of the
    terms, and one for each m, 123 up to 3000 terms, where the plain
    head takes one per term.  The batched head (_add_heads) sums each
    point's head as a row of this expression, so its values are these
    bit for bit.

    The split behind it is memoized by length, one entry, and keeps
    16 B per c and 8 B per m: 13784 B at 3000 terms (800 c and 123 m),
    enough for sigma = 1/2 up to t = 1e4, and 4.3 MB only at MAX_TERMS
    (266666 c and 507 m)."""
    coprime_log, smooth_log, last = _factor_split(terms)
    partial = np.cumsum(np.exp(-s * smooth_log))
    return complex((np.exp(-s * coprime_log) * partial[last]).sum())


def _factored_jet(s: complex, terms: int) -> tuple[complex, complex]:
    """_factored_head(s, terms), bit for bit, and its derivative in s:
    -sum_c c^{-s} (log c W(terms / c) + V(terms / c)), where V(x) is the
    sum of log m m^{-s} over the 5-smooth m <= x, a second cumulative
    sum over the exps W sums."""
    coprime_log, smooth_log, last = _factor_split(terms)
    smooth = np.exp(-s * smooth_log)
    partial = np.cumsum(smooth)[last]
    coprime = np.exp(-s * coprime_log)
    head = complex((coprime * partial).sum())
    logged = np.cumsum(smooth_log * smooth)[last]
    return head, -complex((coprime * (coprime_log * partial + logged)).sum())


def _em_sum(s: complex, a: float, terms: int, n_cut: int,
            m: int) -> complex:
    """Euler-Maclaurin value of sum_{n>=0} (n+a)^{-s}: the head
    sum_{n<terms} (n+a)^{-s} plus the boundary terms at base = terms+a
    with m <= EM_ORDER_MAX Bernoulli corrections.  Raises DomainError,
    naming the caller's cutoff as N=n_cut, if n_cut > MAX_TERMS, if
    Backlund's premises base > |t|/2pi and sigma+2m+1 > 0 fail, if the
    sum overflows a double, or if his bound |s+2m+1|/(sigma+2m+1)
    |T_{m+1}| on the truncation error (T_{m+1} the first omitted term)
    exceeds EM_TOL max(1, |value|).  s is finite, so only the value and
    what is computed from it can be NaN; those checks fail on a NaN.

    For a = 1 and at least _SMOOTH_MIN_TERMS terms, the head is summed
    over the integers coprime to 30 (_factored_head), with about a
    quarter of the complex exps.  The two sums differ by roundoff only:
    1.1e-11 max(1, |head|) at 2688 terms and s = 1/2 + 9000i, 2.4e-11 at
    -2 + 8000i.  Shorter heads and a != 1 sum term by term.

    The bound does not cover rounding in the head sum.  Left of the
    critical strip, where the head terms grow, this also raises when
    the rounding estimate eps (base^{1-sigma}/(1-sigma) + 1) exceeds
    EM_TOL max(1, |value|).  That estimate is not a bound: it leaves out
    each term's phase rounding, about eps |t| log(n+a) relative, and
    under-reports the true error about 300-fold left of sigma = 0
    (6.6e-14 against 2.3e-11 relative at s = -1.882 + 8349.1i, a = 0.2).
    It catches gross cancellation, as at s = -10 + i."""
    base = terms + a
    _check_premises(s, base, n_cut, m)
    pw1 = base ** (1.0 - s)
    tail = pw1 / (s - 1.0) + 0.5 * pw1 / base
    inv2 = base ** -2.0
    poch = s
    pw = pw1 * inv2
    for k in range(m):
        tail += _EM_COEF[k] * poch * pw
        pw *= inv2
        poch *= (s + (2 * k + 1)) * (s + (2 * k + 2))
    _check_finite(s, a, tail)
    if a == 1.0 and terms >= _SMOOTH_MIN_TERMS:
        head = _factored_head(s, terms)
    else:
        ns = np.arange(0, terms, dtype=float) + a
        head = complex(_powers(ns, -s).sum())
    value = head + tail
    _check_bounds(s, base, n_cut, m, value, _EM_COEF[m] * poch * pw)
    return value


def _em_jet(s: complex, terms: int, n_cut: int,
            m: int) -> tuple[complex, complex]:
    """_em_sum(s, 1.0, terms, n_cut, m) and its derivative in s, from
    the same checks and head exps: the value is _em_sum's bit for bit,
    and raises where _em_sum raises, as _em_sum raises, and where the
    derivative overflows a double, as within about 1e-154 of the pole.

    The head's derivative is -sum_n log n n^{-s}, a product and a sum
    over the terms the value already holds, or for a factored head
    (_factored_jet) a second cumulative sum beside W.  Each tail term is
    a Pochhammer product times base^{-s-2k-1}; the derivative of the
    power is -log(base) times the term, so the tail's derivative is
    -log(base) tail plus the terms with each product replaced by its
    derivative, which the loop carries beside the product, and the
    derivative -base^{1-s}/(s-1)^2 of the first term's quotient.  The
    Backlund bound certifies the value only: the derivative has no
    bound of its own.  Its error follows the value's, from the same
    head terms: at 120 seeded points with |t| up to 1e4 it is within
    1.2e-11 max(1, |zeta'|) of mpmath right of sigma = 0 and 3.2e-11
    left of it."""
    base = terms + 1.0
    _check_premises(s, base, n_cut, m)
    pw1 = base ** (1.0 - s)
    lead = pw1 / (s - 1.0)
    tail = lead + 0.5 * pw1 / base
    # Divided twice: (s - 1)^2 underflows to 0 within 1e-162 of the pole.
    rest = -lead / (s - 1.0)
    inv2 = base ** -2.0
    poch, dpoch = s, 1.0
    pw = pw1 * inv2
    for k, coef in enumerate(_EM_COEF[:m]):
        tail += coef * poch * pw
        rest += coef * dpoch * pw
        pw *= inv2
        lo, hi = s + (2 * k + 1), s + (2 * k + 2)
        factor = lo * hi
        dpoch = dpoch * factor + poch * (lo + hi)
        poch *= factor
    _check_finite(s, 1.0, tail)
    if terms >= _SMOOTH_MIN_TERMS:
        head, dhead = _factored_jet(s, terms)
    else:
        logs = np.log(np.arange(0, terms, dtype=float) + 1.0)
        powers = np.exp(-s * logs)
        head = complex(powers.sum())
        dhead = -complex((logs * powers).sum())
    value = head + tail
    _check_bounds(s, base, n_cut, m, value, _EM_COEF[m] * poch * pw)
    slope = dhead + rest - math.log(base) * tail
    if not cmath.isfinite(slope):
        raise DomainError(
            f"Euler-Maclaurin derivative at s={s} overflows a double")
    return value, slope


def _check_premises(s: complex, base: float, n_cut: int, m: int) -> None:
    """_em_sum's refusals before its complex powers: N above MAX_TERMS,
    and a failed premise of Backlund's bound."""
    if n_cut > MAX_TERMS:
        raise DomainError(f"N={n_cut} exceeds MAX_TERMS={MAX_TERMS}")
    if base <= abs(s.imag) / TWO_PI or 2 * m + 1 + s.real <= 0.0:
        raise DomainError(
            f"N={n_cut} at s={s} fails the premises of the Backlund bound: "
            f"cutoff above |Im s|/2pi={abs(s.imag) / TWO_PI:.1f}, "
            f"Re s > {-2 * m - 1}"
        )


def _check_finite(s: complex, a: float, tail: complex) -> None:
    """_em_sum's overflow refusal, before numpy sums the head, where an
    overflow would warn.  The Pochhammer product overflows, leaving a
    NaN tail, long before sigma log(n+a) can; right of sigma = 0 the
    largest head term is a^-s.  Past this check head and tail are
    finite, and so is their sum."""
    if not cmath.isfinite(tail) or (
            s.real > _SIGMA_HEAD_SAFE
            and -s.real * math.log(a) > _LOG_FLOAT_MAX):
        raise DomainError(
            f"Euler-Maclaurin sum at s={s}, a={a} overflows a double")


def _check_bounds(s: complex, base: float, n_cut: int, m: int,
                  value: complex, omitted: complex) -> None:
    """_em_sum's refusals of a value: Backlund's bound on the first
    omitted term, and left of sigma = 0 the head's rounding estimate,
    each above EM_TOL max(1, |value|)."""
    bound = abs(s + (2 * m + 1)) / (2 * m + 1 + s.real) * abs(omitted)
    limit = EM_TOL * max(1.0, abs(value))
    if not bound <= limit:
        raise DomainError(
            f"N={n_cut} leaves an Euler-Maclaurin truncation bound of "
            f"{bound:.1e} at s={s}, above EM_TOL={EM_TOL:g} relative"
        )
    if s.real < 0.0:
        sigma1 = 1.0 - s.real
        rounding = _EPS * (base ** sigma1 / sigma1 + 1.0)
        if not rounding <= limit:
            raise DomainError(
                f"Euler-Maclaurin head sum at s={s} carries rounding error "
                f"up to {rounding:.1e}, above EM_TOL={EM_TOL:g} relative"
            )


def _c_prod(ar, ai, br, bi):
    """Complex product on real and imaginary float arrays, as CPython
    computes it: (ar br - ai bi, ar bi + ai br).  numpy's complex
    multiply fuses some of these operations and differs in the last
    bit."""
    return ar * br - ai * bi, ar * bi + ai * br


def _c_quot(ar, ai, br, bi):
    """Complex quotient for b != 0 on real and imaginary float arrays,
    as CPython computes it: Smith's method, dividing by the denominator
    where numpy's complex division multiplies by its reciprocal."""
    with np.errstate(divide="ignore", invalid="ignore"):
        wide = np.abs(br) >= np.abs(bi)
        ratio = np.where(wide, bi / br, br / bi)
        denom = np.where(wide, br + bi * ratio, br * ratio + bi)
        return (np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom,
                np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom)


def _em_sum_many(s: np.ndarray, a: np.ndarray, terms: np.ndarray, m: int,
                 table: tuple[np.ndarray, ...] | None) -> np.ndarray:
    """_em_sum at every point of the 1-D complex array s for each offset
    of the 1-D float array a: row k of the result holds the values for
    a[k].  Point i sums terms[i] head terms with m Bernoulli
    corrections.  The caller has refused every point where _em_sum
    would raise before forming a complex power: a cutoff N above
    MAX_TERMS or a failed Backlund premise, and every point with a head
    exponent above _EXP_SPLIT_MAX, so no head term overflows.  The
    column of a point where _em_sum would raise later is NaN: an
    overflow, or a Backlund bound or left-of-strip rounding estimate
    above EM_TOL.

    The tail is elementwise numpy over the points in the scalar's
    operations and order: base^(1-s) is Python's complex power at each
    point, and complex products and quotients follow CPython's formulas
    (_c_prod, _c_quot).  The Pochhammer products, which do not depend on
    a, are formed once, each order's factor in that order's step.  The
    heads (_add_heads) take each term as a weight times a phase, shared
    by the points of one sigma and of one height.  A zeta call (a = [1])
    whose longest head has at least _SMOOTH_MIN_TERMS terms passes that
    head's _factor_table as table, and its heads from that length on
    are factored from it, as _em_sum factors them; every other call
    passes None, and its heads are summed term by term.  Each row's
    terms and their sum are the scalar head's."""
    base = terms + a[:, None]
    # The tails' temporaries are freed before the heads, where a point
    # block peaks in memory.
    value, bound = _em_tails(s, base, m)
    # What overflows here leaves a value that is not finite, refused
    # below as the scalar refuses it.
    with np.errstate(all="ignore"):
        _add_heads(value, s.real, s.imag, a, terms, table)
        limit = EM_TOL * np.maximum(1.0, np.abs(value))
        sigma1 = 1.0 - s.real
        rounding = np.where(s.real < 0.0,
                            _EPS * (base ** sigma1 / sigma1 + 1.0), 0.0)
        ok = np.isfinite(value) & (bound <= limit) & (rounding <= limit)
    value[:, ~ok.all(axis=0)] = np.nan
    return value


def _em_tails(s: np.ndarray, base: np.ndarray, m: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """The tails of _em_sum_many at the points s, row k at the cutoffs
    base[k], with m Bernoulli corrections, and the Backlund bound of each;
    what overflows is left not finite."""
    sr, si = s.real, s.imag
    edge = 2 * m + 1 + sr
    rows = base.tolist()
    expo = (1.0 - s).tolist()
    pw1 = np.array([[b ** e for b, e in zip(row, expo)] for row in rows],
                   dtype=complex).reshape(base.shape)
    inv2 = np.array([[b ** -2.0 for b in row] for row in rows]
                    ).reshape(base.shape)
    with np.errstate(all="ignore"):
        tr, ti = _c_quot(pw1.real, pw1.imag, sr - 1.0, si)
        tr = tr + 0.5 * pw1.real / base
        ti = ti + 0.5 * pw1.imag / base
        wr, wi = pw1.real * inv2, pw1.imag * inv2
        cr, ci = sr, si
        for k in range(m):
            ur, ui = _c_prod(_EM_COEF[k] * cr, _EM_COEF[k] * ci, wr, wi)
            tr, ti = tr + ur, ti + ui
            wr, wi = wr * inv2, wi * inv2
            # The factor (s+2k+1)(s+2k+2) of the Pochhammer products,
            # formed in order k's step, so that one order's are held.
            fr, fi = _c_prod(sr + (2 * k + 1), si, sr + (2 * k + 2), si)
            cr, ci = _c_prod(cr, ci, fr, fi)
        value = np.empty(base.shape, dtype=complex)
        value.real, value.imag = tr, ti
        omitted = np.empty(base.shape, dtype=complex)
        omitted.real, omitted.imag = _c_prod(
            _EM_COEF[m] * cr, _EM_COEF[m] * ci, wr, wi)
        return value, np.abs(s + (2 * m + 1)) / edge * np.abs(omitted)


def _add_heads(value: np.ndarray, sr: np.ndarray, si: np.ndarray,
               a: np.ndarray, terms: np.ndarray,
               table: tuple[np.ndarray, ...] | None) -> None:
    """Add sum_{n<terms[i]} (n+a[k])^{-s} to value[k, i] at the points
    s = sr[i] + i si[i], each head as _em_sum sums it, bit for bit.  A
    call is a zeta call, a = [1], whose heads of at least
    _SMOOTH_MIN_TERMS terms are factored by table (the _factor_table of
    the longest, None where none is that long), or a Hurwitz call, every
    a below 1 and table None, whose heads are all summed term by term.

    Each term (n+a)^{-s} is split as the weight (n+a)^{-sigma} times the
    phase e^{-it log(n+a)}: glibc's cexp(x+iy) is exp(x) cos y + i
    exp(x) sin y for x <= _EXP_SPLIT_MAX, so the real weight exp(x+0i)
    times each part of the phase exp(0+iy) is the scalar's term exactly
    (_em_block refuses the points beyond).  For each offset the call
    takes one weight row per distinct sigma, told apart by its bits, as
    long as the longest head of that sigma (_weight_tables), so the
    sides of a contour share every weight row.  Where those rows would
    pass _WEIGHT_BLOCK elements the sigmas are split into consecutive
    groups (_sigma_groups); a contour or a family is one group.  A
    group's points go in height order, in chunks within _HEAD_BLOCK
    (_height_chunks), and for each offset a chunk takes one phase row
    per distinct height, also told apart by its bits, as long as the
    longest head there, so all sigma and all head lengths at one height
    share one phase row.  Each head is the product of its two rows'
    first columns (_products), summed term by term (_plain_sums) or,
    for a factored head, as a row of _factored_head's expression on the
    split of its length, cut from table by _last_smooth
    (_factored_sums).  A chunk's heads (_chunk_heads) are built as the
    chunk is summed where the call has one offset, and dropped after;
    the four offsets of a mod-5 call build them once and share them.

    Every table and row block is a view of one _HeadSpace, allocated
    once per call: 32 B per element of the largest chunk, 48 B where
    heads are factored, at most 768 KB (_HEAD_BLOCK elements) unless one
    point alone is wider, and 16 B per element of the largest group's
    weight tables, at most 2 MB unless one sigma alone is wider."""
    reads = _reads(terms, table)
    columns = sum(reads[1:], reads[0])
    keys = sr.view(np.int64)
    # One sigma skips np.unique, which cost a one-member family on 46
    # nodes 12-16 us of heads, 2.5-2.8% of its call (2-vCPU Xeon).
    if (keys == keys[0]).all():
        sigmas, sigma_of = sr[:1], np.zeros(sr.size, dtype=np.intp)
    else:
        keys, sigma_of = np.unique(keys, return_inverse=True)
        sigmas = keys.view(float)
    widths = _weight_widths(reads, sigma_of, sigmas.size)
    tops = widths.max(axis=1).tolist()
    plain_logs = [np.log(np.arange(tops[0], dtype=float) + offset)
                  for offset in a.tolist()]
    groups, table_size = _sigma_groups(widths, tops)
    widest = int(columns.max())
    space = _HeadSpace(max(widest, min(_HEAD_BLOCK, terms.size * widest)),
                       table_size, table is not None)
    order = np.argsort(si, kind="stable")
    for group in groups:
        points = order
        if len(groups) > 1:
            points = order[(sigma_of[order] >= group.start)
                           & (sigma_of[order] < group.stop)]
            # Each table as wide as the group's widest row.
            tops = widths[:, group].max(axis=1).tolist()
        chunks = _chunk_heads(points, si, sigma_of, group.start, terms,
                              reads, columns)
        if a.size > 1:
            # The offsets sum the same chunks: build their heads once.
            chunks = list(chunks)
        sums = np.empty(points.size, dtype=complex)
        for k, logs in enumerate(plain_logs):
            plain, c, m = _weight_tables(
                space, sigmas[group], widths[:, group], tops,
                [logs] + (list(table[2:]) if table is not None else []))
            for chunk, cut, plain_heads, factored_heads in chunks:
                if plain_heads:
                    _plain_sums(sums[chunk][:cut], space, plain_heads, plain,
                                logs)
                if factored_heads:
                    _factored_sums(sums[chunk][cut:], space, factored_heads,
                                   c, m, table)
            value[k, points] += sums


def _chunk_heads(points: np.ndarray, si: np.ndarray, sigma_of: np.ndarray,
                 first: int, terms: np.ndarray, reads: list[np.ndarray],
                 columns: np.ndarray) -> Iterator[tuple]:
    """The chunks of points (indices in height order, of a sigma group
    from sigma first) and the heads of each, as _add_heads sums them:
    the chunk's slice, the number of plain heads, and the _Heads of the
    plain and of the factored, None where there are none.  A chunk's
    points are put in length order in points itself as the chunk is
    made, one chunk per step, so a caller that sums each chunk as it
    comes holds the heads of one chunk at a time."""
    for chunk in _height_chunks(si[points], columns[points]):
        # Heights come in runs; 0.0 and -0.0, equal in the order, may
        # alternate, and then take a row per run.
        idx = points[chunk]
        keys = si[idx].view(np.int64)
        rise = np.concatenate(([True], keys[1:] != keys[:-1]))
        ts = keys[rise].view(float)
        # Then by length, so that the heads of each length, and the
        # factored heads, the longest, are runs of rows.
        by_length = np.argsort(terms[idx], kind="stable")
        idx = points[chunk] = idx[by_length]
        h = (np.cumsum(rise) - 1)[by_length]
        s, n = sigma_of[idx] - first, terms[idx]
        # The c and the m each head reads, 0 for a plain head: the
        # factored heads, the longest, come last.
        split = [r[idx] for r in reads[1:]]
        cut = idx.size - (np.count_nonzero(split[0]) if split else 0)
        yield (chunk, cut,
               _Heads(ts, h[:cut], s[:cut], n[:cut], [n[:cut]])
               if cut else None,
               _Heads(ts, h[cut:], s[cut:], n[cut:],
                      [c[cut:] for c in split])
               if cut < idx.size else None)


class _Heads:
    """Heads of one chunk that sum alike, term by term or factored, in
    length order, and what their sums read at every offset: each head's
    height row h and sigma row s, its length n and the runs of one
    length; and for each table of logs they read (the terms, or the c
    and the m of the splits) each head's columns and each height's
    widest."""

    def __init__(self, ts: np.ndarray, h: np.ndarray, s: np.ndarray,
                 n: np.ndarray, columns: list[np.ndarray]):
        self.ts, self.h, self.s, self.n = ts, h, s, n
        self.runs = list(_runs(n))
        self.columns, self.widths = columns, []
        for cols in columns:
            widest = np.zeros(ts.size, dtype=int)
            np.maximum.at(widest, h, cols)
            self.widths.append(widest)


def _reads(terms: np.ndarray,
           table: tuple[np.ndarray, ...] | None) -> list[np.ndarray]:
    """The columns the heads of terms terms read, one array per table of
    logs: [terms] where table is None, else the terms of each head summed
    term by term and the c and the m of the split of each head of at
    least _SMOOTH_MIN_TERMS terms, each 0 where the head is summed the
    other way."""
    if table is None:
        return [terms]
    factored = terms >= _SMOOTH_MIN_TERMS
    return [np.where(factored, 0, terms)] + [
        np.where(factored, np.searchsorted(split, terms, "right"), 0)
        for split in table[:2]]


def _weight_widths(reads: list[np.ndarray], sigma_of: np.ndarray,
                   count: int) -> np.ndarray:
    """The widths of the weight rows of each distinct sigma i (that of
    the heads with sigma_of i), column i: in row j the most columns its
    heads read of table j (_reads)."""
    widths = np.zeros((len(reads), count), dtype=int)
    for row, cols in zip(widths, reads):
        np.maximum.at(row, sigma_of, cols)
    return widths


def _sigma_groups(widths: np.ndarray,
                  tops: list[int]) -> tuple[list[slice], int]:
    """Slices of the distinct sigmas, the columns of widths (the
    _weight_widths, whose rows' maxima are tops), into consecutive
    groups whose weight tables, one row per sigma, each table as wide as
    its widest row, hold at most _WEIGHT_BLOCK elements, or of one sigma
    where its rows alone hold more; and the most elements a group's
    tables hold."""
    count = widths.shape[1]
    whole = count * sum(tops)
    # One group skips the scan below, which cost a one-member family on
    # 46 nodes 9-12 us of heads, 0.5-1.7% of its call (2-vCPU Xeon).
    if whole <= _WEIGHT_BLOCK:
        return [slice(0, count)], whole
    groups, most, lo = [], 0, 0
    while lo < count:
        row = np.maximum.accumulate(widths[:, lo:], axis=1).sum(axis=0)
        size = np.arange(1, row.size + 1) * row
        hi = max(1, int(np.count_nonzero(size <= _WEIGHT_BLOCK)))
        groups.append(slice(lo, lo + hi))
        most = max(most, int(size[hi - 1]))
        lo += hi
    return groups, most


def _weight_tables(space: _HeadSpace, sigmas: np.ndarray,
                   widths: np.ndarray, tops: list[int],
                   logs: list[np.ndarray]) -> list[np.ndarray | None]:
    """The weight rows of sigmas for one offset, one table of space's
    weight after another, table j over logs[j] (the plain heads' logs,
    and for factored heads the logs of the c and of the m): row i as
    long as widths[j, i] (_weight_widths), the table as wide as tops[j];
    None for a table no head reads, and for the c and the m where no
    head is factored."""
    tables, at = [None] * 3, 0
    for j, (width, cols, logs) in enumerate(zip(widths, tops, logs)):
        if cols:
            tables[j] = _weights(sigmas, logs[:cols], width, _block(
                space.weight[at:], sigmas.size, cols))
            at += sigmas.size * cols
    return tables


class _HeadSpace:
    """The buffers of one _add_heads call, from which each chunk carves
    its tables and row blocks (_block): a fresh array of this size would
    come from fresh pages, whose first touch costs about as much as the
    exps the split saves.  phase holds a chunk's phase tables, terms its
    row blocks of head terms, scratch, only where heads are factored,
    their cumulative sums gathered at each c; weight holds a sigma
    group's weight tables for one offset."""

    def __init__(self, size: int, table_size: int, factored: bool):
        self.phase, self.terms = np.empty((2, size), dtype=complex)
        self.scratch = np.empty(size if factored else 0, dtype=complex)
        self.weight = np.empty(table_size, dtype=complex)


def _block(flat: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols elements of flat as a rows x cols array."""
    return flat[:rows * cols].reshape(rows, cols)


def _height_chunks(ts: np.ndarray, widths: np.ndarray) -> list[slice]:
    """Slices of the points in height order (ts ascending) into chunks
    whose point count times widest point stays within _HEAD_BLOCK, or
    of one point where that point alone is wider.  A chunk ends where a
    run of one height starts, wherever one starts inside it, so a run
    that fits in a chunk is never split."""
    keys = ts.view(np.int64)
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    chunks, lo = [], 0
    while lo < ts.size:
        widest = np.maximum.accumulate(
            widths[lo:lo + _HEAD_BLOCK // widths[lo]])
        hi = lo + max(1, int(np.count_nonzero(
            np.arange(1, widest.size + 1) * widest <= _HEAD_BLOCK)))
        if hi < ts.size:
            j = np.searchsorted(starts, hi, "right")
            if j and starts[j - 1] > lo:
                hi = int(starts[j - 1])
        chunks.append(slice(lo, hi))
        lo = hi
    return chunks


def _runs(n: np.ndarray) -> Iterator[tuple[int, int]]:
    """(start, stop) of each run of equal values of n."""
    cuts = (np.flatnonzero(n[1:] != n[:-1]) + 1).tolist()
    return zip([0] + cuts, cuts + [n.size])


def _plain_sums(out: np.ndarray, space: _HeadSpace, heads: _Heads,
                weight: np.ndarray, logs: np.ndarray) -> None:
    """out[i] = sum_{j<n[i]} e^{-(sigma + it) logs[j]} for the plain
    heads at t = ts[h[i]], with e^{-sigma logs} from row s[i] of weight,
    summed term by term as _em_sum sums it."""
    terms = _products(space, 0, _phase_table(space, 0, heads, 0, logs),
                      weight, heads)
    n = heads.n
    for lo, hi in heads.runs:
        out[lo:hi] = terms[lo:hi, :n[lo]].sum(axis=1)


def _factored_sums(out: np.ndarray, space: _HeadSpace, heads: _Heads,
                   c_weight: np.ndarray, m_weight: np.ndarray,
                   table: tuple[np.ndarray, ...]) -> None:
    """As _plain_sums, for zeta heads (_Heads split by the c and the m of
    table) each a row of _factored_head's expression on the split of its
    length, cut from table, with the weights of the c and of the m from
    c_weight and m_weight.  The phase table and row blocks of the
    5-smooth m follow those of the c in space; the c and the m up to a
    length are at most its columns."""
    coprime, smooth, coprime_log, smooth_log = table
    c_phase = _phase_table(space, 0, heads, 0, coprime_log)
    m_phase = _phase_table(space, c_phase.size, heads, 1, smooth_log)
    terms = _products(space, 0, c_phase, c_weight, heads)
    # A row's sums past its own m are never read.
    partial = _products(space, terms.size, m_phase, m_weight, heads)
    np.cumsum(partial, axis=1, out=partial)
    # The last m of each c, for every run's length at once.
    starts = [lo for lo, _ in heads.runs]
    lasts = _last_smooth(smooth, coprime[:terms.shape[1]],
                         heads.n[starts][:, None])
    for (lo, hi), last, c in zip(heads.runs, lasts,
                                 heads.columns[0][starts].tolist()):
        rows = terms[lo:hi, :c]
        rows *= np.take(partial[lo:hi], last[:c], axis=1, mode="clip",
                        out=_block(space.scratch, hi - lo, c))
        out[lo:hi] = rows.sum(axis=1)


def _phase_table(space: _HeadSpace, at: int, heads: _Heads, j: int,
                 logs: np.ndarray) -> np.ndarray:
    """The phase rows of the heads' heights over logs, their table j,
    from element at of space's phase on, each row as long as the widest
    head at its height."""
    widths = heads.widths[j]
    logs = logs[:widths.max()]
    return _phases(heads.ts, logs, widths,
                   _block(space.phase[at:], widths.size, logs.size))


def _phases(ts: np.ndarray, logs: np.ndarray, widths: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """e^{-i t logs} for each t of ts, in row j of out over the first
    widths[j] logs (the rest of the row holds its exponent): the complex
    exp of 0 - i t log, with -t log as the scalar's exp(-s log) forms
    it."""
    out.real = 0.0
    np.multiply.outer(-ts, logs, out=out.imag)
    return np.exp(out, out=out, where=_within(widths, logs.size))


def _weights(sigmas: np.ndarray, logs: np.ndarray, widths: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """exp(-sigma logs) for each sigma of sigmas, in row j of out over the
    first widths[j] logs (the rest of the row holds its exponent), in
    both the real and the imaginary part, so that one real multiply
    scales a phase's cos and sin alike.  Each is the real part of the
    complex exp of -sigma log + 0i: numpy's real exp is a SIMD kernel
    that differs from glibc's in the last bit."""
    out.imag = 0.0
    np.multiply.outer(-sigmas, logs, out=out.real)
    np.exp(out, out=out, where=_within(widths, logs.size))
    # The imaginary part, +0, plus the real part is the real part, with
    # no copy of the table, which assigning one part to the other makes.
    np.add(out.real, out.imag, out=out.imag)
    return out


def _within(widths: np.ndarray, cols: int) -> np.ndarray:
    """Which of cols columns lie within row j's first widths[j]."""
    return np.arange(cols) < widths[:, None]


def _products(space: _HeadSpace, at: int, phase: np.ndarray,
              weight: np.ndarray, heads: _Heads) -> np.ndarray:
    """Row i: weight row s[i] times phase row h[i] of the heads, part by
    part, as glibc's cexp multiplies exp(x) into cos y and sin y, over
    the phase's columns (weight is at least as wide), in space's terms
    from element at on.  Only the columns within both rows' widths are
    terms.  Both rows are gathered into contiguous blocks: np.take would
    first copy a table cut to fewer columns, so the weight rows are
    gathered by indexing, and a product with a broadcast or cut operand
    runs at half speed."""
    cols = phase.shape[1]
    rows = np.take(phase, heads.h, axis=0, mode="clip",
                   out=_block(space.terms[at:], heads.h.size, cols))
    np.multiply(rows.view(float), weight[heads.s, :cols].view(float),
                out=rows.view(float))
    return rows


def zeta_em(s: complex) -> complex:
    """Riemann zeta via Euler-Maclaurin summation, valid on C minus {1}.

    zeta(s) = sum_{n<N} n^{-s} + N^{1-s}/(s-1) + N^{-s}/2 + Bernoulli
    corrections, with N and their number m from _em_pair.  Raises
    DomainError where Backlund's bound does not certify the value (see
    _em_sum).
    """
    s = _require_finite(s, "s")
    if s == 1.0:
        raise PoleError("zeta has a pole at s=1")
    n_cut, m = _em_pair(s)
    return _em_sum(s, 1.0, n_cut - 1, n_cut, m)


def zeta_em_jet(s: complex) -> tuple[complex, complex]:
    """(zeta(s), zeta'(s)) from one Euler-Maclaurin sum: the value is
    zeta_em(s) bit for bit, and raises where zeta_em raises, as it
    raises, and where zeta'(s) overflows a double (DomainError), as
    within about 1e-154 of the pole.  The derivative takes the same
    pair, checks and head exps (_em_jet), at 1.4-1.6 times zeta_em's
    time (t from 100 to 9000 on sigma = 1/2, in process on a 2-vCPU
    Xeon); it agrees with mpmath's zeta(s, 1, 1) to about 3e-11
    max(1, |zeta'|) up to |t| = 1e4, but no bound certifies it."""
    s = _require_finite(s, "s")
    if s == 1.0:
        raise PoleError("zeta has a pole at s=1")
    n_cut, m = _em_pair(s)
    return _em_jet(s, n_cut - 1, n_cut, m)


def hurwitz_zeta(s: complex, a: float) -> complex:
    """Hurwitz zeta(s, a) = sum_{n>=0} (n+a)^{-s} for a in (0, 1].

    Same Euler-Maclaurin continuation as zeta_em with the cutoff shifted
    by a; hurwitz_zeta(s, 1) reduces to zeta_em(s).
    """
    s = _require_finite(s, "s")
    if not 0.0 < a <= 1.0:
        raise DomainError(f"hurwitz offset a must lie in (0, 1], got {a}")
    if s == 1.0:
        raise PoleError("hurwitz zeta has a pole at s=1")
    n_cut, m = _em_pair(s)
    return _em_sum(s, a, n_cut, n_cut, m)


def _rs_psi(p: float) -> float:
    """Leading Riemann-Siegel remainder coefficient.

    Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), with the removable
    singularities at p = 1/4 and p = 3/4 handled through an exact local
    rewrite (cos A0 = cos B0 = 0 there, so both cosines reduce to sines
    of the displacement).  Each singularity is tested in turn, with no
    loop, so the usual p far from both pays two comparisons.
    """
    if abs(p - 0.25) < 0.05:
        return _rs_psi_near(p, 0.25, -1.0)
    if abs(p - 0.75) < 0.05:
        return _rs_psi_near(p, 0.75, 1.0)
    return math.cos(TWO_PI * (p * p - p - 0.0625)) / math.cos(TWO_PI * p)


def _rs_psi_near(p: float, p0: float, sign: float) -> float:
    """_rs_psi within 0.05 of its removable singularity p0, 1/4 (sign
    -1) or 3/4 (sign +1)."""
    d = p - p0
    if d == 0.0:
        return 0.5
    # cos A = -sin(A0) sin(dA), cos B = -sin(B0) sin(dB) with
    # sin(A0) = -1 at both points and sin(B0) = +/-1.
    return sign * math.sin(TWO_PI * d * (p + p0 - 1.0)) / math.sin(TWO_PI * d)


@functools.lru_cache(maxsize=1)
def _rs_terms(n_main: int) -> tuple[tuple[float, float], ...]:
    """(log n, sqrt n) for n = 1, ..., n_main, read only by hardy_z_rs.
    Memoized by length, one entry: a scan keeps one N over long runs of
    heights."""
    return tuple((math.log(n), math.sqrt(n)) for n in range(1, n_main + 1))


def hardy_z_rs(t: float) -> float:
    """Hardy Z(t) by the Riemann-Siegel main sum, real by construction.

    2 sum_{n<=N} n^{-1/2} cos(theta(t) - t log n) with N = floor
    sqrt(t/2pi), plus the leading remainder term C0 (t/2pi)^(-1/4).
    theta is theta_asymptotic (no log-gamma), which keeps this route
    fully independent of the Euler-Maclaurin one; near 2*pi its error
    stays under 2.2e-9, far below the sum's own error of ~1e-2 there.
    From t = 200 on, the error is within Gabcke's bound 0.127 t^(-3/4)
    for this one remainder term (Gabcke 1979), which
    tests/data/hardy_z_references.txt checks at 200 heights in
    [200, 1e4].  Raises DomainError unless 2*pi <= t <= 1e50,
    theta_asymptotic's domain, under its own name and naming the
    Euler-Maclaurin route, and when N exceeds MAX_TERMS.

    log n and sqrt n come from _rs_terms, memoized by length, one entry,
    which the Euler-Maclaurin route never reads.  It keeps 112 B per
    term: about 4.4 KB up to t = 1e4 (N = 39), and 112 MB only at
    N = MAX_TERMS (t ~ 6.3e12).  Outside the N-term cosine sum a call
    takes few interpreter steps: N is int(root), which is floor(root)
    as root >= 1, and (-1)^(N-1) is read from N's parity; every
    floating-point operation and its order are as in the formula.
    """
    try:
        th = theta_asymptotic(t)
    except DomainError:
        raise DomainError(
            f"Riemann-Siegel Z needs 2*pi <= t <= 1e50, got t={t!r}; "
            "the Euler-Maclaurin route (generalized_hardy, --method em) "
            "also takes t below 2*pi") from None
    root = math.sqrt(t / TWO_PI)
    n_main = int(root)
    if n_main > MAX_TERMS:
        raise DomainError(f"riemann-siegel sum at t={t:g} exceeds MAX_TERMS")
    cos = math.cos
    acc = 0.0
    for log_n, sqrt_n in _rs_terms(n_main):
        acc += cos(th - t * log_n) / sqrt_n
    sign = 1.0 if n_main & 1 else -1.0
    return 2.0 * acc + sign * root ** -0.5 * _rs_psi(root - n_main)


def generalized_hardy(sigma: float, t: float) -> GeneralizedHardyValue:
    """Generalized Hardy function Z(sigma, t) and its perpendicular part.

    z = Re zeta(sigma+it) e^{i theta(t)}, y = Im of the same product,
    using the Euler-Maclaurin zeta and the exact theta.  On the critical
    line sigma = 1/2 the y component vanishes identically.
    """
    if sigma == 1.0 and t == 0.0:
        raise PoleError("zeta pole at sigma=1, t=0")
    val = zeta_em(complex(sigma, t)) * cmath.exp(1j * theta(t))
    return GeneralizedHardyValue(z=val.real, y=val.imag)


def _hardy_z_jet(t: float) -> tuple[float, float]:
    """Z(t) and Z'(t) on the Euler-Maclaurin route, from one zeta_em_jet
    call and the exact theta: Z is generalized_hardy(0.5, t).z bit for
    bit.  On the critical line e^{i theta} zeta(1/2+it) is real, so the
    theta' term of its derivative, i theta' e^{i theta} zeta, is
    imaginary and Z'(t) = -Im e^{i theta} zeta'(1/2+it): no theta' is
    taken."""
    zeta, slope = zeta_em_jet(complex(0.5, t))
    phase = cmath.exp(1j * theta(t))
    return (zeta * phase).real, -(slope * phase).imag


def _hardy_z_family(sigmas: Sequence[float], ts: np.ndarray) -> np.ndarray:
    """generalized_hardy(sigmas[k], ts[j]).z at row k, column j, bit for
    bit, for the 1-D float array ts; NaN where generalized_hardy would
    raise.  The caller takes those points, and only those, through
    generalized_hardy, which raises its own error.

    zeta comes from one _em_blocks pass over all the points
    sigmas[k] + i ts[j], as zeta_em sums it, factored heads included
    (from t ~ 653 on sigma = 1/2), with no zeta_em call.  The heads take
    e^{-it log n} once per node for all K sigma, as long as the longest
    head there, and n^{-sigma_k} once per sigma in the call
    (_add_heads): a K = 3 family takes 10.2 thousand phase exps and
    333 weight exps (hilbert-study's first pass, seed 101, mean per
    call).  theta is taken once per node through the scalar theta, at
    the nodes where some row is accepted, and e^{i theta} as one numpy
    complex exp of 0 + i theta over those values: glibc's cexp there is
    cos theta + i sin theta, as cmath.exp forms it.  Each value is
    Re zeta Re e^{i theta} - Im zeta Im e^{i theta} on the arrays, the
    real part of CPython's complex product (_c_prod), as
    generalized_hardy forms it.  A block of points holds under 1.1 KB a
    point (tracemalloc peak): 394 B for a block of Z(1/2, .) at
    t = 9000."""
    points = np.empty((len(sigmas), ts.size), dtype=complex)
    points.real = np.asarray(sigmas, dtype=float)[:, None]
    points.imag = ts
    zetas = np.empty(points.size, dtype=complex)
    for span, values in _em_blocks(points.ravel()):
        zetas[span] = values[0]
    zetas = zetas.reshape(points.shape)
    refused = np.isnan(zetas)
    accepted = ~refused.all(axis=0)
    phases = np.zeros(ts.size, dtype=complex)
    phases.imag[accepted] = [theta(t) for t in ts[accepted].tolist()]
    np.exp(phases, out=phases)
    out = zetas.real * phases.real - zetas.imag * phases.imag
    out[refused] = math.nan
    return out


_N_MAX = "n_max (at most MAX_TERMS)"


def dirichlet_partial_sums(s: complex, n_max: int) -> SpiralPath:
    """Partial sums of the Dirichlet series sum n^{-s} and their midpoints.

    The segment points[k] - points[k-1] is the (k+1)-st term, of modulus
    (k+1)^{-sigma}; midpoints trace the inverse spiral.  n_max is an
    integer in [1, MAX_TERMS]; anything else, a float included, raises
    DomainError.
    """
    s = _require_finite(s, "s")
    n_max = _require_count(n_max, _N_MAX, 1, MAX_TERMS)
    ns = np.arange(1, n_max + 1, dtype=float)
    terms = _powers(ns, -s)
    points = np.cumsum(terms)
    midpoints = 0.5 * (points[:-1] + points[1:])
    return SpiralPath(points=points, midpoints=midpoints)


def residue_identity_residual(s: complex, n_max: int) -> float:
    """Defect of the residue identity linking zeta to its mirror series.

    Compares 2 sin(pi s) Gamma(s) zeta(s) -- computed stably as
    2 pi zeta(s) / Gamma(1-s) -- against the truncated series
    (2 pi)^s sum_{n<=n_max} n^{s-1} ((-i)^{s-1} + i^{s-1}), which
    converges for Re s < 0.  Returns |LHS - RHS|.  n_max is an integer
    in [1, MAX_TERMS]; anything else, a float included, raises
    DomainError before zeta is evaluated.
    """
    s = _require_finite(s, "s")
    if s.real >= 0.0:
        raise DomainError(f"residue identity series needs Re s < 0, got {s}")
    n_max = _require_count(n_max, _N_MAX, 1, MAX_TERMS)
    lhs = TWO_PI * zeta_em(s) * cmath.exp(-log_gamma(1.0 - s))
    ns = np.arange(1, n_max + 1, dtype=float)
    series = complex(np.sum(_powers(ns, s - 1.0)))
    # (-i)^{s-1} + i^{s-1} with principal powers; constant in n.
    mirror = cmath.exp((s - 1.0) * complex(0.0, -0.5 * math.pi)) + cmath.exp(
        (s - 1.0) * complex(0.0, 0.5 * math.pi)
    )
    rhs = cmath.exp(s * math.log(TWO_PI)) * series * mirror
    return abs(lhs - rhs)


def _em_blocks(points: np.ndarray, offsets: np.ndarray | None = None
               ) -> Iterator[tuple[slice, np.ndarray]]:
    """The batched Euler-Maclaurin core of zeta, the mod-5 L-function and
    Davenport-Heilbronn.  For each block of at most _POINT_BLOCK points
    of the 1-D complex array points, yields the block's slice and its
    _em_sum values: with no offsets one row, zeta_em's, each point
    summing N - 1 head terms; else row k for offsets[k], each below 1,
    hurwitz_zeta's, each point summing N.  Each point takes its (N, m)
    from _em_pair, one _em_sum_many pass over the block's points of
    each m.  A zeta block whose longest head reaches _SMOOTH_MIN_TERMS
    terms reads _factor_split once, for that head, and cuts the others'
    splits from it; no Hurwitz head is factored.

    The column of a point the scalar would refuse is NaN: a NaN or
    infinity, the pole s = 1, or a point where _em_pair or _em_sum would
    raise, for any offset.  So is the column of a point whose largest
    head exponent, -sigma log(n+a) at the least or the largest base,
    exceeds _EXP_SPLIT_MAX, where the split heads would not be the
    scalar's: only a mod-5 point at sigma in (440.5, 441) is accepted by
    the scalar there, as zeta's Backlund premise holds only right of
    sigma = -41.  The caller takes those points, and only those, through
    its scalar path, which raises its own error or returns the value.
    A cutoff N above MAX_TERMS is refused as _em_sum refuses it,
    whatever the head length (the zeta cutoff N = MAX_TERMS + 1 sums
    only MAX_TERMS terms), and with a failed Backlund premise before any
    complex power, head or factor table is formed for the point."""
    for i in range(0, points.size, _POINT_BLOCK):
        block = points[i:i + _POINT_BLOCK]
        yield slice(i, i + block.size), _em_block(block, offsets)


def _em_block(points: np.ndarray, offsets: np.ndarray | None
              ) -> np.ndarray:
    """One block of _em_blocks."""
    zeta = offsets is None
    if zeta:
        offsets = np.ones(1)
    # A point refused before its pair takes a cutoff above MAX_TERMS, and
    # is refused below with those _em_pair gives.
    refused = (MAX_TERMS + 1, EM_ORDER)
    pairs = []
    for z in points.tolist():
        try:
            pairs.append(_em_pair(z) if cmath.isfinite(z) and z != 1.0
                         else refused)
        except DomainError:
            pairs.append(refused)
    n, m = map(np.array, zip(*pairs))
    # About 100 B a point, freed before the sums.
    del pairs
    terms = n - 1 if zeta else n
    # What _em_sum refuses before its complex powers: N above MAX_TERMS
    # and a failed Backlund premise.  And a point whose largest head
    # exponent -sigma log(n+a), at the least or the largest base, exceeds
    # _EXP_SPLIT_MAX, where the split heads (_add_heads) stop being
    # exact; the scalar path takes it.  NaN and infinite points, refused
    # already, may warn here.
    with np.errstate(all="ignore"):
        exponent = np.maximum(
            -points.real * np.log(offsets.min()),
            -points.real * np.log(terms - 1 + offsets.max()))
    accepted = ((n <= MAX_TERMS) & (2 * m + 1 + points.real > 0.0)
                & (terms + offsets.min() > np.abs(points.imag) / TWO_PI)
                & (exponent <= _EXP_SPLIT_MAX))
    longest = int(terms.max(initial=0, where=accepted))
    table = (_factor_table(longest)
             if zeta and longest >= _SMOOTH_MIN_TERMS else None)
    values = np.full((offsets.size, points.size), np.nan, dtype=complex)
    for order in (EM_ORDER, EM_ORDER_MAX):
        idx = np.flatnonzero(accepted & (m == order))
        if idx.size:
            values[:, idx] = _em_sum_many(points[idx], offsets, terms[idx],
                                          order, table)
    return values


def _mod5_series(s: complex | np.ndarray,
                 coeffs: dict[int, complex | float]) -> complex | np.ndarray:
    """5^{-s} sum_{a=1..4} coeffs[a] zeta(s, a/5): the Dirichlet series
    whose coefficients repeat with period 5 as coeffs[1..4], 0.

    A scalar s takes four hurwitz_zeta calls and returns a complex.  An
    ndarray s returns a complex array of its shape, from the Hurwitz
    values of _em_blocks, with no hurwitz_zeta call at the points they
    accept.  Their heads take each e^{-it log(n+a/5)} once per height in
    a chunk and each (n+a/5)^{-sigma} once per sigma in the call
    (_add_heads), so the sides of a contour share them: a dh-winding box
    takes 40.5 thousand phase exps and 45.9 thousand weight exps where a
    complex exp a term would take 157.0 thousand (first pass, seed 101,
    mean per task).  The points they refuse (NaN, an infinity, the pole
    s = 1, any other point hurwitz_zeta would refuse, and a head
    exponent above _EXP_SPLIT_MAX), and only those, go through the
    scalar branch in point order, which raises the scalar's error for
    the first point it refuses.  A block holds under 1 KB a point on
    either pair (tracemalloc peak), so the memory of a call stays near
    16 MB however many points it takes."""
    if not isinstance(s, np.ndarray):
        total = 0.0 + 0.0j
        for a, c in coeffs.items():
            total += c * hurwitz_zeta(s, a / 5.0)
        return cmath.exp(-s * math.log(5.0)) * total
    points = s.astype(complex).ravel()
    offsets = np.array([a / 5.0 for a in coeffs])
    out = np.empty(points.shape, dtype=complex)
    for span, values in _em_blocks(points, offsets):
        out[span] = _mod5_block(points[span], values, coeffs)
    for i in np.flatnonzero(np.isnan(out)).tolist():
        out[i] = _mod5_series(complex(points[i]), coeffs)
    return out.reshape(s.shape)


def _mod5_block(points: np.ndarray, values: np.ndarray,
                coeffs: dict[int, complex | float]) -> np.ndarray:
    """_mod5_series at every point of the 1-D complex array points, from
    their Hurwitz values at the offsets a/5 (rows, in the order of
    coeffs).  It repeats the scalar's operations in the scalar's order,
    so each value is the scalar's bit for bit where numpy's complex exp
    agrees with cmath.exp and CPython's complex arithmetic is unfused,
    as with glibc on x86-64; elsewhere they differ by roundoff."""
    total = 0.0 + 0.0j
    for c, h in zip(coeffs.values(), values):
        total = total + c * h
    # A refused point's NaN stays NaN, however its scale overflows.
    with np.errstate(all="ignore"):
        scale = np.exp(-points * math.log(5.0))
        out = np.empty(points.shape, dtype=complex)
        out.real, out.imag = _c_prod(scale.real, scale.imag, total.real,
                                     total.imag)
    return out


def dirichlet_l_mod5(s: complex | np.ndarray) -> complex | np.ndarray:
    """Dirichlet L for the odd mod-5 character with chi(2)=i.

    L(s, chi) = 5^{-s} sum_{a=1..4} chi(a) zeta(s, a/5).  The conjugate
    character's L-function follows as L(s, chi-bar) = conj(L(conj(s), chi)).
    Takes a complex, or an ndarray of points and returns an array of
    their values, with the refusals and the point blocks of
    davenport_heilbronn: only a refused point takes the scalar call
    (see _mod5_series).
    """
    return _mod5_series(s, _CHI5)


def davenport_heilbronn(s: complex | np.ndarray) -> complex | np.ndarray:
    """Davenport-Heilbronn function: a period-5 Dirichlet series with a
    Riemann-type functional equation but zeros off the critical line.

    f(s) = 5^{-s} sum_{a=1..4} c_a zeta(s, a/5) with c = (1, kappa,
    -kappa, -1) and kappa = (sqrt(10-2 sqrt 5)-2)/(sqrt 5 - 1), one pass
    over the four Hurwitz zetas.  Since c_a = 2 Re(w chi(a)) with
    w = (1-i kappa)/2, this is the L combination
    w L(s, chi) + conj(w) L(s, chi-bar).  That orientation of the weights
    is the one that actually satisfies
    f(s) = (5/pi)^{(1-2s)/2} (Gamma((2-s)/2)/Gamma((s+1)/2)) f(1-s)
    with constant exactly 1 (the Gauss-sum phase of chi cancels against
    (1-i kappa)^2 only this way round).

    A complex s returns a complex through four hurwitz_zeta calls.  An
    ndarray of points returns a complex array of the same shape from
    batched Euler-Maclaurin sums over blocks of at most 2^14 points,
    without calling hurwitz_zeta.  Each value equals the scalar call's
    to roundoff (bit for bit with glibc on x86-64; the tests allow 1e-15
    max(1, |value|)).  A point the scalar call refuses, and only such a
    point or one at sigma in (440.5, 441), where a head exponent passes
    709 (see _em_blocks), is evaluated through the scalar call, in point
    order, so the array call raises the scalar's error for the first
    refused point.
    The heads share e^{-it log(n+a/5)} among the points of one height in
    chunks of at most 2^14 terms, and (n+a/5)^{-sigma} among all the
    points of one sigma (_add_heads); argument_principle_count evaluates
    its whole contour grid in one such call, whose sides share both.
    """
    return _mod5_series(s, _DH_COEF)
