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
import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, PoleError
from .specialfn import (TWO_PI, _require_finite, log_gamma, theta,
                        theta_asymptotic)

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

#: Bernoulli correction terms m of the Euler-Maclaurin pair up to
#: |t| = _T_FIXED, and above it wherever that pair is the cheaper one.
EM_ORDER = 8

#: Bernoulli correction terms m of the other Euler-Maclaurin pair.
EM_ORDER_MAX = 20

#: Backlund bound, absolute, that the EM_ORDER_MAX pair is sized to meet.
EM_TARGET = 1e-11

# One Bernoulli correction (complex products in the interpreter) costs
# about as much as this many head terms (one numpy log and exp each):
# 0.5-0.7 us against 30-40 ns, timed in process on a 2-vCPU Xeon.
_BERNOULLI_COST = 17

# Head terms the EM_ORDER_MAX pair must save to pay for its extra
# Bernoulli terms.  Its N is above |t|/2pi, so it cannot save them while
# 2|t|/pi + 1 <= |t|/2pi + _EXTRA_COST, that is for every
# |t| <= _T_FIXED = (_EXTRA_COST - 1) 2pi/3 ~ 425.
_EXTRA_COST = _BERNOULLI_COST * (EM_ORDER_MAX - EM_ORDER)
_T_FIXED = (_EXTRA_COST - 1) * TWO_PI / 3.0

#: Largest Backlund truncation bound allowed, relative to max(1, |value|).
EM_TOL = 1e-8

#: Most terms one Euler-Maclaurin or Riemann-Siegel evaluation, or one
#: Dirichlet partial-sum series, sums.
MAX_TERMS = 10**6

# Constants of _backlund_cutoff: edge = sigma + _EDGE_SHIFT, and logs it
# compares against and sums.
_EDGE_SHIFT = 2 * EM_ORDER_MAX + 1
_LOG_MAX_TERMS = math.log(MAX_TERMS)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_COEF_OVER_TARGET = math.log(abs(_EM_COEF[EM_ORDER_MAX]) / EM_TARGET)

# As a >= 5e-324, the head term a^-sigma can overflow only above this
# sigma (~0.95).
_SIGMA_HEAD_SAFE = _LOG_FLOAT_MAX / -math.log(5e-324)

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

    The cheaper, counting a Bernoulli term as _BERNOULLI_COST head terms,
    of (max(50, ceil(2|t|/pi)), EM_ORDER) and (_backlund_cutoff(s),
    EM_ORDER_MAX).  Up to |t| = _T_FIXED the first pair wins whatever the
    second's N, since that N exceeds |t|/2pi, so it is taken without
    computing that N.  Raises DomainError where |t|/2pi >= MAX_TERMS:
    Backlund's premise then needs N > MAX_TERMS, and 2|t| may overflow.
    """
    t = abs(s.imag)
    if t / TWO_PI >= MAX_TERMS:
        raise DomainError(
            f"no Euler-Maclaurin cutoff within MAX_TERMS={MAX_TERMS} at "
            f"s={s}: Backlund's bound needs N above |Im s|/2pi="
            f"{t / TWO_PI:.3g}"
        )
    n_fixed = max(50, math.ceil(2.0 * t / math.pi))
    if t <= _T_FIXED:
        return n_fixed, EM_ORDER
    n_b = _backlund_cutoff(s, int(t / TWO_PI) + 1)
    if n_b is None or n_fixed <= n_b + _EXTRA_COST:
        return n_fixed, EM_ORDER
    return n_b, EM_ORDER_MAX


def _backlund_cutoff(s: complex, n_min: int) -> int | None:
    """Smallest N >= n_min at which Backlund's bound with m = EM_ORDER_MAX
    is at most EM_TARGET, or None where Backlund's premise sigma+2m+1 > 0
    fails, where that N would exceed MAX_TERMS, or where the tail's
    Pochhammer product s(s+1)...(s+2m) could overflow a double.

    With edge = sigma+2m+1 and base >= N, the bound is at most
    |B_{2m+2}/(2m+2)!| (|s|+2m+1)^{2m+2} N^{-edge} / edge, since each of
    the 2m+2 factors |s+j| in |s+2m+1| prod_{j<=2m} |s+j| is at most
    |s|+2m+1.  Solving for N in logs takes O(1), and the exp is taken
    only below log MAX_TERMS, so nothing here can overflow.
    """
    edge = s.real + _EDGE_SHIFT
    log_poch = (_EDGE_SHIFT + 1) * math.log(abs(s) + _EDGE_SHIFT)
    if edge <= 0.0 or log_poch > _LOG_FLOAT_MAX:
        return None
    log_n = (log_poch + _LOG_COEF_OVER_TARGET - math.log(edge)) / edge
    if log_n > _LOG_MAX_TERMS:
        return None
    return max(n_min, math.ceil(math.exp(log_n)))


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


def _em_sum(s: complex, a: float, terms: int, n_cut: int,
            m: int) -> complex:
    """Euler-Maclaurin value of sum_{n>=0} (n+a)^{-s}: the head
    sum_{n<terms} (n+a)^{-s} plus the boundary terms at base = terms+a
    with m <= EM_ORDER_MAX Bernoulli corrections.  Raises DomainError,
    naming the caller's cutoff as N=n_cut, if n_cut > MAX_TERMS, if
    Backlund's premises base > |t|/2pi and sigma+2m+1 > 0 fail, if the
    sum overflows a double, or if his bound |s+2m+1|/(sigma+2m+1)
    |T_{m+1}| on the truncation error (T_{m+1} the first omitted term)
    exceeds EM_TOL max(1, |value|).  The bound does not cover rounding in
    the head sum; left of the critical strip, where the head terms grow,
    it also raises when the rounding estimate eps (base^{1-sigma}/(1-sigma)
    + 1) exceeds EM_TOL max(1, |value|).  s is finite, so only the value
    and what is computed from it can be NaN; those checks fail on a NaN."""
    base = terms + a
    edge = 2 * m + 1 + s.real
    if n_cut > MAX_TERMS:
        raise DomainError(f"N={n_cut} exceeds MAX_TERMS={MAX_TERMS}")
    if base <= abs(s.imag) / TWO_PI or edge <= 0.0:
        raise DomainError(
            f"N={n_cut} at s={s} fails the premises of the Backlund bound: "
            f"cutoff above |Im s|/2pi={abs(s.imag) / TWO_PI:.1f}, "
            f"Re s > {-2 * m - 1}"
        )
    pw1 = base ** (1.0 - s)
    tail = pw1 / (s - 1.0) + 0.5 * pw1 / base
    inv2 = base ** -2.0
    poch = s
    pw = pw1 * inv2
    for k in range(m):
        tail += _EM_COEF[k] * poch * pw
        pw *= inv2
        poch *= (s + (2 * k + 1)) * (s + (2 * k + 2))
    # Checked before numpy sums the head, where an overflow would warn.
    # The Pochhammer product overflows, leaving a NaN tail, long before
    # sigma log(n+a) can; right of sigma = 0 the largest head term is
    # a^-s.  Past both checks head and tail are finite, and so is their sum.
    if not cmath.isfinite(tail) or (
            s.real > _SIGMA_HEAD_SAFE
            and -s.real * math.log(a) > _LOG_FLOAT_MAX):
        raise DomainError(
            f"Euler-Maclaurin sum at s={s}, a={a} overflows a double")
    ns = np.arange(0, terms, dtype=float) + a
    value = complex(_powers(ns, -s).sum()) + tail
    bound = abs(s + (2 * m + 1)) / edge * abs(_EM_COEF[m] * poch * pw)
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
    return value


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
    of the displacement).
    """
    for p0, sign in ((0.25, -1.0), (0.75, 1.0)):
        d = p - p0
        if abs(d) < 0.05:
            if d == 0.0:
                return 0.5
            # cos A = -sin(A0) sin(dA), cos B = -sin(B0) sin(dB) with
            # sin(A0) = -1 at both points and sin(B0) = +/-1.
            return sign * math.sin(TWO_PI * d * (p + p0 - 1.0)) / math.sin(
                TWO_PI * d
            )
    return math.cos(TWO_PI * (p * p - p - 0.0625)) / math.cos(TWO_PI * p)


# (log n, sqrt n) for n = 1, 2, ..., read only by hardy_z_rs.  Grown by
# _rs_terms, which rebinds a longer tuple and never mutates one, so a
# reader always holds a complete table.
_RS_TERMS: tuple[tuple[float, float], ...] = ()
_RS_TERMS_LOCK = threading.Lock()


def _rs_terms(n_main: int) -> tuple[tuple[float, float], ...]:
    """The Riemann-Siegel term table, grown to at least n_main entries
    by computing only the missing ones.  Growth holds a lock, so two
    threads cannot rebind a shorter table over a longer one."""
    global _RS_TERMS
    with _RS_TERMS_LOCK:
        terms = _RS_TERMS
        if len(terms) < n_main:
            terms += tuple((math.log(n), math.sqrt(n))
                           for n in range(len(terms) + 1, n_main + 1))
            _RS_TERMS = terms
    return terms


def hardy_z_rs(t: float) -> float:
    """Hardy Z(t) by the Riemann-Siegel main sum, real by construction.

    2 sum_{n<=N} n^{-1/2} cos(theta(t) - t log n) with N = floor
    sqrt(t/2pi), plus the leading remainder term C0 (t/2pi)^(-1/4).
    theta is theta_asymptotic (no log-gamma), which keeps this route
    fully independent of the Euler-Maclaurin one; near 2*pi its error
    stays under 2.2e-9, far below the sum's own error of ~1e-2 there.
    Raises DomainError through theta_asymptotic's one domain check
    unless 2*pi <= t <= 1e50, and when N exceeds MAX_TERMS.

    log n and sqrt n come from a module table of the largest N seen so
    far, which the Euler-Maclaurin route never reads.  It keeps 112 B
    per term: about 4.4 KB up to t = 1e4 (N = 39), and 112 MB only at
    N = MAX_TERMS (t ~ 6.3e12).
    """
    th = theta_asymptotic(t)
    root = math.sqrt(t / TWO_PI)
    n_main = int(math.floor(root))
    if n_main > MAX_TERMS:
        raise DomainError(f"riemann-siegel sum at t={t:g} exceeds MAX_TERMS")
    terms = _RS_TERMS
    if len(terms) < n_main:
        terms = _rs_terms(n_main)
    acc = 0.0
    for log_n, sqrt_n in terms[:n_main]:
        acc += math.cos(th - t * log_n) / sqrt_n
    c0 = (-1.0) ** (n_main - 1) * root ** -0.5 * _rs_psi(root - n_main)
    return 2.0 * acc + c0


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


def _check_n_max(n_max: int) -> None:
    if not 1 <= n_max <= MAX_TERMS:
        raise DomainError(
            f"n_max must be in [1, MAX_TERMS={MAX_TERMS}], got {n_max}"
        )


def dirichlet_partial_sums(s: complex, n_max: int) -> SpiralPath:
    """Partial sums of the Dirichlet series sum n^{-s} and their midpoints.

    The segment points[k] - points[k-1] is the (k+1)-st term, of modulus
    (k+1)^{-sigma}; midpoints trace the inverse spiral.
    """
    s = _require_finite(s, "s")
    _check_n_max(n_max)
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
    converges for Re s < 0.  Returns |LHS - RHS|.
    """
    s = _require_finite(s, "s")
    if s.real >= 0.0:
        raise DomainError(f"residue identity series needs Re s < 0, got {s}")
    _check_n_max(n_max)
    lhs = TWO_PI * zeta_em(s) * cmath.exp(-log_gamma(1.0 - s))
    ns = np.arange(1, n_max + 1, dtype=float)
    series = complex(np.sum(_powers(ns, s - 1.0)))
    # (-i)^{s-1} + i^{s-1} with principal powers; constant in n.
    mirror = cmath.exp((s - 1.0) * complex(0.0, -0.5 * math.pi)) + cmath.exp(
        (s - 1.0) * complex(0.0, 0.5 * math.pi)
    )
    rhs = cmath.exp(s * math.log(TWO_PI)) * series * mirror
    return abs(lhs - rhs)


def _mod5_series(s: complex, coeffs: dict[int, complex | float]) -> complex:
    """5^{-s} sum_{a=1..4} coeffs[a] zeta(s, a/5): the Dirichlet series
    whose coefficients repeat with period 5 as coeffs[1..4], 0."""
    total = 0.0 + 0.0j
    for a, c in coeffs.items():
        total += c * hurwitz_zeta(s, a / 5.0)
    return cmath.exp(-s * math.log(5.0)) * total


def dirichlet_l_mod5(s: complex) -> complex:
    """Dirichlet L for the odd mod-5 character with chi(2)=i.

    L(s, chi) = 5^{-s} sum_{a=1..4} chi(a) zeta(s, a/5).  The conjugate
    character's L-function follows as L(s, chi-bar) = conj(L(conj(s), chi)).
    """
    return _mod5_series(s, _CHI5)


def davenport_heilbronn(s: complex) -> complex:
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
    """
    return _mod5_series(s, _DH_COEF)
