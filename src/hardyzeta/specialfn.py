"""Complex special functions used everywhere else in the package.

Provides a complex log-gamma (Hare's algorithm, ported from
scipy.special.loggamma), the reflection factor
chi(s) = 2^(s-1) pi^s / (cos(pi s/2) Gamma(s)), and the Riemann-Siegel
theta phase in two independent forms, one per route: the exact one
built on log-gamma (Euler-Maclaurin route) and the classical asymptotic
expansion (Riemann-Siegel route).  Having both forms lets each serve as
an oracle for the other.
"""

from __future__ import annotations

import cmath
import math
import operator

from .errors import DomainError, PoleError

TWO_PI = 2.0 * math.pi
LOG_PI = math.log(math.pi)
LOG_2 = math.log(2.0)

# Asymptotic theta: t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760t^3)
# + 31/(80640t^5).  Exactly these six terms, nothing more.
_THETA_C1 = 1.0 / 48.0
_THETA_C3 = 7.0 / 5760.0
_THETA_C5 = 31.0 / 80640.0


# Hare's principal-branch log Gamma, as scipy.special.loggamma
# implements it (D. E. G. Hare, "Computing the principal branch of
# log-Gamma", J. Algorithms 25, 1997).  The Stirling series alone is
# used for Re z > 7 or |Im z| > 7; elsewhere a Taylor series around 1
# or 2, reflection for Re z < 0.1, or upward recurrence into the
# Stirling region.
_STIRLING_X = 7.0
_STIRLING_Y = 7.0
_TAYLOR_RADIUS = 0.2
_HALF_LOG_2PI = 0.918938533204672742

# B_2n / (2n (2n - 1)) for n = 8 down to 1, the Stirling coefficients of
# log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2 in powers of 1/z.
_S8, _S7, _S6, _S5, _S4, _S3, _S2, _S1 = (
    -2.955065359477124183e-2, 6.4102564102564102564e-3,
    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
    -5.952380952380952381e-4, 7.9365079365079365079e-4,
    -2.7777777777777777778e-3, 8.3333333333333333333e-2)

# (-1)^k zeta(k)/k for k = 23 down to 2, then -euler_gamma: the Taylor
# coefficients of log Gamma(1 + w) = -gamma w + sum (-1)^k zeta(k) w^k / k.
_TAYLOR = (-4.3478266053040259361e-2, 4.5454556293204669442e-2,
           -4.7619070330142227991e-2, 5.000004769810169364e-2,
           -5.2631679379616660734e-2, 5.5555767627403611102e-2,
           -5.8823978658684582339e-2, 6.2500955141213040742e-2,
           -6.6668705882420468033e-2, 7.1432946295361336059e-2,
           -7.6932516411352191473e-2, 8.3353840546109004025e-2,
           -9.0954017145829042233e-2, 1.0009945751278180853e-1,
           -1.1133426586956469049e-1, 1.2550966952474304242e-1,
           -1.4404989676884611812e-1, 1.6955717699740818995e-1,
           -2.0738555102867398527e-1, 2.7058080842778454788e-1,
           -4.0068563438653142847e-1, 8.2246703342411321824e-1,
           -5.7721566490153286061e-1)


def _require_finite(z: complex, name: str = "argument") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


def _require_count(n, name: str, lo: int, hi: int) -> int:
    """n as an int, where n is an integer in [lo, hi]: anything
    operator.index takes (int, bool, numpy integers).  Raises DomainError
    naming `name` for anything else -- a float, even 8.0, a string, None
    -- and for a value outside [lo, hi]."""
    try:
        k = operator.index(n)
    except TypeError:
        k = None
    if k is None or not lo <= k <= hi:
        raise DomainError(
            f"{name} must be an integer in [{lo}, {hi}], got {n!r}")
    return k


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _poly(coeffs: tuple[float, ...], z: complex) -> complex:
    """Real-coefficient polynomial (highest degree first) at complex z,
    by Knuth's recurrence in real arithmetic (TAOCP vol. 2, 4.6.4 (3)):
    two real multiplications and two additions per coefficient."""
    r = 2.0 * z.real
    s = z.real * z.real + z.imag * z.imag
    a, b = coeffs[0], coeffs[1]
    for c in coeffs[2:]:
        a, b = r * a + b, c - s * a
    return z * a + b


#: |1/z^2|^2 below which, for Re z > 0, _stirling keeps five terms: past
#: |z| = 50 the first dropped term is under 1.9e-3 |z|^-11 times the
#: sector factor sec^12(arg z / 2) <= 64, below 3e-20.
_FIVE_TERMS_BELOW = 50.0**-4


def _stirling(z: complex) -> complex:
    """(z - 1/2) log z - z + log(2 pi)/2 plus the Stirling series in
    w = 1/z^2: eight terms, or five for Re z > 0 and |z| > 50; the
    principal branch for Re z > 7 or |Im z| > 7.

    The series is _poly's recurrence written out, because theta calls
    this once per Euler-Maclaurin value of Z.  Dropping the three terms
    past |z| = 50 leaves theta bit-identical on 2e6 seeded t and saves a
    sixth of its time.
    """
    rz = 1.0 / z
    w = rz / z
    wr = w.real
    wi = w.imag
    r = wr + wr
    s = wr * wr + wi * wi
    if s < _FIVE_TERMS_BELOW and z.real > 0.0:
        a, b = r * _S5 + _S4, _S3 - s * _S5
    else:
        a, b = r * _S8 + _S7, _S6 - s * _S8
        a, b = r * a + b, _S5 - s * a
        a, b = r * a + b, _S4 - s * a
        a, b = r * a + b, _S3 - s * a
    a, b = r * a + b, _S2 - s * a
    a, b = r * a + b, _S1 - s * a
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + rz * (w * a + b)


def _taylor(z: complex) -> complex:
    """log Gamma(z) for |z - 1| < _TAYLOR_RADIUS."""
    w = z - 1.0
    return w * _poly(_TAYLOR, w)


def _log_near_one(z: complex) -> complex:
    """log z, by 16 terms of its series in z - 1 within 0.1 of 1; 0 at
    z = 1.  (scipy's zlog1 also tests |total / term| < eps after each
    term, which cannot hold while |z - 1| <= 0.1, so it always sums 16.)"""
    if abs(z - 1.0) > 0.1:
        return cmath.log(z)
    w = z - 1.0
    term = complex(-1.0, 0.0)
    total = complex(0.0, 0.0)
    for n in range(1, 17):
        term *= -w
        total += term / n
    return total


def _recurrence(z: complex) -> complex:
    """log Gamma(z) for Im z >= 0 from log Gamma(z + n) with Re(z + n) > 7,
    less log(z (z+1) ... (z+n-1)).  The principal branch of that product
    log counts one turn of 2 pi for each time the running product's
    imaginary part turns negative (Hare, Proposition 2.2)."""
    flips = 0
    negative = False
    product = z
    z += 1.0
    while z.real <= _STIRLING_X:
        product *= z
        now_negative = math.copysign(1.0, product.imag) < 0.0
        if now_negative and not negative:
            flips += 1
        negative = now_negative
        z += 1.0
    return _stirling(z) - cmath.log(product) - flips * complex(0.0, TWO_PI)


def _sinpi_real(x: float) -> float:
    sign = 1.0
    if x < 0.0:
        x, sign = -x, -1.0
    r = math.fmod(x, 2.0)
    if r < 0.5:
        return sign * math.sin(math.pi * r)
    if r > 1.5:
        return sign * math.sin(math.pi * (r - 2.0))
    return -sign * math.sin(math.pi * (r - 1.0))


def _cospi_real(x: float) -> float:
    r = math.fmod(abs(x), 2.0)
    if r == 0.5:
        return 0.0
    if r < 1.0:
        return -math.sin(math.pi * (r - 0.5))
    return math.sin(math.pi * (r - 1.5))


def _sinpi(z: complex) -> complex:
    """sin(pi z) for |Im z| <= 7, where cosh and sinh cannot overflow."""
    y = math.pi * z.imag
    return complex(_sinpi_real(z.real) * math.cosh(y),
                   _cospi_real(z.real) * math.sinh(y))


def loggamma(z: complex) -> complex:
    """Principal-branch log Gamma of a finite complex z that is not a pole;
    the kernel behind log_gamma and theta, which check their arguments.

    Against mpmath, the error relative to max(1, |log Gamma|) was at most
    5.2e-16 on seeded points of the Stirling region (Re z > 7 or
    |Im z| > 7, up to |Im z| = 2e4) and 4.7e-15 on 20000 points with
    -20 <= Re z <= 7, |Im z| <= 7, where the recurrence loses a few ulps
    to cancellation; scipy.special.loggamma gives the same values.
    """
    if z.real > _STIRLING_X or abs(z.imag) > _STIRLING_Y:
        return _stirling(z)
    if abs(z - 1.0) < _TAYLOR_RADIUS:
        return _taylor(z)
    if abs(z - 2.0) < _TAYLOR_RADIUS:
        return _log_near_one(z - 1.0) + _taylor(z - 1.0)
    if z.real < 0.1:
        # Reflection (Hare, Proposition 3.1).  0.0 - z.imag keeps a
        # +0.0 imaginary part +0.0, as in complex(1.0) - z.
        turns = math.copysign(TWO_PI, z.imag) * math.floor(0.5 * z.real
                                                           + 0.25)
        return (complex(LOG_PI, turns) - cmath.log(_sinpi(z))
                - loggamma(complex(1.0 - z.real, 0.0 - z.imag)))
    if math.copysign(1.0, z.imag) > 0.0:
        return _recurrence(z)
    return _recurrence(z.conjugate()).conjugate()


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z); exp(log_gamma(z)) == Gamma(z).

    Hare's algorithm (loggamma), a port of scipy.special.loggamma.  The
    branch is real on the positive real axis and analytic off the
    negative real axis, so the imaginary part is continuous along
    vertical lines with Re z > 0 (it is not reduced mod 2*pi).  On the
    negative real axis the sign of a zero imaginary part picks the side
    of the cut, so log_gamma(conj z) == conj(log_gamma(z)) everywhere.
    Raises DomainError for non-finite z and PoleError at the
    non-positive integers.
    """
    z = _require_finite(z, "z")
    if _is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z={z}")
    return loggamma(z)


def _log_cos(w: complex) -> complex:
    """log cos(w) without overflow for large |Im w|.

    Uses cos w = e^{-iw}(1 + e^{2iw})/2 for Im w >= 0 and the conjugate
    split otherwise, so only bounded exponentials are ever formed.
    """
    if w.imag >= 0.0:
        return -1j * w - LOG_2 + cmath.log(1.0 + cmath.exp(2j * w))
    return 1j * w - LOG_2 + cmath.log(1.0 + cmath.exp(-2j * w))


def chi(s: complex) -> complex:
    """Reflection factor chi(s) = 2^(s-1) pi^s / (cos(pi s/2) Gamma(s)).

    Computed entirely in log space, exp((s-1)log2 + s log pi
    - log cos(pi s/2) - log_gamma(s)), so moderate |Im s| cannot overflow.
    chi(1/2 + it) has modulus one and chi(s) chi(1-s) = 1.
    """
    s = _require_finite(s, "s")
    if s.imag == 0.0 and s.real == math.floor(s.real):
        r = s.real
        if r >= 1.0 and int(r) % 2 == 1:
            raise PoleError(f"chi pole: cos(pi s/2) vanishes at s={s}")
        if r <= 0.0:
            # Gamma pole; the limit value is a trivial zero or a 0/0 form.
            raise PoleError(f"chi undefined at the gamma pole s={s}")
    log_chi = (
        (s - 1.0) * LOG_2
        + s * LOG_PI
        - _log_cos(0.5 * math.pi * s)
        - log_gamma(s)
    )
    return cmath.exp(log_chi)


def theta(t: float) -> float:
    """Riemann-Siegel theta phase, exactly: Im log Gamma(1/4 + it/2)
    - (t/2) log pi, by loggamma's Stirling branch for |t| > 14.  Raises
    DomainError for non-finite t and where the phase itself overflows
    (|t| above about 5e305)."""
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    phase = loggamma(complex(0.25, 0.5 * t)).imag - 0.5 * t * LOG_PI
    if not math.isfinite(phase):
        raise DomainError(f"theta overflows at t={t!r}")
    return phase


#: Top of the asymptotic theta's domain: a round ceiling under the
#: first overflow, t**6 in theta_derivative above 2.4e51 and t**5 in
#: theta_asymptotic above 4.5e61.
_ASYMPTOTIC_TOP = 1e50


def _check_asymptotic(t: float) -> None:
    """The one domain of theta_asymptotic and theta_derivative, NaN
    excluded: 2*pi <= t <= _ASYMPTOTIC_TOP."""
    if not TWO_PI <= t <= _ASYMPTOTIC_TOP:
        raise DomainError(
            f"asymptotic theta needs 2*pi <= t <= 1e50, got t={t!r}")


def theta_asymptotic(t: float) -> float:
    """Riemann-Siegel theta by the six-term asymptotic expansion
    t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760 t^3) + 31/(80640 t^5)
    (Edwards, Riemann's Zeta Function, 6.5).

    Raises DomainError unless 2*pi <= t <= 1e50.  Against mpmath's
    siegeltheta the error stays within 2.2e-9 at t = 2*pi, 3.1e-11 at 10
    and 2.4e-13 at 20; below 2*pi it grows fast (7.9e-8 at t = 5).
    The domain is tested inline, so an accepted t, as at every
    Riemann-Siegel scan point, makes no call to _check_asymptotic; a
    refused one raises there, with its one message.
    """
    if not TWO_PI <= t <= _ASYMPTOTIC_TOP:
        _check_asymptotic(t)
    return (
        0.5 * t * math.log(t / TWO_PI)
        - 0.5 * t
        - math.pi / 8.0
        + _THETA_C1 / t
        + _THETA_C3 / t**3
        + _THETA_C5 / t**5
    )


def theta_derivative(t: float) -> float:
    """Termwise derivative of the asymptotic theta expansion.

    theta'(t) = (1/2) log(t/2pi) - 1/(48 t^2) - 21/(5760 t^4)
    - 155/(80640 t^6), on theta_asymptotic's domain
    2*pi <= t <= 1e50 (DomainError elsewhere).
    """
    _check_asymptotic(t)
    return (
        0.5 * math.log(t / TWO_PI)
        - _THETA_C1 / t**2
        - 3.0 * _THETA_C3 / t**4
        - 5.0 * _THETA_C5 / t**6
    )
