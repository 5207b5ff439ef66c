"""Complex special functions used everywhere else in the package.

Provides a complex log-gamma (scipy.special.loggamma), the reflection
factor chi(s) = 2^(s-1) pi^s / (cos(pi s/2) Gamma(s)), and the
Riemann-Siegel theta phase in two independent forms, one per route: the
exact one built on log-gamma (Euler-Maclaurin route) and the classical
asymptotic expansion (Riemann-Siegel route).  Having both forms lets
each serve as an oracle for the other.
"""

from __future__ import annotations

import cmath
import math

from scipy.special import loggamma

from .errors import DomainError, PoleError

TWO_PI = 2.0 * math.pi
LOG_PI = math.log(math.pi)
LOG_2 = math.log(2.0)

# Asymptotic theta: t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760t^3)
# + 31/(80640t^5).  Exactly these six terms, nothing more.
_THETA_C1 = 1.0 / 48.0
_THETA_C3 = 7.0 / 5760.0
_THETA_C5 = 31.0 / 80640.0


def _require_finite(z: complex, name: str = "argument") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z); exp(log_gamma(z)) == Gamma(z).

    Calls scipy.special.loggamma (Hare's algorithm).  The branch is real
    on the positive real axis and analytic off the negative real axis, so
    the imaginary part is continuous along vertical lines with Re z > 0
    (it is not reduced mod 2*pi).  On the negative real axis the sign of a
    zero imaginary part picks the side of the cut, so log_gamma(conj z) ==
    conj(log_gamma(z)) everywhere.  Raises DomainError for non-finite z and
    PoleError at the non-positive integers.
    """
    z = _require_finite(z, "z")
    if _is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z={z}")
    return complex(loggamma(z))


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
    - (t/2) log pi, valid for any finite real t."""
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    return log_gamma(complex(0.25, 0.5 * t)).imag - 0.5 * t * LOG_PI


def _check_asymptotic(t: float) -> None:
    """The one domain of theta_asymptotic and theta_derivative, NaN
    excluded.  1e50 is a round ceiling under the first overflow: t**6
    in theta_derivative above 2.4e51, t**5 in theta_asymptotic above
    4.5e61."""
    if not TWO_PI <= t <= 1e50:
        raise DomainError(
            f"asymptotic theta needs 2*pi <= t <= 1e50, got t={t!r}")


def theta_asymptotic(t: float) -> float:
    """Riemann-Siegel theta by the six-term asymptotic expansion
    t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760 t^3) + 31/(80640 t^5)
    (Edwards, Riemann's Zeta Function, 6.5).

    Raises DomainError unless 2*pi <= t <= 1e50.  Against mpmath's
    siegeltheta the error stays within 2.2e-9 at t = 2*pi, 3.1e-11 at 10
    and 2.4e-13 at 20; below 2*pi it grows fast (7.9e-8 at t = 5).
    """
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
