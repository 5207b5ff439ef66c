"""Polynomial projection of interval functions and zero extraction.

Functions are expanded in the shifted-Legendre basis of an interval,
real orthogonal polynomials as in the zero theorem the paper's argument
runs through; real zeros are pulled out of the expansion through the
colleague-matrix eigenvalue problem; and a convergence study tracks how
the polynomial zeros approach the function's own zeros as the degree
grows.  The study projects once, at its largest degree: a lower degree
is a truncation of that projection, the discrete projection on the same
Gauss rule.  The reference zeros come from zerofinder.scan_and_refine: for
Z(1/2, .) on an interval inside [2*pi, 1e4] a Riemann-Siegel scan with
Euler-Maclaurin refinement, elsewhere (and for every other function) a
scan of the function itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import DomainError, NumericsError
from .hilbert import (
    MIN_QUAD_ORDER,
    Interval,
    SampledFunction,
    gauss_legendre_rule,
)
from .specialfn import _require_count
# refine_zero stays bound here: the benchmark tracer wraps
# polyzero.refine_zero as well as zerofinder.refine_zero.
from .zerofinder import MAX_SCAN_STEP, refine_zero, scan_and_refine

MAX_PROJECT_DEGREE = 512

#: Relative coefficient floor; trailing coefficients below this times the
#: largest one are trimmed.
COEFF_TRIM = 1e-14

#: Eigenvalues with |Im| below this (relative to max(1, |Re|)) are snapped
#: onto the real axis; double-precision eigenvalues of real roots pick up
#: spurious imaginary parts of roughly this size.
IMAG_SNAP = 1e-8


@dataclass(frozen=True)
class PolynomialRealCoeffs:
    """Real polynomial in the Legendre basis of an interval.

    Coefficients refer to P_n(u) with u the affine map of the interval
    onto [-1, 1].  Trailing coefficients under COEFF_TRIM * max|c| are
    dropped at construction; an empty, multi-dimensional or non-finite
    coefficient vector raises DomainError.
    """

    coeffs: np.ndarray
    interval: Interval

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or len(c) == 0:
            raise DomainError("coefficient vector must be non-empty and 1-d")
        if not np.all(np.isfinite(c)):
            raise DomainError(f"coefficients must be finite, got {c!r}")
        scale = np.max(np.abs(c))
        if scale > 0.0:
            keep = len(c)
            while keep > 1 and abs(c[keep - 1]) <= COEFF_TRIM * scale:
                keep -= 1
            c = c[:keep]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def _to_unit(self, x):
        iv = self.interval
        return (2.0 * (np.asarray(x, dtype=float) - iv.a) / iv.width) - 1.0

    def evaluate(self, x):
        return npleg.legval(self._to_unit(x), self.coeffs)

    __call__ = evaluate


@dataclass(frozen=True)
class ProjectionResult:
    """A projection plus the quadrature L2 norm of what it missed."""

    poly: PolynomialRealCoeffs
    l2_error: float


@dataclass(frozen=True, slots=True)
class ZeroComparison:
    """Zeros of a function versus zeros of its degree-d projection.

    matched_pairs holds (alpha, beta, |alpha - beta|) tuples from the
    order-preserving minimal-distance assignment of the two sorted lists;
    l2_error is the quadrature L2 norm of f minus the degree-d
    polynomial on the Gauss rule of the study's top projection.
    """

    function_zeros: list[float]
    polynomial_zeros: list[float]
    matched_pairs: list[tuple[float, float, float]]
    degree: int
    l2_error: float

    @property
    def max_deviation(self) -> float:
        if not self.matched_pairs:
            return 0.0
        return max(d for _, _, d in self.matched_pairs)


def project(f: SampledFunction, interval: Interval,
            degree: int) -> ProjectionResult:
    """L2 projection of f onto polynomials of the given degree.

    c_n = (2n+1)/(b-a) * <f, P_n(u(x))>, the orthogonal projection, with
    the inner products taken by the Gauss-Legendre rule of order
    max(2*degree, MIN_QUAD_ORDER).  degree is an integer in
    [1, MAX_PROJECT_DEGREE]; anything else, a float such as 8.0 included,
    raises DomainError before f is sampled.
    """
    degree = _require_count(degree, "degree", 1, MAX_PROJECT_DEGREE)
    rule = gauss_legendre_rule(max(2 * degree, MIN_QUAD_ORDER), interval)
    fv = f.sample(rule.nodes)
    u = (2.0 * (rule.nodes - interval.a) / interval.width) - 1.0
    vander = npleg.legvander(u, degree)
    scale = (2.0 * np.arange(degree + 1) + 1.0) / interval.width
    coeffs = scale * (vander.T @ (rule.weights * fv))
    poly = PolynomialRealCoeffs(coeffs=coeffs, interval=interval)
    resid = fv - poly.evaluate(rule.nodes)
    l2_error = math.sqrt(max(float(np.sum(rule.weights * resid * resid)), 0.0))
    return ProjectionResult(poly=poly, l2_error=l2_error)


def poly_real_zeros(p: PolynomialRealCoeffs) -> list[float]:
    """All real zeros strictly inside the interval, ascending.

    The roots come from the colleague-matrix eigenproblem; near-real
    eigenvalue pairs are snapped onto the axis, the rest are discarded.
    A nonzero constant has none; the zero polynomial raises DomainError.
    """
    if not np.any(p.coeffs):
        raise DomainError("the zero polynomial has no isolated zeros")
    if p.degree == 0:
        return []
    try:
        roots_u = np.atleast_1d(npleg.legroots(p.coeffs))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigenvalue solver failed on degree "
                            f"{p.degree} polynomial: {exc}") from exc
    iv = p.interval
    roots_x = iv.a + 0.5 * iv.width * (roots_u + 1.0)
    snap_scale = np.maximum(1.0, np.abs(np.real(roots_u)))
    imag = np.abs(np.imag(roots_u))
    xs = np.real(roots_x)[imag <= IMAG_SNAP * snap_scale]
    return sorted(float(x) for x in xs if iv.a < x < iv.b)


def _match_sorted(alpha: list[float], beta: list[float]
                  ) -> list[tuple[float, float, float]]:
    """Order-preserving assignment of the shorter list into the longer.

    Minimizes the total |alpha - beta| over monotone one-to-one
    matchings; for equal lengths this reduces to index-wise pairing.
    """
    if not alpha or not beta:
        return []
    swapped = len(alpha) > len(beta)
    short, long_ = (beta, alpha) if swapped else (alpha, beta)
    m, n = len(short), len(long_)
    inf = float("inf")
    cost = np.full((m + 1, n + 1), inf)
    cost[0, :] = 0.0
    choice = np.zeros((m + 1, n + 1), dtype=bool)  # True -> matched (i-1, j-1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            skip = cost[i, j - 1]
            take = cost[i - 1, j - 1] + abs(short[i - 1] - long_[j - 1])
            if take <= skip:
                cost[i, j] = take
                choice[i, j] = True
            else:
                cost[i, j] = skip
    pairs = []
    i, j = m, n
    while i > 0 and j > 0:
        if choice[i, j]:
            a, b = short[i - 1], long_[j - 1]
            pairs.append((b, a, abs(a - b)) if swapped else (a, b, abs(a - b)))
            i -= 1
            j -= 1
        else:
            j -= 1
    pairs.reverse()
    return pairs


def zero_convergence_study(f: SampledFunction, interval: Interval,
                           degrees: list[int]) -> list[ZeroComparison]:
    """Track polynomial zeros converging onto the function's zeros.

    The reference zeros come from zerofinder.scan_and_refine at step
    MAX_SCAN_STEP (which keeps the zeros of Z(1/2, .) up to
    MAX_SCAN_HEIGHT in separate cells; a narrower interval is scanned at
    its two ends) and tol 1e-12: every zero is refined and reported on
    f, and the scan runs on f.scan_route where f has one and the
    interval lies inside [2*pi, MAX_SCAN_HEIGHT], on f itself
    otherwise.  So hardy_function(0.5) is scanned on
    Riemann-Siegel and refined on Euler-Maclaurin inside [2*pi, 1e4],
    and scanned on Euler-Maclaurin elsewhere, as Z(sigma, .) for
    sigma != 1/2 is everywhere.  f is projected once, by project at the
    largest degree D; each degree d (ascending) takes the first d + 1
    of its coefficients, the discrete projection on the same rule of
    order max(2D, MIN_QUAD_ORDER), or the top projection itself when d
    reaches its trimmed length.  A truncation's l2_error is the discrete
    Parseval sum: the top's squared error plus c_n^2 (b-a)/(2n+1) for
    each coefficient it drops, a sum of positive terms.  The real zeros
    of each degree-d polynomial are matched against the reference
    zeros.  Every degree is checked as project checks it before the zero
    scan runs, so a bad degree raises DomainError with no evaluation of
    f.  Raises NumericsError if the zero counts still disagree at the
    largest degree.
    """
    degrees = sorted(_require_count(d, "degree", 1, MAX_PROJECT_DEGREE)
                     for d in degrees)
    if not degrees:
        raise DomainError("need at least one degree")
    alpha = [r.location
             for r in scan_and_refine(f, interval, MAX_SCAN_STEP, 1e-12)]
    top = project(f, interval, degrees[-1])
    c = top.poly.coeffs
    # Discrete Parseval on the top rule: the squared residual of a
    # truncation is the top's plus the weighted squares it dropped.
    weighted = c * c * interval.width / (2.0 * np.arange(len(c)) + 1.0)
    out = []
    for deg in degrees:
        if deg + 1 >= len(c):
            proj = top
        else:
            poly = PolynomialRealCoeffs(coeffs=c[:deg + 1], interval=interval)
            tail = float(np.sum(weighted[len(poly.coeffs):]))
            proj = ProjectionResult(poly=poly, l2_error=math.sqrt(
                top.l2_error * top.l2_error + tail))
        beta = poly_real_zeros(proj.poly)
        pairs = _match_sorted(alpha, beta)
        out.append(ZeroComparison(function_zeros=list(alpha),
                                  polynomial_zeros=beta,
                                  matched_pairs=pairs,
                                  degree=deg,
                                  l2_error=proj.l2_error))
    largest = out[-1]
    if len(largest.polynomial_zeros) != len(largest.function_zeros):
        raise NumericsError(
            f"zero-count mismatch at degree {largest.degree}: function has "
            f"{len(largest.function_zeros)}, projection has "
            f"{len(largest.polynomial_zeros)}"
        )
    return out
