"""Finite-interval Hilbert-space numerics.

Gauss-Legendre quadrature rules (built by Newton's method on the
Legendre recurrence), weighted inner products and norms, Gram matrices,
modified Gram-Schmidt orthogonalization (with one re-orthogonalization
pass), and linear-(in)dependence evidence for families of generalized
Hardy functions Z(sigma, .).

Everything is deterministic: rules are cached per order, reductions run
in index order, and the first Gram-Schmidt output reuses the input
callback unchanged so it is bit-identical to the input.  Every sampler
here (sample, inner_product, norm, gram_matrix, gram_schmidt) takes the
node grid of any mix of Z(sigma, .) and their Gram-Schmidt combinations
from one batched call, bit for bit their point-by-point values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (DependenceError, DomainError, EvaluationError,
                     NumericsError)
from .specialfn import TWO_PI, _require_count, theta_derivative
from .zetaeval import _hardy_z_family, _hardy_z_jet, generalized_hardy

MAX_QUAD_ORDER = 4096

#: Gram-Schmidt refuses an input whose residual after orthogonalization
#: drops below this fraction of its own norm.
DEPENDENCE_TOL = 1e-10

#: Smallest quadrature order picked by default (oscillation_order, and
#: polyzero.project for low degrees).
MIN_QUAD_ORDER = 32


@dataclass(frozen=True)
class Interval:
    """A finite open-ended scan/integration interval a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"interval endpoints must be finite: {self}")
        if not self.a < self.b:
            raise DomainError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights mapped onto an interval."""

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(slots=True)
class SampledFunction:
    """A real function of one real variable plus a label for messages.

    The callback must be deterministic.  Every value the package reads
    from it (sample, and the refinement and window-end values of
    zerofinder) passes one rule, _value: an exception the callback
    raises, or a value that is complex, not a number (None), NaN or
    infinite, becomes an EvaluationError naming the point, chained from
    the cause.  scan_route, when set, is an independent and cheaper
    route to the same function, valid for
    2*pi <= t <= zerofinder.MAX_SCAN_HEIGHT; zero scans look for
    sign-change brackets on it there, and refine and report every zero
    on eval.  jet, when set, maps t to (f(t), f'(t)), with f(t) eval's
    value: zerofinder.refine_zero then refines by Newton steps on it
    inside the bracket eval signs, and reports its derivative.  Each
    pair passes the same rule as a value (_jet_value).
    """

    eval: Callable[[float], float]
    label: str = ""
    scan_route: SampledFunction | None = None
    jet: Callable[[float], tuple[float, float]] | None = None

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """The function at each point of xs, any sequence that
        np.asarray(xs, float) makes 1-D; any other shape raises
        DomainError before anything is evaluated.  Z(sigma, .) and its
        Gram-Schmidt combinations take the points from one batched call,
        bit for bit, and leave the callback only the points that call
        refuses; any other function calls its callback at every point
        (_sample_all)."""
        points = np.asarray(xs, dtype=float)
        if points.ndim != 1:
            raise DomainError(
                f"{self.label or 'function'} samples a 1-D sequence of "
                f"points, got shape {points.shape}")
        return _sample_all([self], points)[0]

    def _fill(self, points: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out, with _value at every point of the 1-D float array points
        where out is NaN or infinite, in point order."""
        todo = np.flatnonzero(~np.isfinite(out))
        out[todo] = [self._value(x) for x in points[todo].tolist()]
        return out

    def _value(self, x: float) -> float:
        """The callback's value at the built-in float x, as a float: the
        one rule for every value the package reads from the callback.
        When the callback raises, or returns a complex of any type, a
        value float() rejects (None), a NaN or an infinity, it raises
        EvaluationError with the point x, chained from the cause."""
        try:
            return _real(self.eval(x))
        except Exception as exc:
            raise EvaluationError(
                f"{self.label or 'function'} failed at t={x!r}: {exc}",
                point=x,
            ) from exc

    def _jet_value(self, x: float) -> tuple[float, float]:
        """The jet's value and derivative at the built-in float x, each
        as a float that passes _value's rule.  When the jet raises, or
        returns anything but a pair of such values, it raises
        EvaluationError with the point x, chained from the cause."""
        try:
            value, slope = self.jet(x)
            return _real(value), _real(slope)
        except Exception as exc:
            raise EvaluationError(
                f"{self.label or 'function'} jet failed at t={x!r}: {exc}",
                point=x,
            ) from exc


def _real(value: object) -> float:
    """value as a finite float; a complex of any type, a value float()
    rejects (None), a NaN or an infinity raises."""
    if type(value) is not float:
        # float() of a numpy complex keeps the real part.
        if np.iscomplexobj(value):
            raise TypeError(f"returned a complex value {value!r}")
        value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"returned a non-finite value {value!r}")
    return value


@dataclass
class GramMatrix:
    """Matrix of pairwise inner products."""

    entries: np.ndarray


#: Most Newton steps a node set may take before _unit_rule gives up;
#: from the asymptotic start the third or fourth is below 1e-15.
_MAX_NEWTON_STEPS = 10


def _legendre_with_derivative(n: int, x: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence
    j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2}."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, n + 1):
        p2 = x * p1
        p2 *= (2 * j - 1) / j
        p0 *= (j - 1) / j
        p2 -= p0
        p0, p1 = p1, p2
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


@lru_cache(maxsize=64)
def _unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n, evaluated by its recurrence, refines the
    nodes in [0, 1) from Tricomi's asymptotic estimate
    (1 - (n-1)/(8n^3) - (39 - 28/sin^2 th)/(384 n^4)) cos th, with
    th = (4k - 1) pi/(4n + 2), until the Newton step is below 1e-15;
    the weights are 2/((1 - x^2) P_n'(x)^2) at the final nodes.  The
    negative half mirrors the positive one, so nodes and weights are
    exactly symmetric, and the middle node of an odd order is exactly 0.
    """
    n = order
    half = n // 2
    th = math.pi * (4.0 * np.arange(1, n - half + 1) - 1.0) / (4.0 * n + 2.0)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)
         - (39.0 - 28.0 / np.sin(th) ** 2) / (384.0 * n**4)) * np.cos(th)
    if n % 2:
        x[-1] = 0.0
    for _ in range(_MAX_NEWTON_STEPS):
        p, dp = _legendre_with_derivative(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise NumericsError(f"Gauss-Legendre nodes of order {n} did not "
                            "converge")
    dp = _legendre_with_derivative(n, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    xs = np.concatenate((-x[:half], x[::-1]))
    ws = np.concatenate((w[:half], w[::-1]))
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def gauss_legendre_rule(order: int, interval: Interval) -> QuadratureRule:
    """Gauss-Legendre rule of the given order mapped onto the interval.

    Exact for polynomials of degree <= 2*order - 1; weights sum to the
    interval width.  order is an integer in [1, MAX_QUAD_ORDER]; anything
    else, a float such as 8.0 included, raises DomainError.
    """
    xs, ws = _unit_rule(
        _require_count(order, "quadrature order", 1, MAX_QUAD_ORDER))
    half = 0.5 * interval.width
    return QuadratureRule(
        nodes=interval.a + half * (xs + 1.0),
        weights=half * ws,
    )


def _dot(weights: np.ndarray, fv: np.ndarray, gv: np.ndarray) -> float:
    return float(np.sum(weights * fv * gv))


def inner_product(f: SampledFunction, g: SampledFunction,
                  rule: QuadratureRule) -> float:
    """Weighted inner product sum_i w_i f(x_i) g(x_i)."""
    return _dot(rule.weights, *_sample_all([f, g], rule.nodes))


def norm(f: SampledFunction, rule: QuadratureRule) -> float:
    """Quadrature L2 norm, sqrt(<f, f>); clamped at zero."""
    fv, = _sample_all([f], rule.nodes)
    return math.sqrt(max(_dot(rule.weights, fv, fv), 0.0))


def _sigmas(f: SampledFunction) -> tuple[float, ...] | None:
    """The sigma of each Z(sigma, .) that f's values are formed from, or
    None when f reaches a callback this module does not own."""
    return (f.eval.sigmas if isinstance(f.eval, (_HardyZ, _Combination))
            else None)


def _sample_all(fs: Sequence[SampledFunction],
                xs: np.ndarray) -> list[np.ndarray]:
    """[f.sample(xs) for f in fs] for the 1-D points xs, from one
    _hardy_z_family call over the distinct sigma of all the members,
    told apart by their bits (float.hex: 0.0 and -0.0 take rows of their
    own, and every NaN shares one).  Each member forms its values from
    those rows in its callback's order, bit for bit, or is NaN
    everywhere when it reaches a plain callback (_sigmas).  The callback
    of each member then fills its refused points (_fill), member by
    member in input order, so the first refusal raises the
    EvaluationError that sampling one member after another would
    raise."""
    xs = np.asarray(xs, dtype=float)
    sigmas = [_sigmas(f) for f in fs]
    distinct = {float(s).hex(): s for part in sigmas if part is not None
                for s in part}
    rows = (dict(zip(distinct, _hardy_z_family(list(distinct.values()), xs)))
            if distinct else {})
    return [f._fill(xs, np.full(xs.size, math.nan) if part is None
                    else f.eval.values(rows))
            for f, part in zip(fs, sigmas)]


def gram_matrix(fs: Sequence[SampledFunction], rule: QuadratureRule) -> GramMatrix:
    """Pairwise inner products; exactly symmetric by construction.  The
    members are sampled on the nodes as by their sample, the Z(sigma, .)
    and Gram-Schmidt outputs among them in one batched call
    (_sample_all)."""
    if len(fs) < 1:
        raise DomainError("gram_matrix needs at least one function")
    samples = _sample_all(fs, rule.nodes)
    n = len(fs)
    g = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(i, n):
            v = _dot(rule.weights, samples[i], samples[j])
            g[i, j] = v
            g[j, i] = v
    return GramMatrix(entries=g)


class _Combination:
    """sum_k c_k f_k over the nonzero coefficients, in index order.  It
    is formed from the family rows of its inputs' sigmas (values) when
    every input is a Z(sigma, .) or such a combination, and sigmas is
    None otherwise.  values adds the inputs' rows in the callback's
    order, so it is the callback's bit for bit, and NaN at each point an
    input's row leaves to the callback."""

    __slots__ = ("terms",)

    def __init__(self, coeffs: np.ndarray, fs: Sequence[SampledFunction]):
        self.terms = [(float(c), f) for c, f in zip(coeffs, fs) if c != 0.0]

    def __call__(self, t: float) -> float:
        # Left to right, as values adds: from Python 3.12 the builtin
        # sum() of floats is compensated.
        total = 0
        for c, f in self.terms:
            total = total + c * f.eval(t)
        return total

    @property
    def sigmas(self) -> tuple[float, ...] | None:
        parts = [_sigmas(f) for _, f in self.terms]
        return None if None in parts else sum(parts, ())

    def values(self, rows: dict[str, np.ndarray]) -> np.ndarray:
        total = 0
        for c, f in self.terms:
            total = total + c * f.eval.values(rows)
        return total


def gram_schmidt(fs: Sequence[SampledFunction],
                 rule: QuadratureRule) -> list[SampledFunction]:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    The first output IS the first input (same callback, bit-identical
    values); later outputs are explicit linear combinations of the
    inputs, so they remain evaluable anywhere on the interval.  Outputs
    are not normalized.  Raises DependenceError naming the first index
    whose residual is not above DEPENDENCE_TOL relative to the input's
    norm: a zero input, or a NaN residual, raises too.

    The inputs are sampled on the nodes as by their sample, the
    Z(sigma, .) and Gram-Schmidt outputs among them in one batched call
    (_sample_all).  An output formed from Z(sigma, .) alone, at any
    depth of nesting, samples as its inputs do: any mix of such outputs
    and Z(sigma, .) is one batched call over their distinct sigma.
    """
    if len(fs) < 1:
        raise DomainError("gram_schmidt needs at least one function")
    w = rule.weights
    samples = _sample_all(fs, rule.nodes)
    basis_vals: list[np.ndarray] = []
    basis_sq: list[float] = []
    coeff_rows: list[np.ndarray] = []
    outputs: list[SampledFunction] = []
    n = len(fs)
    for i in range(n):
        vec = samples[i].copy()
        row = np.zeros(n)
        row[i] = 1.0
        for _pass in range(2):
            for k in range(len(basis_vals)):
                c = _dot(w, vec, basis_vals[k]) / basis_sq[k]
                vec -= c * basis_vals[k]
                row -= c * coeff_rows[k]
        orig = math.sqrt(max(_dot(w, samples[i], samples[i]), 0.0))
        resid = math.sqrt(max(_dot(w, vec, vec), 0.0))
        if not resid > DEPENDENCE_TOL * orig:
            raise DependenceError(index=i, residual=resid / orig if orig else 0.0,
                                  tol=DEPENDENCE_TOL)
        basis_vals.append(vec)
        basis_sq.append(_dot(w, vec, vec))
        coeff_rows.append(row)
        if i == 0:
            outputs.append(replace(fs[0]))
        else:
            outputs.append(
                SampledFunction(
                    eval=_Combination(row, fs),
                    label=f"ortho[{i}]({fs[i].label or i})",
                )
            )
    return outputs


def correlation_matrix(gram: GramMatrix) -> np.ndarray:
    """Scale-free Gram matrix: entries / sqrt(diag_i * diag_j).  A diagonal
    entry that is not positive and finite raises DomainError."""
    diag = np.diag(gram.entries)
    if not (np.all(diag > 0.0) and np.all(np.isfinite(diag))):
        raise DomainError("correlation matrix needs a positive finite "
                          f"diagonal, got {diag!r}")
    d = np.sqrt(diag)
    return gram.entries / np.outer(d, d)


class _HardyZ:
    """Z(sigma, t) = generalized_hardy(sigma, t).z, formed from the family
    row of its sigma (values), a copy, as _fill writes into it.  The
    callback and _sample_all look their kernels up in this module at
    call time, so a wrapper set on them later is still called."""

    __slots__ = ("sigma",)

    def __init__(self, sigma: float):
        self.sigma = sigma

    def __call__(self, t: float) -> float:
        return generalized_hardy(self.sigma, t).z

    @property
    def sigmas(self) -> tuple[float]:
        return (self.sigma,)

    def values(self, rows: dict[str, np.ndarray]) -> np.ndarray:
        return rows[float(self.sigma).hex()].copy()


def hardy_function(sigma: float) -> SampledFunction:
    """Generalized Hardy function Z(sigma, .) as a SampledFunction, on
    the Euler-Maclaurin route.  On the critical line its scan route is
    the Riemann-Siegel sum, which exists only there, and its jet gives
    Z and Z' from one Euler-Maclaurin sum (zetaeval._hardy_z_jet), so
    refine_zero takes Newton steps on it.

    It samples a whole grid in one batched Euler-Maclaurin call
    (zetaeval._hardy_z_family), bit for bit the callback's values at
    every height, factored zeta heads included, and so does any mix of
    such functions and their Gram-Schmidt combinations (_sample_all).
    The call leaves to the callback only the points where the callback
    would raise, so sampling raises the callback's error at the first
    of them."""
    scan_route = jet = None
    if sigma == 0.5:
        # Imported here: zerofinder imports this module.
        from .zerofinder import hardy_rs_function
        # Looked up at call time, as _HardyZ looks up its kernel.
        scan_route, jet = hardy_rs_function(), lambda t: _hardy_z_jet(t)
    return SampledFunction(eval=_HardyZ(sigma), label=f"Z({sigma:g},.)",
                           scan_route=scan_route, jet=jet)


def oscillation_order(interval: Interval) -> int:
    """Quadrature order resolving the fastest oscillation of Z(sigma, .).

    At least MIN_QUAD_ORDER and 4 * width * max|theta'| over the
    interval, with theta' taken at the largest |endpoint| floored at
    2*pi (theta' is monotone increasing past its minimum at t = 2*pi,
    so that suffices).  theta_derivative raises DomainError when that
    height exceeds 1e50.
    """
    hi = max(abs(interval.a), abs(interval.b), TWO_PI)
    rate = abs(theta_derivative(hi))
    return max(MIN_QUAD_ORDER, math.ceil(4.0 * interval.width * rate))


@dataclass(slots=True)
class IndependenceReport:
    """Raw conditioning evidence for a family {Z(sigma_k, .)}.

    Records the determinant and minimum eigenvalue of the correlation
    matrix plus all pairwise correlations; deliberately makes no
    pass/fail judgment.
    """

    sigmas: list[float]
    interval: Interval
    order: int
    correlation_det: float
    min_eigenvalue: float
    correlations: np.ndarray
    gram: GramMatrix

    def pairwise(self) -> list[tuple[float, float, float]]:
        out = []
        for i in range(len(self.sigmas)):
            for j in range(i + 1, len(self.sigmas)):
                out.append((self.sigmas[i], self.sigmas[j],
                            float(self.correlations[i, j])))
        return out


def independence_report(sigmas: Sequence[float], interval: Interval,
                        order: int) -> IndependenceReport:
    """Conditioning evidence for {Z(sigma_k, .)} on an interval."""
    if len(sigmas) < 2:
        raise DomainError("independence_report needs at least two sigmas")
    fs = [hardy_function(s) for s in sigmas]
    rule = gauss_legendre_rule(order, interval)
    gram = gram_matrix(fs, rule)
    corr = correlation_matrix(gram)
    eigs = np.linalg.eigvalsh(corr)
    return IndependenceReport(
        sigmas=list(float(s) for s in sigmas),
        interval=interval,
        order=order,
        correlation_det=float(np.linalg.det(corr)),
        min_eigenvalue=float(eigs[0]),
        correlations=corr,
        gram=gram,
    )
