"""Finite-interval Hilbert-space numerics.

Gauss-Legendre quadrature rules, weighted inner products and norms,
Gram matrices, modified Gram-Schmidt orthogonalization (with one
re-orthogonalization pass), and linear-(in)dependence evidence for
families of generalized Hardy functions Z(sigma, .).

Everything is deterministic: rules are cached per order, reductions run
in index order, and the first Gram-Schmidt output reuses the input
callback unchanged so it is bit-identical to the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_legendre

from .errors import DependenceError, DomainError, EvaluationError
from .specialfn import DEFAULT_T_MIN, theta_derivative
from .zetaeval import EvalConfig, generalized_hardy

MAX_QUAD_ORDER = 4096

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


@dataclass
class SampledFunction:
    """A real function of one real variable plus a label for messages.

    The callback must be deterministic.
    """

    eval: Callable[[float], float]
    label: str = ""

    def __call__(self, t: float) -> float:
        return self.eval(t)

    def sample(self, xs: np.ndarray) -> np.ndarray:
        out = np.empty(len(xs), dtype=float)
        for i, x in enumerate(xs):
            try:
                out[i] = self.eval(float(x))
            except Exception as exc:
                raise EvaluationError(
                    f"{self.label or 'function'} failed at t={float(x)!r}: {exc}",
                    point=float(x),
                ) from exc
        return out


@dataclass
class GramMatrix:
    """Matrix of pairwise inner products."""

    entries: np.ndarray

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def determinant(self) -> float:
        return float(np.linalg.det(self.entries))


@lru_cache(maxsize=64)
def _unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = roots_legendre(order)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def gauss_legendre_rule(order: int, interval: Interval) -> QuadratureRule:
    """Gauss-Legendre rule of the given order mapped onto the interval.

    Exact for polynomials of degree <= 2*order - 1; weights sum to the
    interval width.
    """
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise DomainError(
            f"quadrature order must be in [1, {MAX_QUAD_ORDER}], got {order}"
        )
    xs, ws = _unit_rule(order)
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
    return _dot(rule.weights, f.sample(rule.nodes), g.sample(rule.nodes))


def norm(f: SampledFunction, rule: QuadratureRule) -> float:
    """Quadrature L2 norm, sqrt(<f, f>); clamped at zero."""
    fv = f.sample(rule.nodes)
    return math.sqrt(max(_dot(rule.weights, fv, fv), 0.0))


def gram_matrix(fs: Sequence[SampledFunction], rule: QuadratureRule) -> GramMatrix:
    """Pairwise inner products; exactly symmetric by construction."""
    if len(fs) < 1:
        raise DomainError("gram_matrix needs at least one function")
    samples = [f.sample(rule.nodes) for f in fs]
    n = len(fs)
    g = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(i, n):
            v = _dot(rule.weights, samples[i], samples[j])
            g[i, j] = v
            g[j, i] = v
    return GramMatrix(entries=g)


def _combination(coeffs: np.ndarray,
                 fs: Sequence[SampledFunction]) -> Callable[[float], float]:
    active = [(float(c), f) for c, f in zip(coeffs, fs) if c != 0.0]

    def _eval(t: float) -> float:
        return sum(c * f.eval(t) for c, f in active)

    return _eval


def gram_schmidt(fs: Sequence[SampledFunction], rule: QuadratureRule,
                 tol: float = 1e-10) -> list[SampledFunction]:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    The first output IS the first input (same callback, bit-identical
    values); later outputs are explicit linear combinations of the
    inputs, so they remain evaluable anywhere on the interval.  Outputs
    are not normalized.  Raises DependenceError naming the first index
    whose residual drops below tol relative to the input's norm.
    """
    if len(fs) < 1:
        raise DomainError("gram_schmidt needs at least one function")
    w = rule.weights
    samples = [f.sample(rule.nodes) for f in fs]
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
        if resid < tol * orig:
            raise DependenceError(index=i, residual=resid / orig if orig else 0.0,
                                  tol=tol)
        basis_vals.append(vec)
        basis_sq.append(_dot(w, vec, vec))
        coeff_rows.append(row)
        if i == 0:
            outputs.append(SampledFunction(eval=fs[0].eval,
                                           label=fs[0].label))
        else:
            outputs.append(
                SampledFunction(
                    eval=_combination(row, fs),
                    label=f"ortho[{i}]({fs[i].label or i})",
                )
            )
    return outputs


def correlation_matrix(gram: GramMatrix) -> np.ndarray:
    """Scale-free Gram matrix: entries / sqrt(diag_i * diag_j)."""
    d = np.sqrt(np.diag(gram.entries))
    if np.any(d <= 0.0):
        raise DomainError("correlation matrix undefined for a zero function")
    return gram.entries / np.outer(d, d)


def hardy_function(sigma: float, cfg: EvalConfig | None = None) -> SampledFunction:
    """Generalized Hardy function Z(sigma, .) as a SampledFunction."""

    def _eval(t: float) -> float:
        return generalized_hardy(sigma, t, cfg).z

    return SampledFunction(eval=_eval, label=f"Z({sigma:g},.)")


def oscillation_order(interval: Interval) -> int:
    """Quadrature order resolving the fastest oscillation of Z(sigma, .).

    At least MIN_QUAD_ORDER and 4 * width * max|theta'| over the
    interval (theta' is monotone increasing past its minimum at
    t = 2*pi, so the endpoint maximum suffices).
    """
    hi = max(abs(interval.a), abs(interval.b), DEFAULT_T_MIN)
    rate = abs(theta_derivative(hi))
    return max(MIN_QUAD_ORDER, math.ceil(4.0 * interval.width * rate))


@dataclass
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
                        order: int,
                        cfg: EvalConfig | None = None) -> IndependenceReport:
    """Conditioning evidence for {Z(sigma_k, .)} on an interval."""
    if len(sigmas) < 2:
        raise DomainError("independence_report needs at least two sigmas")
    fs = [hardy_function(s, cfg) for s in sigmas]
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
