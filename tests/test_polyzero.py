import math

import numpy as np
import pytest

from hardyzeta.errors import DomainError
from hardyzeta.hilbert import Interval, SampledFunction, hardy_function
from hardyzeta.polyzero import (
    Basis,
    PolynomialRealCoeffs,
    _match_sorted,
    poly_real_zeros,
    project,
    zero_convergence_study,
)


class TestProject:
    def test_polynomial_round_trip(self):
        f = SampledFunction(lambda x: 3.0 * x * x - 1.0, "3x^2-1")
        iv = Interval(-1.0, 1.0)
        res = project(f, iv, 2)
        for x in np.linspace(-1.0, 1.0, 21):
            assert res.poly.evaluate(float(x)) == pytest.approx(
                3.0 * x * x - 1.0, abs=1e-12
            )
        assert res.l2_error < 1e-12

    def test_zero_function(self):
        f = SampledFunction(lambda x: 0.0, "0")
        res = project(f, Interval(0.0, 1.0), 5)
        assert np.all(res.poly.coeffs == 0.0)

    def test_hardy_error_decreases_with_degree(self):
        # Spectral decay is strict until the error floors out at machine
        # precision (~1e-13 by degree 20 on this interval).
        f = hardy_function(0.5)
        iv = Interval(10.0, 20.0)
        errors = [project(f, iv, d).l2_error for d in (5, 10, 15, 20)]
        assert all(a > b for a, b in zip(errors[:-1], errors[1:]))
        assert project(f, iv, 40).l2_error < 1e-10

    def test_degree_bounds(self):
        f = SampledFunction(lambda x: x, "x")
        with pytest.raises(DomainError):
            project(f, Interval(0.0, 1.0), 0)
        with pytest.raises(DomainError):
            project(f, Interval(0.0, 1.0), 513)
        with pytest.raises(DomainError):
            project(f, Interval(0.0, 1.0), 8, order=10)

    def test_monomial_normal_equations_collapse(self):
        # same smooth target, same degree: the monomial route's
        # Hilbert-like Gram matrix wrecks the fit, the Legendre route
        # nails it.
        f = SampledFunction(lambda x: math.sin(3.0 * x) * math.exp(-x), "s3e")
        iv = Interval(0.0, 2.0)
        leg = project(f, iv, 25, basis=Basis.LEGENDRE)
        mono = project(f, iv, 25, basis=Basis.MONOMIAL)
        assert leg.l2_error < 1e-12
        assert mono.l2_error > 1e6 * leg.l2_error


class TestPolyRealZeros:
    def test_monomial_quadratic(self):
        p = PolynomialRealCoeffs(np.array([-1.0, 0.0, 1.0]), Basis.MONOMIAL,
                                 Interval(-2.0, 2.0))
        assert poly_real_zeros(p) == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_legendre_p3(self):
        p = PolynomialRealCoeffs(np.array([0.0, 0.0, 0.0, 1.0]),
                                 Basis.LEGENDRE, Interval(-1.0, 1.0))
        r = math.sqrt(3.0 / 5.0)
        assert poly_real_zeros(p) == pytest.approx([-r, 0.0, r], abs=1e-12)

    def test_projected_sin_zeros(self):
        f = SampledFunction(math.sin, "sin")
        res = project(f, Interval(1.0, 10.0), 25)
        zeros = poly_real_zeros(res.poly)
        assert len(zeros) == 3
        for z, ref in zip(zeros, (math.pi, 2.0 * math.pi, 3.0 * math.pi)):
            assert abs(z - ref) < 1e-8

    def test_zeros_inside_and_small(self):
        f = SampledFunction(math.sin, "sin")
        iv = Interval(1.0, 10.0)
        res = project(f, iv, 25)
        zeros = poly_real_zeros(res.poly)
        xs = np.linspace(iv.a, iv.b, 400)
        scale = float(np.max(np.abs(res.poly.evaluate(xs))))
        for z in zeros:
            assert iv.a < z < iv.b
            assert abs(res.poly.evaluate(z)) < 1e-8 * scale

    def test_degree_zero_rejected(self):
        p = PolynomialRealCoeffs(np.array([2.0]), Basis.MONOMIAL,
                                 Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            poly_real_zeros(p)

    def test_trailing_trim(self):
        p = PolynomialRealCoeffs(np.array([1.0, 1.0, 1e-20]), Basis.MONOMIAL,
                                 Interval(0.0, 1.0))
        assert p.degree == 1


class TestMatching:
    def test_equal_lengths_pair_in_order(self):
        pairs = _match_sorted([1.0, 2.0, 3.0], [1.1, 2.2, 2.9])
        assert [(a, b) for a, b, _ in pairs] == [(1.0, 1.1), (2.0, 2.2),
                                                 (3.0, 2.9)]

    def test_extra_beta_skipped(self):
        pairs = _match_sorted([1.0, 2.0], [0.2, 1.05, 1.95])
        assert [(a, b) for a, b, _ in pairs] == [(1.0, 1.05), (2.0, 1.95)]

    def test_extra_alpha_skipped(self):
        pairs = _match_sorted([0.2, 1.0, 2.0], [1.05, 1.95])
        assert [(a, b) for a, b, _ in pairs] == [(1.0, 1.05), (2.0, 1.95)]

    def test_empty(self):
        assert _match_sorted([], [1.0]) == []


class TestZeroConvergence:
    def test_sin_degrees(self):
        f = SampledFunction(math.sin, "sin")
        comps = zero_convergence_study(f, Interval(1.0, 10.0), [15, 20, 25])
        by_degree = {c.degree: c for c in comps}
        assert by_degree[25].max_deviation < 1e-8
        assert by_degree[25].max_deviation < by_degree[15].max_deviation
        assert len(by_degree[25].matched_pairs) == 3

    def test_constant_has_no_zeros(self):
        f = SampledFunction(lambda x: 1.0, "1")
        comps = zero_convergence_study(f, Interval(0.0, 5.0), [3, 6])
        for c in comps:
            assert c.function_zeros == []
            assert c.matched_pairs == []

    def test_hardy_on_10_30(self):
        f = hardy_function(0.5)
        comps = zero_convergence_study(f, Interval(10.0, 30.0), [20, 30, 40])
        by_degree = {c.degree: c for c in comps}
        assert by_degree[40].max_deviation < 1e-6
        assert by_degree[40].max_deviation < by_degree[20].max_deviation

    def test_empty_degrees_rejected(self):
        f = SampledFunction(math.sin, "sin")
        with pytest.raises(DomainError):
            zero_convergence_study(f, Interval(1.0, 10.0), [])

    def test_l2_error_is_the_projections(self):
        f = SampledFunction(math.sin, "sin")
        iv = Interval(1.0, 10.0)
        comps = zero_convergence_study(f, iv, [15, 20, 25])
        for c in comps:
            assert c.l2_error == project(f, iv, c.degree).l2_error
