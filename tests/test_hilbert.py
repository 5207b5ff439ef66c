import math

import numpy as np
import pytest

from hardyzeta.errors import DependenceError, DomainError, EvaluationError
from hardyzeta.hilbert import (
    Interval,
    SampledFunction,
    correlation_matrix,
    gauss_legendre_rule,
    gram_matrix,
    gram_schmidt,
    hardy_function,
    independence_report,
    inner_product,
    norm,
    oscillation_order,
)

ONE = SampledFunction(lambda x: 1.0, "1")
X = SampledFunction(lambda x: x, "x")
X2 = SampledFunction(lambda x: x * x, "x^2")
SIN = SampledFunction(math.sin, "sin")
COS = SampledFunction(math.cos, "cos")


class TestSample:
    @pytest.mark.parametrize("xs", [[0.5, 1, np.float32(0.25)],
                                    np.array([0.5, 1.0, 0.25])])
    def test_points_reach_the_callback_as_floats(self, xs):
        seen = []
        f = SampledFunction(lambda x: seen.append(x) or 2.0 * x, "2x")
        out = f.sample(xs)
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 2.0, 0.5]
        assert seen == [0.5, 1.0, 0.25]
        assert [type(x) for x in seen] == [float, float, float]

    @pytest.mark.parametrize("xs", [[], np.empty(0), ()])
    def test_empty_input(self, xs):
        out = SIN.sample(xs)
        assert out.shape == (0,) and out.dtype == np.float64

    def test_error_carries_first_failing_point(self):
        calls = []

        def bad(t):
            calls.append(t)
            if t > 0.5:
                raise ValueError("boom")
            return t

        xs = np.linspace(0.0, 1.0, 11)
        with pytest.raises(EvaluationError, match="boom") as err:
            SampledFunction(bad, "bad").sample(xs)
        assert err.value.point == 0.6000000000000001 == xs[6]
        assert type(err.value.point) is float
        assert calls == xs[:7].tolist()

    @pytest.mark.parametrize("value", [1j, complex(2.0, 0.0), None])
    def test_non_real_result_raises(self, value):
        f = SampledFunction(lambda x: value if x > 1.0 else x, "odd")
        with pytest.raises(EvaluationError) as err:
            f.sample([0.5, 1.5, 2.5])
        assert err.value.point == 1.5

    # float() of a numpy complex scalar only warns and keeps the real
    # part, so the warning is ignored here: the refusal must not rely on
    # warnings being errors.
    @pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
    @pytest.mark.parametrize("kind", [complex, np.complex128, np.complex64])
    def test_complex_result_of_any_type_raises(self, kind):
        f = SampledFunction(lambda x: kind(x) if x > 1.0 else x, "odd")
        with pytest.raises(EvaluationError, match="complex") as err:
            f.sample([0.5, 1.5, 2.5])
        assert err.value.point == 1.5


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            Interval(2.0, 2.0)
        with pytest.raises(DomainError):
            Interval(3.0, 1.0)

    def test_finite_enforced(self):
        with pytest.raises(DomainError):
            Interval(0.0, math.inf)


class TestQuadrature:
    def test_order_one_is_midpoint(self):
        rule = gauss_legendre_rule(1, Interval(0.0, 2.0))
        assert rule.nodes[0] == pytest.approx(1.0, abs=1e-15)
        assert rule.weights[0] == pytest.approx(2.0, abs=1e-15)

    def test_order_two_exact_cubic(self):
        rule = gauss_legendre_rule(2, Interval(0.0, 1.0))
        cube = SampledFunction(lambda x: x**3, "x^3")
        assert inner_product(cube, ONE, rule) == pytest.approx(0.25, abs=1e-14)

    def test_weight_sum(self):
        rule = gauss_legendre_rule(64, Interval(-1.0, 1.0))
        assert abs(float(np.sum(rule.weights)) - 2.0) < 1e-14

    def test_order_bounds(self):
        with pytest.raises(DomainError):
            gauss_legendre_rule(0, Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            gauss_legendre_rule(4097, Interval(0.0, 1.0))


class TestInnerProduct:
    def test_odd_integrand_vanishes(self):
        rule = gauss_legendre_rule(64, Interval(-math.pi, math.pi))
        assert abs(inner_product(SIN, COS, rule)) < 1e-12

    def test_constant(self):
        rule = gauss_legendre_rule(8, Interval(0.0, 2.0))
        assert inner_product(ONE, ONE, rule) == pytest.approx(2.0, abs=1e-14)

    def test_hardy_pair_stable_under_order_doubling(self):
        iv = Interval(10.0, 20.0)
        f, g = hardy_function(0.3), hardy_function(0.7)
        v256 = inner_product(f, g, gauss_legendre_rule(256, iv))
        v512 = inner_product(f, g, gauss_legendre_rule(512, iv))
        assert math.isfinite(v256)
        assert abs(v256 - v512) < 1e-8

    def test_evaluation_failure_carries_node(self):
        def bad(t):
            if t > 0.5:
                raise ValueError("boom")
            return t

        rule = gauss_legendre_rule(8, Interval(0.0, 1.0))
        f = SampledFunction(bad, "bad")
        with pytest.raises(EvaluationError) as err:
            inner_product(f, ONE, rule)
        first_bad = rule.nodes[np.flatnonzero(rule.nodes > 0.5)[0]]
        assert err.value.point == first_bad


class TestNorm:
    def test_constant_on_0_4(self):
        assert norm(ONE, gauss_legendre_rule(8, Interval(0.0, 4.0))) == (
            pytest.approx(2.0, abs=1e-14)
        )

    def test_linear_on_0_1(self):
        assert norm(X, gauss_legendre_rule(8, Interval(0.0, 1.0))) == (
            pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)
        )

    def test_homogeneity_on_hardy(self):
        rule = gauss_legendre_rule(256, Interval(10.0, 20.0))
        f = hardy_function(0.5)
        scaled = SampledFunction(lambda t: -3.0 * f.eval(t), "-3Z")
        assert norm(scaled, rule) == pytest.approx(3.0 * norm(f, rule),
                                                   rel=1e-12)

    def test_samples_each_node_once(self):
        calls = []

        def counted(t):
            calls.append(t)
            return math.sin(t)

        rule = gauss_legendre_rule(16, Interval(0.0, 2.0))
        value = norm(SampledFunction(counted, "sin"), rule)
        assert len(calls) == 16
        assert value == math.sqrt(inner_product(SIN, SIN, rule))


class TestGramMatrix:
    def test_singleton(self):
        rule = gauss_legendre_rule(16, Interval(0.0, 1.0))
        g = gram_matrix([X], rule)
        assert g.entries.shape == (1, 1)
        assert g.entries[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_sin_cos_diagonal(self):
        rule = gauss_legendre_rule(64, Interval(0.0, 2.0 * math.pi))
        g = gram_matrix([SIN, COS], rule)
        assert g.entries[0, 0] == pytest.approx(math.pi, abs=1e-10)
        assert g.entries[1, 1] == pytest.approx(math.pi, abs=1e-10)
        assert abs(g.entries[0, 1]) < 1e-10

    def test_exact_dependence_kills_determinant(self):
        rule = gauss_legendre_rule(32, Interval(0.0, 1.0))
        f2 = SampledFunction(lambda x: 2.0 * x, "2x")
        g = gram_matrix([X, f2], rule)
        scale = float(np.max(np.abs(g.entries))) ** 2
        assert abs(g.determinant()) < 1e-10 * scale

    def test_exactly_symmetric(self):
        rule = gauss_legendre_rule(128, Interval(10.0, 20.0))
        fam = [hardy_function(s) for s in (0.3, 0.5, 0.8)]
        g = gram_matrix(fam, rule).entries
        assert np.array_equal(g, g.T)

    def test_psd_up_to_roundoff(self):
        rule = gauss_legendre_rule(128, Interval(10.0, 30.0))
        fam = [hardy_function(s) for s in (0.3, 0.4, 0.5, 0.6)]
        g = gram_matrix(fam, rule)
        assert g.min_eigenvalue() >= -1e-10 * float(np.trace(g.entries))

    def test_empty_rejected(self):
        rule = gauss_legendre_rule(8, Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            gram_matrix([], rule)


class TestGramSchmidt:
    def test_legendre_emerges(self):
        rule = gauss_legendre_rule(32, Interval(-1.0, 1.0))
        outs = gram_schmidt([ONE, X, X2], rule)
        for x in np.linspace(-0.95, 0.95, 11):
            assert outs[2].eval(float(x)) == pytest.approx(x * x - 1.0 / 3.0,
                                                           abs=1e-10)

    def test_orthogonal_inputs_pass_through(self):
        rule = gauss_legendre_rule(64, Interval(0.0, 2.0 * math.pi))
        outs = gram_schmidt([SIN, COS], rule)
        for x in (0.3, 1.7, 4.4):
            assert outs[1].eval(x) == pytest.approx(math.cos(x), abs=1e-12)

    def test_first_element_bit_identical(self):
        iv = Interval(10.0, 50.0)
        rule = gauss_legendre_rule(256, iv)
        fam = [hardy_function(s) for s in (0.5, 0.3, 0.4)]
        outs = gram_schmidt(fam, rule)
        assert outs[0].eval is fam[0].eval
        sampled_in = fam[0].sample(rule.nodes)
        sampled_out = outs[0].sample(rule.nodes)
        assert np.array_equal(sampled_in, sampled_out)

    def test_hardy_family_orthogonal_after(self):
        iv = Interval(10.0, 50.0)
        rule = gauss_legendre_rule(256, iv)
        fam = [hardy_function(s) for s in (0.5, 0.3, 0.4)]
        outs = gram_schmidt(fam, rule)
        corr = correlation_matrix(gram_matrix(outs, rule))
        off = np.max(np.abs(corr - np.diag(np.diag(corr))))
        assert off < 1e-10

    def test_dependence_detected_with_index(self):
        rule = gauss_legendre_rule(32, Interval(0.0, 1.0))
        f2 = SampledFunction(lambda x: 2.0 * x, "2x")
        with pytest.raises(DependenceError) as err:
            gram_schmidt([X, f2], rule)
        assert err.value.index == 1


class TestIndependenceReport:
    def test_identical_sigmas(self):
        rep = independence_report([0.5, 0.5], Interval(10.0, 50.0), 128)
        assert rep.correlations[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.correlation_det) < 1e-10

    def test_reflective_pair_measured(self):
        rep = independence_report([0.3, 0.7], Interval(10.0, 50.0), 256)
        c = rep.correlations[0, 1]
        assert -1.0 < c < 1.0

    def test_non_reflective_pair_det_positive(self):
        rep = independence_report([0.3, 0.6], Interval(10.0, 50.0), 256)
        assert rep.correlation_det > 0.0

    def test_needs_two(self):
        with pytest.raises(DomainError):
            independence_report([0.5], Interval(10.0, 50.0), 64)


def test_oscillation_order_scales_with_width():
    small = oscillation_order(Interval(10.0, 20.0))
    large = oscillation_order(Interval(10.0, 50.0))
    assert large > small >= 32
