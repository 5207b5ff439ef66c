import cmath
import math

import numpy as np
import pytest
from scipy.special import loggamma as scipy_loggamma

from hardyzeta.errors import DomainError, PoleError
from hardyzeta.specialfn import (chi, log_gamma, theta, theta_asymptotic,
                                 theta_derivative)

# Frozen from termwise evaluation of the six-term expansion at t = 2*pi:
# -pi - pi/8 + 1/(96 pi) + 7/(5760 (2 pi)^3) + 31/(80640 (2 pi)^5).
THETA_ASYM_AT_2PI = -3.5309710687292757
# Frozen from termwise differentiation at t = 2*pi (main log term vanishes).
THETA_DERIV_AT_2PI = -0.0005300849912547103

# (t, theta_asymptotic(t), theta(t)) bit for bit, as float.hex, frozen
# before the asymptotic form left theta(mode=) for its own function.
THETA_FROZEN = [
    (2.0 * math.pi, "-0x1.c3f6dc27a83e8p+1", "-0x1.c3f6dc2314dbbp+1"),
    (10.0, "-0x1.8895e4d14bdfcp+1", "-0x1.8895e4d13b65cp+1"),
    (14.134725, "-0x1.ba8a2315c2eb9p+0", "-0x1.ba8a2315c004cp+0"),
    (1000.7, "0x1.fd148b649715ep+10", "0x1.fd148b649715dp+10"),
    (7005.06, "0x1.4942783f227a0p+14", "0x1.4942783f2279ep+14"),
    (9999.5, "0x1.f1d052a89808fp+14", "0x1.f1d052a89808ep+14"),
]
# theta_derivative(t) bit for bit, frozen at the same time.
THETA_DERIV_FROZEN = [
    (2.0 * math.pi, "-0x1.15eacd9cc0b3fp-11"),
    (100.0, "0x1.6236863f835cep+0"),
]
# mpmath.siegeltheta(t) at 40 digits, rounded to double, with the bound
# on |theta_asymptotic - siegeltheta| that theta_asymptotic's docstring
# states.  mpmath is not a test dependency, so the values are frozen.
SIEGELTHETA = [
    (2.0 * math.pi, -3.530971066598538, 2.2e-9),
    (10.0, -3.0670743962898954, 3.1e-11),
    (20.0, 1.1868948084444841, 2.4e-13),
]
# Outside 2*pi <= t <= 1e50: not finite, below 2*pi (the expansion is
# off by 7.9e-8 at t = 5), or past the ceiling under the first overflow.
OUTSIDE_ASYMPTOTIC = [math.nan, math.inf, -math.inf, 0.0, 5.0,
                      2.0 * math.pi - 1e-9, 1e51, 1e200]


class TestLogGamma:
    def test_gamma_one_is_one(self):
        assert abs(log_gamma(1.0 + 0.0j)) < 1e-14

    def test_gamma_half(self):
        assert log_gamma(0.5 + 0.0j).real == pytest.approx(
            math.log(math.sqrt(math.pi)), abs=1e-13
        )
        assert log_gamma(0.5 + 0.0j).imag == 0.0

    def test_gamma_four_is_log_six(self):
        assert log_gamma(4.0 + 0.0j).real == pytest.approx(math.log(6.0), abs=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -17.0])
    def test_pole_rejected(self, z):
        with pytest.raises(PoleError):
            log_gamma(complex(z, 0.0))

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            log_gamma(complex(float("nan"), 0.0))

    def test_recurrence_on_grid(self):
        # exp(log_gamma(z+1)) = z exp(log_gamma(z)) to 1e-12 relative.
        for re in np.linspace(0.1, 10.0, 8):
            for im in (-50.0, -7.3, -0.5, 0.0, 1.1, 23.0, 50.0):
                z = complex(re, im)
                lhs = cmath.exp(log_gamma(z + 1.0))
                rhs = z * cmath.exp(log_gamma(z))
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_matches_scipy_both_half_planes(self):
        for re in (-2.3, -0.7, 0.1, 0.25, 0.5, 1.7, 5.0, 9.9):
            for im in (-50.0, -3.2, 0.0, 0.4, 7.7, 50.0):
                z = complex(re, im)
                assert abs(log_gamma(z) - complex(scipy_loggamma(z))) < 1e-11

    @pytest.mark.parametrize("z", [0.3 + 12.7j, -2.3 + 0.0j, -0.7 + 0.0j])
    def test_conjugate_symmetry(self, z):
        # On the negative real axis the signed zero of Im z picks the side
        # of the branch cut, so -0.0 must give the conjugate of +0.0.
        assert log_gamma(z.conjugate()) == log_gamma(z).conjugate()

    @pytest.mark.parametrize(
        "z, expected",
        [
            # Frozen from mpmath.loggamma at 40 digits.
            (0.25 + 7.065j, -10.667368756066683601 + 6.3569318131049627906j),
            (0.25 + 50.0j, -78.598880432701842504 + 145.20865952425722833j),
            (-0.3 - 7.0j, -11.634424736051268852 - 5.3250009182951028939j),
            (2.5 + 30.0j, -39.401169197616284552 + 75.112279562959702944j),
        ],
    )
    def test_matches_frozen_high_precision_values(self, z, expected):
        assert abs(log_gamma(z) - expected) <= 1e-15 * abs(expected)


class TestChi:
    def test_chi_at_half_is_one(self):
        assert abs(chi(0.5 + 0.0j) - 1.0) < 1e-12

    @pytest.mark.parametrize("t", [1.0, 5.0, 10.0, 50.0, 100.0])
    def test_modulus_one_on_critical_line(self, t):
        assert abs(abs(chi(complex(0.5, t))) - 1.0) < 1e-10

    def test_reflection_product_on_grid(self):
        for sigma in (-1.7, -0.9, 0.3, 1.4, 2.6):
            for t in (-19.5, -7.3, 2.1, 11.8, 19.7):
                s = complex(sigma, t)
                assert abs(chi(s) * chi(1.0 - s) - 1.0) < 1e-10

    def test_conjugate_pair_modulus(self):
        s = complex(0.5, 5.0)
        prod = chi(s) * chi(1.0 - s.conjugate()).conjugate()
        assert abs(prod - abs(chi(s)) ** 2) < 1e-12

    @pytest.mark.parametrize("s", [1.0, 3.0, 0.0, -2.0])
    def test_poles_rejected(self, s):
        with pytest.raises(PoleError):
            chi(complex(s, 0.0))


class TestTheta:
    def test_exact_at_zero(self):
        assert abs(theta(0.0)) < 1e-14

    def test_asymptotic_at_2pi(self):
        value = theta_asymptotic(2.0 * math.pi)
        assert value == pytest.approx(THETA_ASYM_AT_2PI, abs=1e-14)
        assert value == pytest.approx(-3.530971, abs=1e-6)

    def test_modes_agree_at_50(self):
        d = abs(theta(50.0) - theta_asymptotic(50.0))
        assert d < 1e-12

    def test_modes_agree_20_to_1000(self):
        worst = max(
            abs(theta(float(t)) - theta_asymptotic(float(t)))
            for t in range(20, 1001)
        )
        assert worst < 1e-9

    @pytest.mark.parametrize("t, asym, exact", THETA_FROZEN)
    def test_bit_identical(self, t, asym, exact):
        assert theta_asymptotic(t).hex() == asym
        assert theta(t).hex() == exact

    @pytest.mark.parametrize("t, reference, bound", SIEGELTHETA)
    def test_asymptotic_error_against_siegeltheta(self, t, reference, bound):
        assert abs(theta_asymptotic(t) - reference) <= bound

    def test_asymptotic_domain(self):
        for t in OUTSIDE_ASYMPTOTIC + [-3.0]:
            with pytest.raises(DomainError, match=r"2\*pi"):
                theta_asymptotic(t)

    def test_refused_below_2pi(self):
        # Where the expansion used to warn, it now refuses.
        for t in (5.0, 2.0 * math.pi - 1e-9):
            with pytest.raises(DomainError, match=r"2\*pi"):
                theta_asymptotic(t)

    def test_asymptotic_domain_ends_are_inside(self):
        assert math.isfinite(theta_asymptotic(2.0 * math.pi))
        assert math.isfinite(theta_asymptotic(1e50))

    def test_exact_any_real_t(self):
        assert math.isfinite(theta(-42.0))
        assert theta(-42.0) == pytest.approx(-theta(42.0), abs=1e-11)


class TestThetaDerivative:
    def test_frozen_value_at_2pi(self):
        d = theta_derivative(2.0 * math.pi)
        assert d == pytest.approx(THETA_DERIV_AT_2PI, abs=1e-15)
        assert d == pytest.approx(-0.000527, abs=5e-6)

    @pytest.mark.parametrize("t, expected", THETA_DERIV_FROZEN)
    def test_bit_identical(self, t, expected):
        assert theta_derivative(t).hex() == expected

    def test_main_term_unity(self):
        # log(t/2pi)/2 = 1 at t = 2 pi e^2; corrections are ~1e-5 there.
        assert theta_derivative(2.0 * math.pi * math.e**2) == pytest.approx(
            1.0, abs=1e-4
        )

    @pytest.mark.parametrize("t", [12.0, 30.0, 100.0, 555.5, 2000.0])
    def test_matches_finite_difference(self, t):
        h = 1e-5 * t
        fd = (theta_asymptotic(t + h) - theta_asymptotic(t - h)) / (2.0 * h)
        d = theta_derivative(t)
        assert abs(d - fd) <= 1e-8 * max(1.0, abs(d))

    def test_domain(self):
        for t in OUTSIDE_ASYMPTOTIC + [-5.0]:
            with pytest.raises(DomainError, match=r"2\*pi"):
                theta_derivative(t)
