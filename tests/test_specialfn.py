import cmath
import math
import random

import numpy as np
import pytest
from scipy.special import loggamma as scipy_loggamma

from hardyzeta import hilbert, zerofinder, zetaeval
from hardyzeta.errors import DomainError, PoleError
from hardyzeta.hilbert import (MAX_QUAD_ORDER, Interval, gauss_legendre_rule,
                               hardy_function)
from hardyzeta.polyzero import (MAX_PROJECT_DEGREE, project,
                                zero_convergence_study)
from hardyzeta.specialfn import (chi, log_gamma, theta, theta_asymptotic,
                                 theta_derivative)
from hardyzeta.zetaeval import (MAX_TERMS, dirichlet_partial_sums,
                                residue_identity_residual)

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

    def test_gamma_two_is_one(self):
        # z = 2 sits at the centre of the Taylor branch around 2, where
        # log(z - 1) is the series in z - 2 evaluated at 0.
        assert log_gamma(2.0 + 0.0j) == 0.0
        assert cmath.isfinite(chi(2.0 + 0.0j))
        assert math.isfinite(residue_identity_residual(-1.0 + 0.0j, 50))

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

    @pytest.mark.parametrize("z", [-0.5 + 1j, -2.5 - 3j])
    def test_half_integer_real_part_equals_scipy(self, z):
        # cos(pi Re z) is exactly 0 here, where the reflection formula's
        # sin(pi z) is purely real.
        assert log_gamma(z) == complex(scipy_loggamma(z))

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


def _mpmath_log_gamma_errors(points):
    """|log_gamma(z) - mpmath.loggamma(z)| / max(1, |log Gamma(z)|) at
    40 digits, for each z."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for z in points:
            ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
            yield z, abs(log_gamma(z) - ref) / max(1.0, abs(ref))


class TestLogGammaAgainstMpmath:
    def test_strip_to_2e4(self):
        # Uniform in |Im z|, so nearly every point takes the Stirling
        # branch, the one theta uses above t = 14; the branches below
        # |Im z| = 7 are held to their own bound in the next test.
        rng = random.Random(20180)
        points = [complex(rng.uniform(-20.0, 30.0),
                          rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 2e4))
                  for _ in range(2000)]
        for z, err in _mpmath_log_gamma_errors(points):
            assert err <= 1e-15, z

    def test_recurrence_reflection_and_taylor_branches(self):
        # Re z <= 7 and |Im z| <= 7: the recurrence loses a few ulps to
        # cancellation where |log Gamma| is small.  The worst of 20000
        # seeded points was 4.7e-15, the same as scipy.special.loggamma
        # gives on them.
        rng = random.Random(2718)
        points = [complex(rng.uniform(-20.0, 7.0),
                          rng.choice((-1.0, 1.0))
                          * 10.0 ** rng.uniform(-3.0, math.log10(7.0)))
                  for _ in range(1000)]
        for z, err in _mpmath_log_gamma_errors(points):
            assert err <= 1e-14, z


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

    def test_exact_refuses_overflowing_phase(self):
        # log-gamma's phase at 1/4 + it/2 overflows between 5e305 and
        # 6e305; it used to come back as inf.
        assert math.isfinite(theta(5e305))
        for t in (6e305, 1e306, -1e306, 1e308):
            with pytest.raises(DomainError, match="overflows"):
                theta(t)


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


# Every count argument, as (call, name in the message, lo, hi, a valid
# count, the result's bits).  call(n, f) passes n as the count; f is the
# contour's function where there is one.
_STUDY_IV = Interval(10.0, 30.0)
_BOX = (0.5, 1.0, 80.0, 90.0)
COUNT_SITES = {
    "dirichlet_partial_sums": (
        lambda n, f: dirichlet_partial_sums(complex(0.5, 30.0), n),
        "n_max", 1, MAX_TERMS, 50,
        lambda p: (p.points.tobytes(), p.midpoints.tobytes())),
    "residue_identity_residual": (
        lambda n, f: residue_identity_residual(-1.5 + 0.0j, n),
        "n_max", 1, MAX_TERMS, 50, float.hex),
    "argument_principle_count": (
        lambda n, f: zerofinder.argument_principle_count(f, _BOX, n),
        "n_per_side", 2, MAX_TERMS // 4, 16, int),
    "gauss_legendre_rule": (
        lambda n, f: gauss_legendre_rule(n, _STUDY_IV),
        "quadrature order", 1, MAX_QUAD_ORDER, 8,
        lambda r: (r.nodes.tobytes(), r.weights.tobytes())),
    "project": (
        lambda n, f: project(hardy_function(0.5), _STUDY_IV, n),
        "degree", 1, MAX_PROJECT_DEGREE, 8,
        lambda r: (r.poly.coeffs.tobytes(), r.l2_error.hex())),
    "zero_convergence_study": (
        lambda n, f: zero_convergence_study(hardy_function(0.5), _STUDY_IV,
                                            [20, n]),
        "degree", 1, MAX_PROJECT_DEGREE, 24,
        lambda out: [(type(c.degree), c.degree, c.function_zeros,
                      c.polynomial_zeros, c.l2_error.hex()) for c in out]),
}
# Everything a count site may evaluate or build.
_EVALUATORS = [(zetaeval, "_em_blocks"), (zetaeval, "zeta_em"),
               (zetaeval, "_powers"), (zetaeval, "hurwitz_zeta"),
               (zerofinder, "hardy_z_rs"), (hilbert, "_hardy_z_family"),
               (hilbert, "generalized_hardy"), (hilbert, "_unit_rule")]


def _bad_counts(lo, hi):
    return [5.5, 8.0, "8", None, lo - 1, hi + 1]


class TestRequireCount:
    """One rule for every count: an integer (what operator.index takes)
    in [lo, hi], or DomainError naming the argument before anything is
    evaluated."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        seen = []
        for module, attr in _EVALUATORS:
            original = getattr(module, attr)
            monkeypatch.setattr(
                module, attr,
                lambda *a, _o=original, _n=attr: seen.append(_n) or _o(*a))
        return seen

    @pytest.mark.parametrize("site,n", [
        (site, n) for site, (_, _, lo, hi, _, _) in COUNT_SITES.items()
        for n in _bad_counts(lo, hi)])
    def test_refused_before_any_evaluation(self, evaluated, site, n):
        call, name, *_ = COUNT_SITES[site]
        with pytest.raises(DomainError,
                           match=rf"^{name}( \(.*\))? must be an integer"):
            call(n, lambda z: evaluated.append("f") or z - complex(0.7, 85.0))
        assert evaluated == []

    @pytest.mark.parametrize("site", list(COUNT_SITES))
    def test_numpy_integer_gives_the_int_bits(self, site):
        call, _, _, _, k, bits = COUNT_SITES[site]
        f = lambda z: z - complex(0.7, 85.0)
        assert bits(call(np.int64(k), f)) == bits(call(k, f))

    def test_study_checks_every_degree_before_its_scan(self, evaluated):
        with pytest.raises(DomainError, match="degree"):
            zero_convergence_study(hardy_function(0.5), _STUDY_IV, [20, 600])
        assert evaluated == []
