import cmath
import math

import numpy as np
import pytest

from hardyzeta.errors import DomainError, PoleError
from hardyzeta.specialfn import chi, log_gamma
from hardyzeta.zetaeval import (
    EM_TOL,
    KAPPA,
    MAX_TERMS,
    EvalConfig,
    davenport_heilbronn,
    dirichlet_l_mod5,
    dirichlet_partial_sums,
    generalized_hardy,
    hardy_z_rs,
    hurwitz_zeta,
    residue_identity_residual,
    zeta_em,
)

# zeta(1/2), frozen from the em_terms=1e4 oracle (test_half_matches_oracle
# recomputes it); agrees with the default config to 2e-15.
ZETA_HALF = -1.4603545088095868

# Closed form (sqrt(10 - 2 sqrt 5) - 2)/(sqrt 5 - 1), re-derived in
# test_kappa_closed_form.
KAPPA_FROZEN = 0.28407904384041227


class TestZetaEm:
    def test_zeta_two(self):
        assert abs(zeta_em(2.0 + 0.0j) - math.pi**2 / 6.0) < 1e-12

    def test_zeta_zero(self):
        assert abs(zeta_em(0.0 + 0.0j) - (-0.5)) < 1e-12

    def test_zeta_half_frozen(self):
        assert zeta_em(0.5 + 0.0j).real == pytest.approx(ZETA_HALF, abs=1e-10)

    def test_half_matches_oracle(self):
        oracle = zeta_em(0.5 + 0.0j, EvalConfig(em_terms=10**4))
        assert oracle.real == pytest.approx(ZETA_HALF, abs=1e-13)
        assert abs(zeta_em(0.5 + 0.0j) - oracle) < 1e-12

    def test_pole(self):
        with pytest.raises(PoleError):
            zeta_em(1.0 + 0.0j)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            zeta_em(complex(float("nan"), 2.0))
        with pytest.raises(DomainError):
            zeta_em(complex(0.5, float("inf")))

    def test_refuses_uncertified_cutoff(self):
        with pytest.raises(DomainError, match="em_terms=20"):
            zeta_em(complex(0.5, 400.0), EvalConfig(em_terms=20))

    @pytest.mark.parametrize("s", [0.5 + 300j, 0.5 + 1000j, 2 + 500j, -1 + 200j])
    def test_smallest_certified_cutoff_meets_tolerance(self, s):
        n = math.ceil(s.imag / (2.0 * math.pi))
        while True:
            try:
                value = zeta_em(s, EvalConfig(em_terms=n))
                break
            except DomainError:
                n += 1
        oracle = zeta_em(s, EvalConfig(em_terms=10**4))
        assert abs(value - oracle) <= EM_TOL * max(1.0, abs(value))

    def test_default_cutoff_always_certified(self):
        for sigma in np.linspace(-2.0, 3.0, 6):
            for t in (-1e4, -2500.0, -30.0, 0.5, 14.1, 700.0, 5000.0, 1e4):
                s = complex(sigma, t)
                zeta_em(s)
                for a in (1.0, 0.5, 0.05):
                    hurwitz_zeta(s, a)

    def test_refuses_more_than_max_terms(self):
        with pytest.raises(DomainError, match="MAX_TERMS"):
            zeta_em(complex(0.5, 10.0), EvalConfig(em_terms=MAX_TERMS + 1))
        with pytest.raises(DomainError, match="MAX_TERMS"):
            hardy_z_rs(1.3e13)

    def test_schwarz_reflection_grid(self):
        for sigma in np.linspace(-2.0, 3.0, 6):
            for t in (1.0, 7.7, 31.0, 100.0):
                s = complex(sigma, t)
                d = abs(zeta_em(s.conjugate()) - zeta_em(s).conjugate())
                assert d < 1e-12

    def test_functional_equation_sample(self):
        for sigma in (-0.8, 0.2, 1.1, 1.9):
            for t in (5.0, 21.3, 44.0, 60.0):
                s = complex(sigma, t)
                assert abs(zeta_em(s) - chi(s) * zeta_em(1.0 - s)) < 1e-8

    def test_config_validation(self):
        with pytest.raises(DomainError):
            EvalConfig(em_terms=0)
        with pytest.raises(DomainError):
            EvalConfig(rs_remainder_order=1)


class TestHurwitz:
    def test_reduces_to_zeta_at_a_one(self):
        s = complex(1.7, 3.0)
        assert hurwitz_zeta(s, 1.0) == zeta_em(s)

    def test_known_half(self):
        assert abs(hurwitz_zeta(2.0 + 0.0j, 0.5) - math.pi**2 / 2.0) < 1e-12

    def test_direct_summation_oracle(self):
        # sum_{n<=N} (n + 0.3)^{-3} plus an integral tail bound.
        n_cut = 20000
        ns = np.arange(0, n_cut) + 0.3
        partial = float(np.sum(ns**-3.0))
        tail_hi = 0.5 * (n_cut - 1 + 0.3) ** -2.0
        val = hurwitz_zeta(3.0 + 0.0j, 0.3).real
        assert partial < val < partial + 1.1 * tail_hi

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0 + 0.0j, 0.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0 + 0.0j, 1.5)
        with pytest.raises(PoleError):
            hurwitz_zeta(1.0 + 0.0j, 0.5)


class TestHardyZ:
    def test_domain_below_2pi(self):
        with pytest.raises(DomainError):
            hardy_z_rs(6.0)

    def test_first_zero_bracketed(self):
        assert hardy_z_rs(14.0) < 0.0 < hardy_z_rs(14.2)

    def test_agrees_with_em_route_at_30(self):
        assert abs(hardy_z_rs(30.0) - generalized_hardy(0.5, 30.0).z) < 5e-3

    def test_remainder_toggles(self):
        with_c0 = hardy_z_rs(100.0, EvalConfig(rs_remainder_order=0))
        without = hardy_z_rs(100.0, EvalConfig(rs_remainder_order=-1))
        assert with_c0 != without
        # the C0 term improves agreement with the accurate route
        em = generalized_hardy(0.5, 100.0).z
        assert abs(with_c0 - em) < abs(without - em)

    def test_rs_em_deviation_bound_sampled(self):
        for t in np.arange(30.0, 300.0, 7.3):
            d = abs(hardy_z_rs(float(t)) - generalized_hardy(0.5, float(t)).z)
            assert d <= 3.0 * t**-0.75

    def test_agrees_with_em_route_above_validated_height(self):
        # N = floor(sqrt(t/2pi)) = 56 here, beyond every N of the
        # validated range t <= 1e4.
        assert abs(hardy_z_rs(2e4) - generalized_hardy(0.5, 2e4).z) < 1e-3


class TestGeneralizedHardy:
    def test_perpendicular_component_vanishes_on_line(self):
        assert abs(generalized_hardy(0.5, 25.0).y) < 1e-9

    def test_reduces_to_zeta_at_origin_line(self):
        v = generalized_hardy(2.0, 0.0)
        assert v.z == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
        assert v.y == pytest.approx(0.0, abs=1e-12)

    def test_matches_hardy_z_rs(self):
        assert generalized_hardy(0.5, 30.0).z == pytest.approx(
            hardy_z_rs(30.0), abs=5e-3
        )

    def test_norm_identity(self):
        for sigma, t in ((0.3, 17.0), (1.5, 42.0), (-0.5, 9.0)):
            v = generalized_hardy(sigma, t)
            mod2 = abs(zeta_em(complex(sigma, t))) ** 2
            assert v.z**2 + v.y**2 == pytest.approx(mod2, rel=1e-10)

    def test_pole(self):
        with pytest.raises(PoleError):
            generalized_hardy(1.0, 0.0)


class TestSpiral:
    def test_single_term(self):
        path = dirichlet_partial_sums(complex(0.7, 3.0), 1)
        assert len(path.points) == 1
        assert path.points[0] == 1.0 + 0.0j
        assert len(path.midpoints) == 0

    def test_sigma_zero_counts_integers(self):
        path = dirichlet_partial_sums(0.0 + 0.0j, 5)
        assert np.allclose(path.points, [1, 2, 3, 4, 5])
        assert np.allclose(path.points.imag, 0.0)

    def test_converges_to_zeta_two(self):
        path = dirichlet_partial_sums(2.0 + 0.0j, 10**4)
        assert abs(path.points[-1] - math.pi**2 / 6.0) < 1e-4

    def test_segment_moduli(self):
        s = complex(0.5, 30.0)
        path = dirichlet_partial_sums(s, 800)
        diffs = np.diff(path.points)
        for k, d in enumerate(diffs, start=2):
            assert abs(abs(d) - k**-0.5) < 1e-12

    def test_midpoints_are_averages(self):
        path = dirichlet_partial_sums(complex(0.5, 30.0), 50)
        assert len(path.midpoints) == 49
        assert np.allclose(
            path.midpoints, 0.5 * (path.points[:-1] + path.points[1:])
        )

    def test_bad_n(self):
        with pytest.raises(DomainError):
            dirichlet_partial_sums(1.0 + 1.0j, 0)


class TestResidueIdentity:
    def test_trivial_zero_kills_both_sides(self):
        assert residue_identity_residual(-2.0 + 0.0j, 100) < 1e-12

    def test_minus_three_halves(self):
        assert residue_identity_residual(-1.5 + 0.0j, 10**5) < 1e-8

    def test_minus_half_slow_convergence(self):
        # Truncation tail bound: (2pi)^{-1/2} |2 cos(pi(s-1)/2)| * 2/sqrt(N)
        # ~= 1.13e-3 at N = 1e6; the residual is tail-dominated.
        r = residue_identity_residual(-0.5 + 0.0j, 10**6)
        assert r < 1.5e-3
        r_small = residue_identity_residual(-0.5 + 0.0j, 10**4)
        assert r < r_small < 1.5e-2

    def test_domain(self):
        with pytest.raises(DomainError):
            residue_identity_residual(0.5 + 0.0j, 100)

    def test_reflection_form_matches_direct_gamma(self):
        # 2 pi zeta(s)/Gamma(1-s) == 2 sin(pi s) Gamma(s) zeta(s)
        s = complex(-1.5, 0.7)
        lhs = 2.0 * math.pi * zeta_em(s) * cmath.exp(-log_gamma(1.0 - s))
        rhs = 2.0 * cmath.sin(math.pi * s) * cmath.exp(log_gamma(s)) * zeta_em(s)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)


class TestDavenportHeilbronn:
    def test_kappa_closed_form(self):
        expected = (math.sqrt(10.0 - 2.0 * math.sqrt(5.0)) - 2.0) / (
            math.sqrt(5.0) - 1.0
        )
        assert KAPPA == expected
        assert KAPPA == pytest.approx(KAPPA_FROZEN, abs=1e-15)
        assert KAPPA == pytest.approx(0.284, abs=1e-3)

    def test_direct_series_oracle(self):
        # Dirichlet coefficients repeat with period 5: 1, k, -k, -1, 0.
        s = complex(3.0, 1.3)
        pattern = (1.0, KAPPA, -KAPPA, -1.0, 0.0)
        direct = sum(
            pattern[(n - 1) % 5] * n ** (-s) for n in range(1, 200001)
        )
        assert abs(davenport_heilbronn(s) - direct) < 1e-10

    def test_matches_l_function_combination(self):
        # f = w L(s, chi) + conj(w) L(s, chi-bar) with w = (1 - i kappa)/2.
        w = 0.5 * (1.0 - 1j * KAPPA)
        for sigma in (-0.5, 0.3, 0.5, 0.8, 1.5):
            for t in (0.5, 14.0, 85.7, 300.0):
                s = complex(sigma, t)
                ref = w * dirichlet_l_mod5(s) + w.conjugate() * dirichlet_l_mod5(
                    s, conjugate=True)
                f = davenport_heilbronn(s)
                assert abs(f - ref) <= 1e-14 * max(abs(ref), 1.0)

    def test_l_function_conjugate_symmetry(self):
        s = complex(0.8, 12.0)
        l_plus = dirichlet_l_mod5(s)
        l_bar_conj = dirichlet_l_mod5(s.conjugate(), conjugate=True)
        assert abs(l_plus - l_bar_conj.conjugate()) < 1e-12

    def test_functional_equation_constant_is_one(self):
        def factor(s):
            return cmath.exp(
                0.5 * (1.0 - 2.0 * s) * math.log(5.0 / math.pi)
                + log_gamma(0.5 * (2.0 - s))
                - log_gamma(0.5 * (s + 1.0))
            )

        s0 = complex(0.75, 8.0)
        c = davenport_heilbronn(s0) / (factor(s0) * davenport_heilbronn(1.0 - s0))
        assert abs(c - 1.0) < 1e-9
        for sigma in (-0.4, 0.2, 0.6, 1.3, 2.1):
            for t in (2.0, 7.5, 20.0, 55.0):
                s = complex(sigma, t)
                f = davenport_heilbronn(s)
                resid = abs(f - c * factor(s) * davenport_heilbronn(1.0 - s))
                assert resid < 1e-8 * max(1.0, abs(f))

    def test_vanishes_at_classical_offline_zero(self):
        rho = complex(0.808517, 85.699348)
        assert abs(davenport_heilbronn(rho)) < 1e-5
        # the reflected point 1 - conj(rho) is a zero too
        assert abs(davenport_heilbronn(1.0 - rho.conjugate())) < 1e-5

    def test_real_on_real_axis(self):
        v = davenport_heilbronn(2.0 + 0.0j)
        assert abs(v.imag) < 1e-13
