import cmath
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hardyzeta import specialfn, zetaeval
from hardyzeta.errors import DomainError, PoleError
from hardyzeta.specialfn import chi, log_gamma, theta
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

    def test_refuses_head_sum_rounding_left_of_strip(self):
        # At s = -5+i the head terms reach 50^5, and rounding (estimate
        # 5.8e-7, true error 6.2e-7 against mpmath) exceeds EM_TOL; at
        # -3+i the estimate is 3.5e-10 and the value stands.
        with pytest.raises(DomainError, match="rounding"):
            zeta_em(complex(-5.0, 1.0))
        with pytest.raises(DomainError, match="rounding"):
            zeta_em(complex(-10.0, 1.0))
        zeta_em(complex(-3.0, 1.0))

    def test_rounding_rule_spares_the_band_left_of_zero(self):
        for sigma in (-2.0, -1.0, -0.5):
            for t in (0.5, 10.0, 1e3, 1e4):
                s = complex(sigma, t)
                zeta_em(s)
                for a in (1.0, 0.05):
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

    @pytest.mark.parametrize(
        "s, a, expected",
        [
            # Frozen from mpmath.zeta(s, a) at 40 digits.
            (0.7 + 9000.0j, 0.4,
             -0.97869089020372812379 + 0.48634806759215144867j),
            (0.75 + 300.0j, 0.2,
             1.4243494606291063338 - 1.2131110905926464715j),
            (0.51 + 85.0j, 0.8,
             2.537857077881726955 + 0.13437520600665853965j),
            (0.5 + 9000.3j, 1.0,
             -0.29843229534161385484 + 0.19666617749052228563j),
            (2.5 + 5000.0j, 0.6,
             -3.3679504579026271092 - 0.18247490317875776656j),
            (-1.0 + 2000.0j, 0.3,
             169.12285137849362639 - 5792.4664054594253416j),
        ],
    )
    def test_matches_frozen_high_precision_values(self, s, a, expected):
        tol = 1e-10 * max(1.0, abs(expected))
        assert abs(hurwitz_zeta(s, a) - expected) <= tol

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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, 5.0,
                                   2.0 * math.pi - 1e-9, 1e51, 1e200])
    def test_domain_of_asymptotic_theta(self, t):
        # One check, in theta_asymptotic: never OverflowError or ValueError.
        with pytest.raises(DomainError, match=r"2\*pi"):
            hardy_z_rs(t)

    def test_first_zero_bracketed(self):
        assert hardy_z_rs(14.0) < 0.0 < hardy_z_rs(14.2)

    @pytest.mark.parametrize("t", [2 * math.pi, 8.0, 9.99, 10.0, 100.0,
                                   5000.3])
    def test_never_calls_log_gamma(self, t, monkeypatch):
        # The RS route keeps its own (asymptotic) theta at every height,
        # so it shares no log-gamma with the Euler-Maclaurin route.
        def refuse(z):
            raise AssertionError("hardy_z_rs reached log-gamma")

        monkeypatch.setattr(specialfn, "loggamma", refuse)
        assert math.isfinite(hardy_z_rs(t))

    @pytest.mark.parametrize("t", [2 * math.pi, 10.0, 100.0, 5000.3])
    @pytest.mark.parametrize("sigma", [0.5, 0.3])
    def test_em_route_never_calls_asymptotic_theta(self, sigma, t,
                                                   monkeypatch):
        # The Euler-Maclaurin route keeps the exact theta, so it shares
        # no theta with the Riemann-Siegel route.
        def refuse(t):
            raise AssertionError("generalized_hardy reached theta_asymptotic")

        monkeypatch.setattr(specialfn, "theta_asymptotic", refuse)
        monkeypatch.setattr(zetaeval, "theta_asymptotic", refuse)
        assert math.isfinite(generalized_hardy(sigma, t).z)

    def test_agrees_with_em_route_at_30(self):
        assert abs(hardy_z_rs(30.0) - generalized_hardy(0.5, 30.0).z) < 5e-3

    def test_rs_em_deviation_bound_sampled(self):
        for t in np.arange(30.0, 300.0, 7.3):
            d = abs(hardy_z_rs(float(t)) - generalized_hardy(0.5, float(t)).z)
            assert d <= 3.0 * t**-0.75

    def test_agrees_with_em_route_above_validated_height(self):
        # N = floor(sqrt(t/2pi)) = 56 here, beyond every N of the
        # validated range t <= 1e4.
        assert abs(hardy_z_rs(2e4) - generalized_hardy(0.5, 2e4).z) < 1e-3


# hardy_z_rs bit for bit, frozen before its log n and sqrt n moved into
# a table.  N = floor(sqrt(t/2pi)) steps from 3 to 4 at 2pi*16 and from
# 38 to 39 at 2pi*39^2; p = sqrt(t/2pi) - N near 1/4 and 3/4 takes
# _rs_psi's local rewrite (|p - p0| < 0.05), and p = 0.8 does not.
RS_FROZEN = [
    (6.283185307179586, "-0x1.da52867e1c14cp-1"),  # 2pi: N=1, p=0
    (14.134725, "-0x1.01855a54c4f00p-9"),  # N=1
    (100.5309, "0x1.1ae06f1983315p+1"),  # N=3, p=1-1.3e-6
    (100.53096491487338, "0x1.1adee7c2300f7p+1"),  # 2pi*16: N=4, p=0
    (100.531, "0x1.1adcad6763240p+1"),  # N=4, p=7.0e-7
    (1000.7, "0x1.388e607736dd9p+1"),  # N=12
    (7005.06, "-0x1.565ca24ee1200p-10"),  # N=33
    (9556.72, "-0x1.9d2a3d9d98ec4p+1"),  # N=38, p=1-9.9e-6
    (9556.73, "-0x1.914c10584d5d2p+1"),  # N=39, p=1.1e-5
    (173.18029502913734, "-0x1.d8fc2d76b7e7ep-1"),  # N=5, p=0.25
    (173.1868924365417, "-0x1.ca0cfcd546a26p-1"),  # N=5, p=0.2501
    (173.8406578049219, "0x1.fcaf107a39378p-1"),  # N=5, p=0.26
    (169.89733070613602, "0x1.c2ec4258aec60p-6"),  # N=5, p=0.2+1.8e-16
    (1021.4103114983815, "-0x1.fecc45c463dd5p-3"),  # N=12, p=0.75
    (1021.39428943868, "-0x1.13fde76b56444p-2"),  # N=12, p=0.7499
    (1019.8087275635814, "-0x1.5414547de8e3dp-2"),  # N=12, p=0.74
    (1029.4370807283035, "0x1.fd82eaf364e32p-1"),  # N=12, p=0.8+7e-16
]

# Heights whose Riemann-Siegel N runs over 1..TABLE_N.
TABLE_N = 200
TABLE_HEIGHTS = [2.0 * math.pi * (n + 0.5) ** 2 for n in range(1, TABLE_N + 1)]


def _table_bytes(table) -> int:
    return sys.getsizeof(table) + sum(
        sys.getsizeof(entry) + sum(map(sys.getsizeof, entry))
        for entry in table)


class TestHardyZFrozen:
    @pytest.mark.parametrize("t, expected", RS_FROZEN)
    def test_bit_identical(self, t, expected):
        assert hardy_z_rs(t).hex() == expected


class TestRsTermTable:
    def _serial(self, monkeypatch):
        """Values at TABLE_HEIGHTS in rising order from an empty table,
        which is left empty again."""
        monkeypatch.setattr(zetaeval, "_RS_TERMS", ())
        values = [hardy_z_rs(t) for t in TABLE_HEIGHTS]
        monkeypatch.setattr(zetaeval, "_RS_TERMS", ())
        return values

    def _check_table(self):
        table = zetaeval._RS_TERMS
        assert len(table) == TABLE_N
        assert table == tuple((math.log(n), math.sqrt(n))
                              for n in range(1, TABLE_N + 1))

    @pytest.mark.parametrize("order", ["rising", "falling"])
    def test_one_table_of_the_largest_n(self, order, monkeypatch):
        expected = [v.hex() for v in self._serial(monkeypatch)]
        ks = list(range(TABLE_N))
        if order == "falling":
            ks.reverse()
        tracemalloc.start()
        try:
            # Kept as strings, so the only live objects made in zetaeval
            # are the table's.
            values = {k: hardy_z_rs(TABLE_HEIGHTS[k]).hex() for k in ks}
            retained = sum(
                stat.size for stat in tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.Filter(True, zetaeval.__file__)]
                ).statistics("filename"))
        finally:
            tracemalloc.stop()
        self._check_table()
        assert [values[k] for k in range(TABLE_N)] == expected
        # 112 B per term, as the docstring states.  The slack covers
        # interpreter free lists; keeping the 199 smaller tables grown on
        # the way up would add over 160 KB.
        one_table = _table_bytes(zetaeval._RS_TERMS)
        assert one_table <= 112 * TABLE_N + 64
        assert retained <= one_table + 4096

    def test_two_threads_on_interleaved_heights(self, monkeypatch):
        expected = self._serial(monkeypatch)

        def work(ks, start, values, errors):
            try:
                start.wait(timeout=30.0)
                for k in ks:
                    values[k] = hardy_z_rs(TABLE_HEIGHTS[k])
            except Exception as exc:
                errors.append(exc)

        # Two threads (never more) take the even and the odd heights, so
        # both grow the table against each other; the short switch
        # interval lets them interleave inside the growth.  Going down,
        # both first grow the empty table to N = 200 and N = 199 at once,
        # and the table must end at 200 whichever finishes last.  A race
        # shows only in some rounds, so each order runs twenty times.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for order in (1, -1) * 20:
                zetaeval._RS_TERMS = ()
                start = threading.Barrier(2)
                values: dict[int, float] = {}
                errors: list[Exception] = []
                threads = [
                    threading.Thread(target=work, args=(
                        range(j, TABLE_N, 2)[::order], start, values, errors))
                    for j in (0, 1)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30.0)
                assert not any(th.is_alive() for th in threads)
                assert errors == []
                self._check_table()
                assert [values[k] for k in range(TABLE_N)] == expected
        finally:
            sys.setswitchinterval(interval)

    def test_em_route_never_reads_it(self, monkeypatch):
        class Untouchable(tuple):
            def __len__(self):
                raise AssertionError("read the RS term table")

            __getitem__ = __iter__ = __len__

        monkeypatch.setattr(zetaeval, "_RS_TERMS", Untouchable())
        zeta_em(0.5 + 100.0j)
        hurwitz_zeta(0.5 + 100.0j, 0.2)
        generalized_hardy(0.5, 1000.7)
        davenport_heilbronn(0.75 + 50.0j)
        with pytest.raises(AssertionError, match="RS term table"):
            hardy_z_rs(100.0)


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

    def test_real_axis_values_are_exactly_real(self):
        # theta(0) = Im log Gamma(1/4) is exactly 0, so zeta(sigma) on the
        # real axis has no perpendicular component, not even at roundoff.
        assert theta(0.0) == 0.0
        assert generalized_hardy(-1.5, 0.0).y == 0.0


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
        with pytest.raises(DomainError, match="MAX_TERMS"):
            dirichlet_partial_sums(complex(0.5, 30.0), MAX_TERMS + 1)


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
        with pytest.raises(DomainError, match="MAX_TERMS"):
            residue_identity_residual(-0.5 + 0.0j, MAX_TERMS + 1)

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
                # L(s, chi-bar) = conj(L(conj(s), chi)).
                l_bar = dirichlet_l_mod5(s.conjugate()).conjugate()
                ref = w * dirichlet_l_mod5(s) + w.conjugate() * l_bar
                f = davenport_heilbronn(s)
                assert abs(f - ref) <= 1e-14 * max(abs(ref), 1.0)

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
