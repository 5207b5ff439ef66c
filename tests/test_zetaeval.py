import cmath
import gc
import math
import re
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hardyzeta import specialfn, zetaeval
from hardyzeta.errors import DomainError, PoleError
from hardyzeta.specialfn import chi, log_gamma, theta
from hardyzeta.hilbert import (Interval, gauss_legendre_rule, hardy_function,
                               oscillation_order)
from hardyzeta.zerofinder import (argument_principle_count,
                                  find_critical_zeros, hardy_em_function)
from hardyzeta.zetaeval import (
    EM_ORDER,
    EM_ORDER_MAX,
    EM_TARGET,
    EM_TOL,
    KAPPA,
    MAX_TERMS,
    davenport_heilbronn,
    dirichlet_l_mod5,
    dirichlet_partial_sums,
    generalized_hardy,
    hardy_z_rs,
    hurwitz_zeta,
    residue_identity_residual,
    zeta_em,
    zeta_em_jet,
)

# zeta(1/2), frozen from the N = 1e4 oracle (test_half_matches_oracle
# recomputes it); agrees with the default cutoff to 2e-15.
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

    def test_half_matches_oracle(self, zeta_at_cutoff):
        oracle = zeta_at_cutoff(0.5, 10**4)
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

    def test_refuses_uncertified_cutoff(self, zeta_at_cutoff):
        with pytest.raises(DomainError, match="N=20"):
            zeta_at_cutoff(complex(0.5, 400.0), 20)

    @pytest.mark.parametrize("s", [0.5 + 300j, 0.5 + 1000j, 2 + 500j, -1 + 200j])
    def test_smallest_certified_cutoff_meets_tolerance(self, s,
                                                       zeta_at_cutoff):
        n = math.ceil(s.imag / (2.0 * math.pi))
        while True:
            try:
                value = zeta_at_cutoff(s, n)
                break
            except DomainError:
                n += 1
        oracle = zeta_at_cutoff(s, 10**4)
        assert abs(value - oracle) <= EM_TOL * max(1.0, abs(value))

    def test_default_cutoff_always_certified(self):
        # The grid README states: sigma in [-2, 3], |t| <= 2e4.
        for sigma in np.linspace(-2.0, 3.0, 6):
            for t in (-2e4, -1e4, -2500.0, -30.0, 0.5, 14.1, 405.0, 700.0,
                      5000.0, 1e4, 1.96e4, 2e4):
                s = complex(sigma, t)
                zeta_em(s)
                for a in (1.0, 0.5, 0.05, 0.001):
                    hurwitz_zeta(s, a)

    def test_refuses_head_sum_rounding_left_of_strip(self):
        # At s = -10+i the head terms reach 36^10, and rounding (estimate
        # 2.7 relative) exceeds EM_TOL, as it does at -6+i (7.9e-8); at
        # -5+i, 20 terms on Backlund's pair, the estimate is 2.4e-9 and
        # the value stands (see test_newly_accepted_points_match_mpmath).
        with pytest.raises(DomainError, match="rounding"):
            zeta_em(complex(-10.0, 1.0))
        with pytest.raises(DomainError, match="rounding"):
            zeta_em(complex(-6.0, 1.0))
        zeta_em(complex(-5.0, 1.0))
        zeta_em(complex(-3.0, 1.0))

    @pytest.mark.parametrize("s, expected", [
        # Frozen from mpmath.zeta(s) at 40 digits.  The fixed pair's 50
        # terms refused -5+i on head-sum rounding; the others it refused
        # on its truncation bound.  Measured relative errors: 6.7e-9 at
        # -5+i, 2.2e-11 to 2.6e-10 at -3+3000i to -3+9000i.
        (-5.0 + 1.0j, -0.008971503931843238 - 0.0012436690403755852j),
        (-3.0 + 3000.0j, -1459543955.1693401 + 2026122064.3665133j),
        (-3.0 + 3500.0j, 1456692612.486847 + 4074496275.454875j),
        (-3.0 + 4000.0j, -4403264560.807568 - 4607474239.397763j),
        (-3.0 + 9000.0j, 66046480281.94001 + 93796561233.85728j),
    ])
    def test_newly_accepted_points_match_mpmath(self, s, expected):
        # Points that Backlund's pair, with fewer head terms, certifies
        # and the fixed pair did not.
        assert zetaeval._em_pair(s)[1] == EM_ORDER_MAX
        got = zeta_em(s)
        assert abs(got - expected) <= EM_TOL * max(1.0, abs(expected))
        family = zetaeval._hardy_z_family([s.real], np.array([s.imag]))
        assert family.tobytes() == np.array(
            [[generalized_hardy(s.real, s.imag).z]]).tobytes()

    def test_rounding_rule_spares_the_band_left_of_zero(self):
        for sigma in (-2.0, -1.0, -0.5):
            for t in (0.5, 10.0, 1e3, 1e4):
                s = complex(sigma, t)
                zeta_em(s)
                for a in (1.0, 0.05):
                    hurwitz_zeta(s, a)

    def test_refuses_more_than_max_terms(self, zeta_at_cutoff):
        with pytest.raises(DomainError, match="MAX_TERMS"):
            zeta_at_cutoff(complex(0.5, 10.0), MAX_TERMS + 1)
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

    @pytest.mark.parametrize("t", [2.0 * math.pi * MAX_TERMS, -1e12, 1e308,
                                   -sys.float_info.max])
    def test_refuses_heights_beyond_max_terms(self, t):
        # Backlund's premise needs N > |t|/2pi >= MAX_TERMS: refused in
        # _em_pair, before 2|t|/pi can overflow.
        s = complex(0.5, t)
        for call in (lambda: zetaeval._em_pair(s), lambda: zeta_em(s),
                     lambda: hurwitz_zeta(s, 0.2),
                     lambda: generalized_hardy(0.5, t)):
            with pytest.raises(DomainError, match="MAX_TERMS"):
                call()

    @pytest.mark.parametrize("s, a", [
        # The Pochhammer product overflows, leaving a NaN tail; at 1e308
        # sigma log n would overflow in the head too.
        (complex(1e306, 1000.0), 1.0),
        (complex(1e308, 1.0), 1.0),
        (complex(2000.0, 5.0), 0.2),  # 0.2^-2000 in the head
        (complex(2.0, 5.0), 5e-324),  # (5e-324)^-2
    ])
    def test_refuses_overflowing_sum(self, s, a):
        with pytest.raises(DomainError, match="overflows a double"):
            hurwitz_zeta(s, a)

    def test_large_sigma_still_one(self):
        # The head is 1 + 0 and the tail underflows to 0 well before the
        # Pochhammer product overflows.
        assert zeta_em(complex(1e15, 1000.0)) == 1.0
        assert hurwitz_zeta(complex(400.0, 3.0), 0.2) == pytest.approx(
            cmath.exp(-complex(400.0, 3.0) * math.log(0.2)), rel=1e-12)


def _backlund_bound(s: complex, base: float, m: int) -> float:
    """Backlund's bound |s+2m+1|/(sigma+2m+1) |T_{m+1}| at base, with the
    Pochhammer product taken factor by factor."""
    edge = s.real + 2 * m + 1
    poch = math.prod(abs(s + j) for j in range(2 * m + 1))
    return (abs(s + 2 * m + 1) / edge * abs(zetaeval._EM_COEF[m]) * poch
            * base ** -edge)


def _backlund_n(s: complex) -> int:
    """Backlund's N with m = EM_ORDER_MAX as the README states it: the
    smallest N > |t|/2pi at which his bound, each |s+j| bounded by
    |s|+2m+1, is at most EM_TARGET, solved in logs."""
    m = EM_ORDER_MAX
    edge = s.real + 2 * m + 1
    log_n = ((2 * m + 2) * math.log(abs(s) + 2 * m + 1)
             + math.log(abs(zetaeval._EM_COEF[m]) / EM_TARGET)
             - math.log(edge)) / edge
    return max(int(abs(s.imag) / (2.0 * math.pi)) + 1,
               math.ceil(math.exp(log_n)))


class TestDefaultPair:
    def test_bernoulli_table_from_recurrence(self):
        # sum_{k<=n} C(n+1, k) B_k = 0 for n >= 1, B_0 = 1.
        b = [Fraction(1)]
        for n in range(1, 2 * EM_ORDER_MAX + 3):
            b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n))
                     / (n + 1))
        assert zetaeval._BERNOULLI_EVEN == tuple(b[2:2 * EM_ORDER_MAX + 3:2])
        assert zetaeval._EM_COEF == tuple(
            float(b[2 * k] / math.factorial(2 * k))
            for k in range(1, EM_ORDER_MAX + 2))

    def test_fewer_head_terms_up_to_405(self):
        # The pair with fewer head terms, the fixed one on a tie: on this
        # grid, where the fixed pair was once taken throughout, Backlund's
        # N is the smaller everywhere.
        for sigma in np.linspace(-2.0, 3.0, 6):
            for t in np.linspace(-405.0, 405.0, 163):
                s = complex(sigma, t)
                n_fixed = max(50, math.ceil(2.0 * abs(t) / math.pi))
                n_b = _backlund_n(s)
                assert n_b < n_fixed
                assert zetaeval._em_pair(s) == (n_b, EM_ORDER_MAX)
        # In and right of the critical strip from |t| = 20 to 1e4.
        for sigma in np.linspace(0.0, 1.0, 11):
            for t in np.geomspace(20.0, 1e4, 60):
                for s in (complex(sigma, t), complex(sigma, -t)):
                    assert zetaeval._em_pair(s) == (_backlund_n(s),
                                                    EM_ORDER_MAX)

    def test_fixed_pair_where_backlund_sums_as_many(self):
        # Left of sigma ~ -3 Backlund's N grows past the fixed one, and
        # where his premise fails it has none.
        for s in (complex(-10.0, 100.0), complex(-4.0, 3000.0),
                  complex(-3.5, 9000.0)):
            n_fixed = max(50, math.ceil(2.0 * abs(s.imag) / math.pi))
            assert _backlund_n(s) >= n_fixed
            assert zetaeval._em_pair(s) == (n_fixed, EM_ORDER)
        assert zetaeval._em_pair(complex(-45.0, 10.0)) == (50, EM_ORDER)

    def test_half_the_head_terms_at_9000(self):
        s = complex(0.5, 9000.0)
        n, m = zetaeval._em_pair(s)
        assert m == EM_ORDER_MAX
        assert n <= 0.35 * 9000.0
        # zeta_em sums to base = n; hurwitz_zeta to n + a.
        assert _backlund_bound(s, n, m) <= EM_TARGET

    def test_higher_order_pair_meets_target(self):
        # Wherever the EM_ORDER_MAX pair is taken, its exact bound is
        # within EM_TARGET, though its N came from an upper bound.  Above
        # |t| = 1018 it is taken at every sigma of the grid.
        for sigma in np.linspace(-2.0, 3.0, 11):
            for t in np.linspace(-2e4, 2e4, 81):
                s = complex(sigma, t)
                n, m = zetaeval._em_pair(s)
                if m == EM_ORDER_MAX:
                    assert n > abs(t) / (2.0 * math.pi)
                    assert _backlund_bound(s, n, m) <= EM_TARGET
                else:
                    assert abs(t) < 1018.0
                    assert n == max(50, math.ceil(2.0 * abs(t) / math.pi))

    def test_matches_frozen_mpmath_references(self):
        # 200 seeded points, against their mpmath values frozen by
        # tests/data/make_zeta_references.py, so they are checked where
        # mpmath is not installed; CI's --check recomputes them.  Left of
        # sigma = 0 the head terms grow like (n+a)^{-sigma}, each with a
        # phase rounding of about eps |t| log(n+a), and that rounding,
        # not truncation, sets the error: up to 3.4e-11 relative on
        # these points (8.2e-11 with the fixed m = 8 pair).
        path = Path(__file__).with_name("data") / "zeta_references.txt"
        rows = [[float.fromhex(x) for x in line.split()]
                for line in path.read_text(encoding="ascii").splitlines()
                if not line.startswith("#")]
        assert len(rows) == 200
        rng = np.random.default_rng(2015)
        for i, (sigma, t, a, re, im) in enumerate(rows):
            assert (sigma, t, a) == (rng.uniform(-2.0, 3.0),
                                     rng.uniform(-1e4, 1e4),
                                     (1.0, 0.2, 0.8)[i % 3])
            s = complex(sigma, t)
            got = zeta_em(s) if a == 1.0 else hurwitz_zeta(s, a)
            ref = complex(re, im)
            rel = 2e-11 if sigma >= 0.0 else 1e-10
            assert abs(got - ref) <= rel * max(1.0, abs(ref)), (s, a)

    def test_matches_frozen_high_references(self):
        # 300 Riemann zeta values at |t| in [3000, 1e4], where the head is
        # summed over the integers coprime to 30, then 80 whose heads lie
        # within 20 terms of the threshold 200 and of 800, on both
        # sides; frozen from mpmath by tests/data/make_zeta_references.py,
        # same tolerances as above.
        path = Path(__file__).with_name("data") / "zeta_references_high.txt"
        rows = [[float.fromhex(x) for x in line.split()]
                for line in path.read_text(encoding="ascii").splitlines()
                if not line.startswith("#")]
        assert len(rows) == 380
        rng = np.random.default_rng(2020)
        factored = 0
        for i, (sigma, t, a, re, im) in enumerate(rows[:300]):
            seeded_sigma = rng.uniform(-2.0, 3.0)
            seeded_t = rng.uniform(3000.0, 1e4)
            assert (sigma, t, a) == (
                seeded_sigma, seeded_t if i % 2 == 0 else -seeded_t, 1.0)
            factored += (zetaeval._em_pair(complex(sigma, t))[0] - 1
                         >= zetaeval._SMOOTH_MIN_TERMS)
        assert factored == 300
        rng = np.random.default_rng(2029)
        sides = Counter()
        for i, (sigma, t, a, re, im) in enumerate(rows[300:]):
            threshold = (zetaeval._SMOOTH_MIN_TERMS, 800)[i % 2]
            assert sigma == rng.uniform(-2.0, 3.0) and a == 1.0
            assert (t > 0.0) == (i // 2 % 2 == 0)
            head = int(rng.integers(threshold - 20, threshold + 21))
            assert zetaeval._em_pair(complex(sigma, t))[0] - 1 == head
            sides[threshold, head < threshold] += 1
        assert min(sides.values()) >= 10 and len(sides) == 4
        for sigma, t, a, re, im in rows:
            s = complex(sigma, t)
            got = zeta_em(s)
            ref = complex(re, im)
            rel = 2e-11 if sigma >= 0.0 else 1e-10
            assert abs(got - ref) <= rel * max(1.0, abs(ref)), s

    def test_extreme_inputs_fall_back(self):
        # Backlund's premise fails for the higher order, its Pochhammer
        # product would overflow, or its N would exceed MAX_TERMS: the
        # EM_ORDER pair is taken.  (|t| = 1e300, once here, is now refused
        # in _em_pair; see test_refuses_heights_beyond_max_terms.)
        for s in (complex(-41.0, 1000.0), complex(1e306, 1000.0),
                  complex(0.5, 6e6)):
            assert zetaeval._em_pair(s)[1] == EM_ORDER


def _derivative_rows():
    path = Path(__file__).with_name("data") / "zeta_derivative_references.txt"
    return [[float.fromhex(x) for x in line.split()]
            for line in path.read_text(encoding="ascii").splitlines()
            if not line.startswith("#")]


class TestJet:
    """zeta_em_jet: zeta_em's value bit for bit, and zeta' from the same
    sum; _hardy_z_jet: Z and Z' on the critical line."""

    def test_rows_are_the_seeded_points(self):
        rows = _derivative_rows()
        assert len(rows) == 120
        rng = np.random.default_rng(2031)
        for sigma, t, a, _, _ in rows[:80]:
            assert (sigma, t, a) == (rng.uniform(-2.0, 3.0),
                                     rng.uniform(-1e4, 1e4), 1.0)
        # The last 40 on both sides of _SMOOTH_MIN_TERMS.
        heads = [zetaeval._em_pair(complex(sigma, t))[0] - 1
                 for sigma, t, _, _, _ in rows[80:]]
        assert all(180 <= h <= 220 for h in heads)
        below = sum(h < zetaeval._SMOOTH_MIN_TERMS for h in heads)
        assert 10 <= below <= 30

    def test_value_is_zeta_em_bit_for_bit(self):
        points = [complex(sigma, t) for sigma, t, _, _, _ in _derivative_rows()]
        points += [0.5 + 14.134725141734693j, 2.0 + 0j, -3.5 + 0.25j,
                   complex(0.5, -9999.0), 0j]
        for s in points:
            value, _ = zeta_em_jet(s)
            assert _bits([value]) == _bits([zeta_em(s)]), s

    def test_derivative_matches_frozen_mpmath_references(self):
        # Frozen by tests/data/make_zeta_references.py; CI's --check
        # recomputes them.  zeta' takes zeta's head exps, so its error
        # follows zeta's: about 3.5e-11 relative at worst here, left of
        # sigma = 0.
        for sigma, t, _, re, im in _derivative_rows():
            ref = complex(re, im)
            _, slope = zeta_em_jet(complex(sigma, t))
            assert abs(slope - ref) <= 1e-10 * max(1.0, abs(ref)), (sigma, t)

    def test_derivative_at_closed_forms(self):
        # zeta'(0) = -log(2 pi)/2; zeta'(2) = pi^2/6 (gamma + log 2 pi
        # - 12 log A) with Glaisher's A.
        _, slope = zeta_em_jet(0j)
        assert abs(slope + 0.5 * math.log(2.0 * math.pi)) <= 1e-14
        _, slope = zeta_em_jet(2.0 + 0j)
        assert abs(slope + 0.93754825431584375) <= 1e-14

    @pytest.mark.parametrize("s", [
        1.0 + 0j, complex(math.nan, 1.0), complex(0.5, math.inf),
        -50.0 + 1j, -10.0 + 1j, complex(0.5, 7e6)],
        ids=["pole", "nan", "inf", "premise", "rounding", "max-terms"])
    def test_refuses_as_zeta_em(self, s):
        with pytest.raises(Exception) as plain:
            zeta_em(s)
        with pytest.raises(type(plain.value), match=re.escape(
                str(plain.value))):
            zeta_em_jet(s)

    @pytest.mark.parametrize("gap", [1e-100, 1e-170, 1e-200])
    def test_near_the_pole(self, gap):
        # zeta' ~ -1/(s-1)^2 overflows first: there the jet raises where
        # zeta_em still returns zeta.
        s = complex(1.0, gap)
        if gap > 1e-154:
            value, slope = zeta_em_jet(s)
            assert value == zeta_em(s)
            assert abs(slope + 1.0 / (s - 1.0) ** 2) <= 1e-15 * abs(slope)
        else:
            assert cmath.isfinite(zeta_em(s))
            with pytest.raises(DomainError, match="derivative .* overflows"):
                zeta_em_jet(s)

    def test_hardy_jet_value_is_generalized_hardy(self):
        rng = np.random.default_rng(2041)
        for t in rng.uniform(1.0, 1e4, 40).tolist() + [14.134725141734693]:
            value, _ = zetaeval._hardy_z_jet(t)
            assert value.hex() == generalized_hardy(0.5, t).z.hex()

    def test_hardy_jet_derivative_matches_siegelz(self):
        # Z'(t) = -Im e^{i theta} zeta'(1/2+it).  Its error is zeta''s
        # plus |zeta'| times theta's rounding, about 1e-11 at t ~ 1e4:
        # 1.7e-10 at t = 8561.14, where |zeta'| = 12.8.  The references
        # are mpmath's siegelz(t, derivative=1) at 40 seeded t, frozen by
        # tests/data/make_zeta_references.py; CI's --check recomputes
        # them.
        path = (Path(__file__).with_name("data")
                / "hardy_z_derivative_references.txt")
        rows = [[float.fromhex(x) for x in line.split()]
                for line in path.read_text(encoding="ascii").splitlines()
                if not line.startswith("#")]
        seeded = np.random.default_rng(2043).uniform(14.0, 1e4, 40).tolist()
        assert [t for t, _ in rows] == seeded
        for t, ref in rows:
            _, got = zetaeval._hardy_z_jet(t)
            _, slope = zeta_em_jet(complex(0.5, t))
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(slope)), t

    def test_critical_line_functions_carry_the_jet(self):
        assert hardy_function(0.5).jet(100.0) == zetaeval._hardy_z_jet(100.0)
        assert hardy_em_function().jet(100.0) == zetaeval._hardy_z_jet(100.0)
        assert hardy_function(0.3).jet is None


class TestHurwitz:
    def test_reduces_to_zeta_at_a_one(self):
        # zeta_em sums N - 1 head terms and hurwitz_zeta N, each with its
        # tail at its own base, so the two differ by roundoff: 1 ulp here,
        # where they were equal on the fixed pair's N = 50.
        s = complex(1.7, 3.0)
        zeta = zeta_em(s)
        assert abs(hurwitz_zeta(s, 1.0) - zeta) <= 2.0 * zetaeval._EPS * abs(
            zeta)

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
        # One check, in theta_asymptotic, reported under hardy_z_rs's own
        # name: never OverflowError or ValueError.
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

    def test_within_gabckes_bound(self):
        # With its one remainder term C0, the Riemann-Siegel Z is within
        # 0.127 t^(-3/4) of Z(t) for t >= 200 (Gabcke 1979).  The
        # references are mpmath's siegelz(t) at 200 seeded t, frozen by
        # tests/data/make_zeta_references.py; CI's --check recomputes
        # them.  The allowance covers rounding: the phase theta - t log n
        # is formed near 4e4 at t = 1e4, about 1e-11 of rounding in each
        # of at most 39 terms, and the reference's own half ulp.  The
        # worst point, t = 1608.31, reaches 0.945 of the bound.
        path = Path(__file__).with_name("data") / "hardy_z_references.txt"
        rows = [[float.fromhex(x) for x in line.split()]
                for line in path.read_text(encoding="ascii").splitlines()
                if not line.startswith("#")]
        seeded = np.random.default_rng(2053).uniform(200.0, 1e4, 200).tolist()
        assert [t for t, _ in rows] == seeded
        rounding = 1e-9
        for t, ref in rows:
            assert abs(hardy_z_rs(t) - ref) <= 0.127 * t**-0.75 + rounding, t

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


def _retained_in_zetaeval(sweep) -> int:
    """Bytes allocated in zetaeval.py by sweep() and still live after a
    full collection."""
    tracemalloc.start()
    try:
        sweep()
        # Freed floats and short tuples park in the interpreter's free
        # lists, where tracemalloc still counts them, so what it counted
        # depended on the tests run before.  A full collection empties
        # the free lists.
        gc.collect()
        return sum(
            stat.size for stat in tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, zetaeval.__file__)]
            ).statistics("filename"))
    finally:
        tracemalloc.stop()


def _cached_entry(memo, *args):
    """memo(*args), which must be its one cached entry."""
    info = memo.cache_info()
    entry = memo(*args)
    assert memo.cache_info().hits == info.hits + 1
    assert memo.cache_info().currsize == 1
    return entry


class TestRsTermTable:
    def _serial(self):
        """Values at TABLE_HEIGHTS in rising order from an empty memo."""
        zetaeval._rs_terms.cache_clear()
        return [hardy_z_rs(t) for t in TABLE_HEIGHTS]

    @pytest.mark.parametrize("order", ["rising", "falling"])
    def test_one_table_of_the_largest_n(self, order):
        # One entry stays after a sweep either way: the table of the last
        # N, and never one larger than the largest N.
        expected = [v.hex() for v in self._serial()]
        zetaeval._rs_terms.cache_clear()
        ks = list(range(TABLE_N))
        if order == "falling":
            ks.reverse()
        # Kept as strings, so the only live objects made in zetaeval are
        # the table's.
        values = {}
        retained = _retained_in_zetaeval(lambda: values.update(
            (k, hardy_z_rs(TABLE_HEIGHTS[k]).hex()) for k in ks))
        assert [values[k] for k in range(TABLE_N)] == expected
        n_last = ks[-1] + 1
        table = _cached_entry(zetaeval._rs_terms, n_last)
        assert table == tuple((math.log(n), math.sqrt(n))
                              for n in range(1, n_last + 1))
        # 112 B per term, as the docstring states.  The slack covers
        # interpreter free lists; keeping the 199 other tables of the
        # sweep would add over 160 KB.
        one_table = _table_bytes(table)
        assert one_table <= 112 * n_last + 64
        assert retained <= one_table + 4096

    def test_two_threads_on_interleaved_heights(self):
        expected = self._serial()

        def work(ks, start, values, errors):
            try:
                start.wait(timeout=30.0)
                for k in ks:
                    values[k] = hardy_z_rs(TABLE_HEIGHTS[k])
            except Exception as exc:
                errors.append(exc)

        # Two threads (never more) take the even and the odd heights, so
        # each replaces the memo's entry under the other; the short
        # switch interval lets them interleave inside a computation.  A
        # race shows only in some rounds, so each order runs twenty times.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for order in (1, -1) * 20:
                zetaeval._rs_terms.cache_clear()
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
                assert zetaeval._rs_terms.cache_info().currsize == 1
                assert [values[k] for k in range(TABLE_N)] == expected
        finally:
            sys.setswitchinterval(interval)

    def test_em_route_never_reads_it(self, monkeypatch):
        def untouchable(n_main):
            raise AssertionError("read the RS term table")

        monkeypatch.setattr(zetaeval, "_rs_terms", untouchable)
        zeta_em(0.5 + 100.0j)
        zeta_em(0.5 + 9000.0j)
        hurwitz_zeta(0.5 + 100.0j, 0.2)
        generalized_hardy(0.5, 1000.7)
        davenport_heilbronn(0.75 + 50.0j)
        davenport_heilbronn(0.75 + 50.0j + np.linspace(0.0, 1.0, 5))
        with pytest.raises(AssertionError, match="RS term table"):
            hardy_z_rs(100.0)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


def test_complex_exp_splits_exactly():
    # The batched heads take each term exp(x+iy) as the weight
    # exp(x+0i).real times each part of the phase exp(0+iy).  That is
    # exact where the complex exp is glibc's cexp, which forms exp(x) cos
    # y and exp(x) sin y up to x = 709: seeded x in [-745, 709], y up to
    # 1e6 in size, signed zeros, subnormals and |y| below DBL_MIN.
    rng = np.random.default_rng(40)
    x = np.concatenate([rng.uniform(-745.0, 709.0, 200_000),
                        [-745.0, -700.0, 0.0, -0.0, 1.0, 709.0] * 4])
    y = np.concatenate([
        rng.choice((-1.0, 1.0), 200_000) * 10.0 ** rng.uniform(-8, 6, 200_000),
        np.repeat([0.0, -0.0, 5e-324, -2e-308], 6)])
    y[::7] *= 1e-310

    def exp(re, im):
        # Built part by part: x + 1j * y would turn -0.0 into 0.0.
        z = np.empty(y.size, dtype=complex)
        z.real, z.imag = re, im
        return np.exp(z)

    weight, phase = exp(x, 0.0).real, exp(0.0, y)
    split = np.empty(y.size, dtype=complex)
    split.real, split.imag = weight * phase.real, weight * phase.imag
    assert exp(x, y).tobytes() == split.tobytes()


def _contour_grid(box, n_per_side=128):
    """The grid argument_principle_count evaluates in one array call."""
    grids = []

    def dh(s):
        if isinstance(s, np.ndarray):
            grids.append(s)
        return davenport_heilbronn(s)

    argument_principle_count(dh, box, n_per_side)
    return grids[0]


def _batch_points():
    """Seeded points with sigma in [-1, 3] and |t| up to 1e4, half of
    them below |t| = 425, and two segments whose points mostly share one
    (N, m), so that a group runs over several row blocks of the head."""
    rng = np.random.default_rng(2718)
    sigma = rng.uniform(-1.0, 3.0, 240)
    t = rng.choice((-1.0, 1.0), 240) * np.concatenate(
        [rng.uniform(0.0, 425.0, 120), rng.uniform(425.0, 1e4, 120)])
    # A horizontal segment on the EM_ORDER pair, whose N = 50 Backlund's
    # N passes left of sigma ~ -5 at t = 60, and a short vertical one on
    # the EM_ORDER_MAX pair.
    return np.concatenate([
        sigma + 1j * t, np.linspace(-6.1, -5.3, 700) + 60.0j,
        0.5 - 1j * np.linspace(4999.95, 5000.05, 300), [0.0, 2.0, 1e-9j]])


class TestBatchedModFive:
    """davenport_heilbronn and dirichlet_l_mod5 on ndarrays."""

    def test_groups_span_several_row_blocks(self):
        pairs = Counter(zetaeval._em_pair(z) for z in _batch_points().tolist())
        for order in (EM_ORDER, EM_ORDER_MAX):
            assert max(k * terms for (terms, m), k in pairs.items()
                       if m == order) > 2 * zetaeval._HEAD_BLOCK

    @pytest.mark.parametrize("fn", [davenport_heilbronn, dirichlet_l_mod5])
    def test_array_matches_scalar_calls(self, fn, head_exps):
        s = _batch_points()
        got, exps = head_exps(lambda: fn(s))
        # Four Hurwitz heads of N terms at each point, 2,616,916 terms,
        # from one phase row a height in each chunk and one weight row a
        # sigma in each call: the 700 points of the horizontal segment
        # share a height.
        assert 4 * sum(zetaeval._em_pair(z)[0] for z in s.tolist()) == 2616916
        assert exps == (2477516, 836024)
        want = np.array([fn(z) for z in s.tolist()])
        assert got.dtype == complex and got.shape == s.shape
        assert np.all(np.abs(got - want)
                      <= 1e-15 * np.maximum(1.0, np.abs(want)))

    def test_shape_is_kept(self):
        s = _batch_points()[:12].reshape(3, 4)
        got = davenport_heilbronn(s)
        assert got.shape == (3, 4)
        assert np.all(got.ravel() == davenport_heilbronn(s.ravel()))
        empty = davenport_heilbronn(np.zeros((0, 3), dtype=complex))
        assert empty.shape == (0, 3) and empty.dtype == complex
        assert dirichlet_l_mod5(np.array([])).shape == (0,)

    def test_python_complex_stays_scalar(self):
        assert type(davenport_heilbronn(0.7 + 85.0j)) is complex
        assert type(dirichlet_l_mod5(0.7 + 85.0j)) is complex

    @pytest.mark.parametrize("bad", [
        complex(1.0, 0.0),
        complex(math.nan, 80.0),
        complex(0.7, math.inf),
        complex(-math.inf, 80.0),
        complex(0.5, 1.01 * 2.0 * math.pi * MAX_TERMS),
        complex(0.5, 5e6),
        complex(-45.0, 10.0),
        complex(-20.0, 3000.0),
        complex(500.0, 80.0),
        complex(-5.0, 100.0),
        complex(-4.0, 9000.0),
        complex(-10.0, 1.0),
    ], ids=["pole", "nan", "inf", "minus-inf", "beyond-max-terms",
            "n-above-max-terms", "premise", "premise-high", "overflow",
            "bound", "bound-high", "rounding"])
    def test_array_refuses_what_the_scalar_refuses(self, bad):
        with pytest.raises(DomainError) as scalar:
            davenport_heilbronn(bad)
        with pytest.raises(DomainError) as batched:
            davenport_heilbronn(np.array([0.7 + 85.0j, bad, 2.0 + 3.0j]))
        assert type(batched.value) is type(scalar.value)
        assert str(batched.value) == str(scalar.value)

    def test_cutoffs_above_max_terms_refused_before_any_head(
            self, monkeypatch):
        # _em_sum refuses a cutoff N above MAX_TERMS by N, whatever its
        # head length: zeta's N = MAX_TERMS + 1 sums MAX_TERMS terms.
        # The batch refuses such a point, leaving its column NaN, before
        # it builds a factor table or sums a head of that length: the
        # table is built for the longest accepted head only, and the
        # heads summed are the accepted point's.
        heads, tables = [], []
        add_heads, factor_table = zetaeval._add_heads, zetaeval._factor_table

        def add_heads_traced(value, sr, si, a, terms, table):
            heads.extend(terms.tolist())
            return add_heads(value, sr, si, a, terms, table)

        monkeypatch.setattr(zetaeval, "_add_heads", add_heads_traced)
        monkeypatch.setattr(zetaeval, "_factor_table",
                            lambda n: tables.append(n) or factor_table(n))
        t = 0.5 * math.pi * (MAX_TERMS + 0.5)
        assert zetaeval._em_pair(complex(-1.7, t)) == (MAX_TERMS + 1,
                                                       EM_ORDER)
        for points, offsets, shift, factored in (
                ([complex(-1.7, 3000.0), complex(-1.7, t)], None, 1, True),
                ([0.7 + 85.0j, complex(0.5, 5e6)],
                 np.array([0.2, 0.4, 0.6, 0.8]), 0, False)):
            heads.clear()
            tables.clear()
            [(_, values)] = zetaeval._em_blocks(np.array(points), offsets)
            assert np.isfinite(values[:, 0]).all()
            assert np.isnan(values[:, 1]).all()
            accepted = zetaeval._em_pair(points[0])[0] - shift
            assert heads == [accepted]
            assert tables == ([accepted] if factored else [])

    def test_head_term_just_above_the_largest_double_is_refused(self):
        # |0.2^-s| lies just above the largest double here, yet numpy's
        # complex exp leaves both its parts finite, and so the value:
        # the batch leaves the point, whose head exponent is above 709,
        # to the scalar path, and _em_sum's own test of a^-s refuses it.
        s = complex(441.013, 1.0)
        with pytest.raises(DomainError, match="overflows") as scalar:
            davenport_heilbronn(s)
        with pytest.raises(DomainError) as batched:
            davenport_heilbronn(np.array([0.7 + 85.0j, s]))
        assert str(batched.value) == str(scalar.value)

    def test_head_exponent_above_709_takes_the_scalar_path(self):
        # 0.2^-sigma stays finite up to sigma ~ 441.01, but above
        # sigma ~ 440.5 its exponent passes 709, where glibc's cexp
        # rescales and the split heads would differ from it: the batch
        # leaves those points to the scalar path.
        s = np.array([440.8 + 3.0j, 440.95 + 60.0j, 0.7 + 85.0j])
        assert -s.real[1] * math.log(0.2) > 709.0
        want = np.array([davenport_heilbronn(z) for z in s.tolist()])
        assert _bits(davenport_heilbronn(s)) == _bits(want)
        [(_, values)] = zetaeval._em_blocks(s, np.arange(1, 5) / 5.0)
        assert np.isnan(values[:, :2]).all() and np.isfinite(values[:, 2]).all()
        # A zeta head's exponent passes 709 only left of sigma = -41,
        # where Backlund's premise refuses the point anyway.
        sigma, ts = -100.0, np.array([3000.0, 3001.0])
        n = zetaeval._em_pair(complex(sigma, ts[0]))[0]
        assert -sigma * math.log(n) > 709.0
        family = zetaeval._hardy_z_family([0.5, sigma], ts)
        assert family[0].tobytes() == np.array(
            [generalized_hardy(0.5, t).z for t in ts.tolist()]).tobytes()
        assert np.isnan(family[1]).all()
        for t in ts.tolist():
            with pytest.raises(DomainError, match="premises"):
                generalized_hardy(sigma, t)

    def test_signed_zeros_take_rows_of_their_own(self):
        # Heights and sigmas are told apart by their bits: a block with
        # 0.0 and -0.0 of both, and points sharing each, gives the scalar
        # values bit for bit, signs of zero parts included.
        zeros = [0.0, -0.0]
        s = np.array([complex(x, y) for x in zeros + [0.5, -1.5]
                      for y in zeros + [3.0, -3.0]])
        for fn in (davenport_heilbronn, dirichlet_l_mod5):
            want = np.array([fn(z) for z in s.tolist()])
            assert _bits(fn(s)) == _bits(want)
        zetas = np.empty(s.size, dtype=complex)
        for span, values in zetaeval._em_blocks(s):
            zetas[span] = values[0]
        assert _bits(zetas) == _bits([zeta_em(z) for z in s.tolist()])

    def test_zeta_and_hurwitz_calls_equal_the_scalar(self):
        # A zeta call factors its heads from _SMOOTH_MIN_TERMS terms on
        # and a Hurwitz call never does: on heads that straddle the
        # threshold, at three sigma with shared heights and two points
        # of their own, each is bit for bit its scalar.
        threshold = zetaeval._SMOOTH_MIN_TERMS
        s = np.concatenate([
            sigma + 1j * np.linspace(640.0, 670.0, 31)
            for sigma in (0.5, 0.3, 0.75)] + [[-1.5 + 500.0j, 2.0 + 3.0j]])
        heads = [zetaeval._em_pair(z)[0] for z in s.tolist()]
        assert min(heads) - 1 < threshold <= max(heads) - 1
        [(_, zetas)] = zetaeval._em_blocks(s)
        assert _bits(zetas) == _bits([[zeta_em(z) for z in s.tolist()]])
        [(_, values)] = zetaeval._em_blocks(s, np.array([0.3]))
        assert _bits(values) == _bits(
            [[hurwitz_zeta(z, 0.3) for z in s.tolist()]])

    def test_first_refused_point_decides_the_error(self):
        # A bound refusal before a premise refusal: the array raises the
        # bound's error, as a loop of scalar calls does.
        s = [0.7 + 85.0j, complex(-5.0, 100.0), complex(-45.0, 10.0),
             2.0 + 3.0j]
        with pytest.raises(DomainError) as scalar:
            [davenport_heilbronn(z) for z in s]
        with pytest.raises(DomainError) as batched:
            davenport_heilbronn(np.array(s))
        assert "truncation bound" in str(scalar.value)
        assert str(batched.value) == str(scalar.value)

    def test_no_scalar_fallback_on_accepted_points(self, monkeypatch):
        # A fallback to the scalar branch gives the same values, only
        # slower, so no value test sees it: count hurwitz_zeta calls.
        calls = []
        hurwitz = zetaeval.hurwitz_zeta
        monkeypatch.setattr(zetaeval, "hurwitz_zeta",
                            lambda s, a: calls.append(s) or hurwitz(s, a))
        grids, midpoints = [], []

        def dh(s):
            before = len(calls)
            value = davenport_heilbronn(s)
            if isinstance(s, np.ndarray):
                grids.append(s)
                assert len(calls) == before
            else:
                midpoints.append(s)
            return value

        # dh-winding boxes, 128 points a side.
        for t1 in (60.0, 85.0, 230.0, 395.0):
            argument_principle_count(dh, (0.51, 1.0, t1, t1 + 5.0), 128)
        assert [g.size for g in grids] == [513] * 4 and midpoints
        assert len(calls) == 4 * len(midpoints)
        calls.clear()
        for fn in (davenport_heilbronn, dirichlet_l_mod5):
            fn(_batch_points())
            fn(grids[0])
        assert calls == []

    def test_only_refused_points_reach_hurwitz_zeta(self, monkeypatch):
        # The refused point's own first hurwitz_zeta call, which raises,
        # is the only one: the accepted points stay in the batch.
        calls = []
        hurwitz = zetaeval.hurwitz_zeta
        monkeypatch.setattr(zetaeval, "hurwitz_zeta",
                            lambda s, a: calls.append(s) or hurwitz(s, a))
        with pytest.raises(DomainError, match="premises"):
            davenport_heilbronn(np.array([0.7 + 85.0j, 2.0 + 3.0j,
                                          -45.0 + 10.0j]))
        assert calls == [-45.0 + 10.0j]

    def test_one_weight_row_per_sigma_on_a_contour(self, head_exps):
        # A dh-winding box at t = 440, just above the workload's heights:
        # its heads of 131 to 140 terms put each horizontal side in
        # several chunks, yet each distinct sigma of the grid takes one
        # weight row per offset, as long as its longest head, and the
        # phase rows stay one a height per chunk.
        s = _contour_grid((0.51, 1.0, 440.0, 445.0))
        pairs = [zetaeval._em_pair(z) for z in s.tolist()]
        assert 128 * min(n for n, _ in pairs) > zetaeval._HEAD_BLOCK
        longest = Counter()
        for key, (n, _) in zip(s.real.view(np.int64).tolist(), pairs):
            longest[key] = max(longest[key], n)
        got, exps = head_exps(lambda: davenport_heilbronn(s))
        assert exps == (72900, 4 * sum(longest.values()))
        want = np.array([davenport_heilbronn(z) for z in s.tolist()])
        assert np.all(np.abs(got - want)
                      <= 1e-15 * np.maximum(1.0, np.abs(want)))

    def test_sigma_groups_take_each_weight_row_once(self, head_exps):
        # A horizontal segment of a whole block of points, every sigma
        # distinct: its weight rows would pass _WEIGHT_BLOCK elements
        # several times over, so its sigmas go in groups, each walked in
        # its own chunks.  Each sigma still takes one weight row per
        # offset, the values are the scalar's and the block stays under
        # 1 KB a point.
        n = zetaeval._POINT_BLOCK
        s = np.linspace(0.51, 1.0, n) + 100.0j
        heads = [zetaeval._em_pair(z)[0] for z in s.tolist()]
        assert np.unique(s.real).size == n
        assert n * min(heads) > 2 * zetaeval._WEIGHT_BLOCK
        got, (_, weights) = head_exps(lambda: davenport_heilbronn(s))
        assert weights == 4 * sum(heads)
        assert _bits(got) == _bits([davenport_heilbronn(z)
                                    for z in s.tolist()])
        tracemalloc.start()
        try:
            davenport_heilbronn(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1024 * n

    def test_memory_of_a_contour_call(self):
        # The contour path's memory, pinned: one call on the 513 points of
        # a dh-winding box at t = 395 peaked at 1,298,370 B (tracemalloc,
        # numpy 2.4.6), allowed 10% more.
        s = _contour_grid((0.51, 1.0, 395.0, 400.0))
        tracemalloc.start()
        try:
            davenport_heilbronn(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 1298370

    def test_memory_is_one_point_block(self):
        # Under 1 KB a point, as the docstrings state, so a grid of
        # MAX_TERMS points taken at once would need some 900 MB.  Three
        # blocks of points peak hardly above one: only the input copy and
        # the output grow.
        def peak(n):
            s = 0.6 + 1j * np.linspace(10.0, 20.0, n)
            tracemalloc.start()
            try:
                davenport_heilbronn(s)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block = zetaeval._POINT_BLOCK
        one = peak(block)
        assert one <= 1024 * block
        assert peak(3 * block) <= 1.2 * one


def _table_bytes_of(split) -> int:
    return sum(values.nbytes for values in split)


class TestFactoredHead:
    # Head lengths from the threshold up, in the race test.
    KS = list(range(zetaeval._SMOOTH_MIN_TERMS,
                    zetaeval._SMOOTH_MIN_TERMS + 200))
    S = complex(0.5, 9000.0)

    def _check_split(self, split, terms):
        """The split equals one computed afresh in integers, and none of
        its arrays can be written."""
        coprime = [n for n in range(1, terms + 1) if math.gcd(n, 30) == 1]
        # n <= terms < 2**20 is 5-smooth when it divides 30**20.
        smooth = [n for n in range(1, terms + 1) if 30**20 % n == 0]
        last = [sum(m <= terms // c for m in smooth) - 1 for c in coprime]
        for got, want in zip(split, (np.log(coprime), np.log(smooth),
                                     np.array(last))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable

    @pytest.mark.parametrize("terms", [
        1, 2, 29, 30, 31, 255, zetaeval._SMOOTH_MIN_TERMS - 1,
        zetaeval._SMOOTH_MIN_TERMS, 799, 800, 2688, 2989, 3000])
    def test_products_cover_each_n_once(self, terms):
        zetaeval._factor_split.cache_clear()
        split = zetaeval._factor_split(terms)
        self._check_split(split, terms)
        coprime_log, smooth_log, last = split
        coprime = np.rint(np.exp(coprime_log)).astype(int)
        smooth = np.rint(np.exp(smooth_log)).astype(int)
        products = sorted(int(c) * int(m) for c, k in zip(coprime, last)
                          for m in smooth[:k + 1])
        assert products == list(range(1, terms + 1))

    @pytest.mark.parametrize("terms", [
        zetaeval._SMOOTH_MIN_TERMS - 1, zetaeval._SMOOTH_MIN_TERMS, 799,
        800, 2688, 2989])
    @pytest.mark.parametrize("s", [
        0.5 + 9000.0j, 0.5 - 9000.0j, 0.0 + 8000.0j, 3.0 + 3000.0j,
        -2.0 + 8000.0j, 1.0 + 1.0j])
    def test_agrees_with_plain_head(self, s, terms):
        head = zetaeval._factored_head(s, terms)
        plain = complex(zetaeval._powers(
            np.arange(1, terms + 1, dtype=float), -s).sum())
        # The tolerances of the mpmath tests: left of sigma = 0 each
        # term's phase rounding grows with n^{-sigma} (3.3e-11 apart at
        # -2 + 8000i, 3000 terms).
        rel = 2e-11 if s.real >= 0.0 else 1e-10
        assert abs(head - plain) <= rel * max(1.0, abs(head))

    def test_only_riemann_heads_from_the_threshold(self, monkeypatch):
        def untouchable(terms):
            raise AssertionError("read the factor split")

        # Backlund's N moves with sigma, so each sigma has its own heights
        # where the head is one term short of the threshold (below) and
        # where it reaches it (above), found by bisection.
        heights = {}
        for sigma in (0.5, -2.0, 3.0):
            lo, hi = 10.0, 1e4
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                if (zetaeval._em_pair(complex(sigma, mid))[0] - 1
                        < zetaeval._SMOOTH_MIN_TERMS):
                    lo = mid
                else:
                    hi = mid
            heights[sigma] = lo, hi
        monkeypatch.setattr(zetaeval, "_factor_split", untouchable)
        for sigma, (below, above) in heights.items():
            for t in (below, -below):
                assert (zetaeval._em_pair(complex(sigma, t))[0] - 1
                        == zetaeval._SMOOTH_MIN_TERMS - 1)
                zeta_em(complex(sigma, t))
                generalized_hardy(sigma, t)
            zetaeval._hardy_z_family([sigma], np.linspace(-below, below, 9))
            assert (zetaeval._em_pair(complex(sigma, above))[0] - 1
                    == zetaeval._SMOOTH_MIN_TERMS)
        hurwitz_zeta(complex(0.5, 9000.0), 0.2)
        davenport_heilbronn(complex(0.75, 9000.0))
        davenport_heilbronn(0.75 + 1j * np.linspace(8990.0, 9000.0, 9))
        hardy_z_rs(9000.0)
        above = heights[0.5][1]
        for call in (lambda: zeta_em(complex(0.5, above)),
                     lambda: hurwitz_zeta(complex(0.5, above), 1.0),
                     lambda: zetaeval._hardy_z_family(
                         [0.5], np.array([10.0, above]))):
            with pytest.raises(AssertionError, match="factor split"):
                call()

    def test_cuts_equal_the_split_of_their_length(self):
        # The batched head cuts each shorter head's split from the table
        # of a block's longest head, by the rule _factor_split applies.
        zetaeval._factor_split.cache_clear()
        coprime, smooth, coprime_log, smooth_log = zetaeval._factor_table(
            3000)
        for terms in [1, 29, 30, 31, 199, 200, 201, 799, 800, 2688, 2999,
                      3000]:
            n_c = np.searchsorted(coprime, terms, "right")
            n_m = np.searchsorted(smooth, terms, "right")
            cut = (coprime_log[:n_c], smooth_log[:n_m],
                   zetaeval._last_smooth(smooth, coprime[:n_c], terms))
            zetaeval._factor_split.cache_clear()
            for got, want in zip(cut, zetaeval._factor_split(terms)):
                assert np.array_equal(got, want)
        zetaeval._factor_split.cache_clear()

    def test_table_memory(self):
        zetaeval._factor_split.cache_clear()
        for lengths in (range(100, 3001, 100), range(3000, 99, -100)):
            retained = _retained_in_zetaeval(lambda: [
                zetaeval._factored_head(self.S, terms) for terms in lengths])
            # Only the entry of the last length of the sweep is kept.
            split = _cached_entry(zetaeval._factor_split, lengths[-1])
            self._check_split(split, lengths[-1])
            assert retained <= _table_bytes_of(split) + 4096
        # 13784 B at 3000 terms, enough for sigma = 1/2 up to t = 1e4, as
        # the docstring states.
        split = zetaeval._factor_split(3000)
        assert (len(split[0]), len(split[1])) == (800, 123)
        assert _table_bytes_of(split) <= 15_000
        # About 4.3 MB at MAX_TERMS.
        split = zetaeval._factor_split(MAX_TERMS)
        assert (len(split[0]), len(split[1])) == (266666, 507)
        assert _table_bytes_of(split) <= 4.3e6
        zetaeval._factor_split.cache_clear()

    def test_two_threads_on_interleaved_lengths(self):
        zetaeval._factor_split.cache_clear()
        expected = [zetaeval._factored_head(self.S, k) for k in self.KS]

        def work(ks, start, values, errors):
            try:
                start.wait(timeout=30.0)
                for k in ks:
                    values[k] = zetaeval._factored_head(self.S, self.KS[k])
            except Exception as exc:
                errors.append(exc)

        # As in TestRsTermTable: two threads (never more) take the even
        # and the odd lengths, and the short switch interval lets them
        # interleave inside a computation.
        n = len(self.KS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for order in (1, -1) * 20:
                zetaeval._factor_split.cache_clear()
                start = threading.Barrier(2)
                values: dict[int, complex] = {}
                errors: list[Exception] = []
                threads = [
                    threading.Thread(target=work, args=(
                        range(j, n, 2)[::order], start, values, errors))
                    for j in (0, 1)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30.0)
                assert not any(th.is_alive() for th in threads)
                assert errors == []
                assert zetaeval._factor_split.cache_info().currsize == 1
                assert [values[k] for k in range(n)] == expected
        finally:
            sys.setswitchinterval(interval)


def test_a_scan_recomputes_neither_table(em_work):
    # A zero scan at t ~ 9000 keeps one RS length and refines on a few
    # rising head lengths, so one entry each serves nearly every call:
    # 1 of ~500 RS calls misses, and at most 3 of the factored heads
    # (every plain sum and jet there: window ends, bracket ends and
    # Newton jets, 20 in all) miss.
    zetaeval._rs_terms.cache_clear()
    zetaeval._factor_split.cache_clear()
    _, (plain, jets) = em_work(
        lambda: find_critical_zeros(Interval(9000.0, 9005.0)))
    rs = zetaeval._rs_terms.cache_info()
    split = zetaeval._factor_split.cache_info()
    assert rs.misses == 1 and rs.hits >= 400
    assert split.misses <= 3 and split.hits + split.misses == plain + jets


@pytest.mark.parametrize("lo", [990.0, 9000.0])
def test_a_sample_builds_one_factor_split(lo):
    # About 100 Gauss nodes whose factored heads run over several
    # lengths: the batch builds the split of the longest once and cuts
    # the others from it.
    iv = Interval(lo, lo + 10.0)
    ts = gauss_legendre_rule(oscillation_order(iv), iv).nodes
    for sigma in (0.5, 0.3, 0.75):
        heads = {zetaeval._em_pair(complex(sigma, t))[0] - 1
                 for t in ts.tolist()}
        assert len(heads) >= 3 and min(heads) >= zetaeval._SMOOTH_MIN_TERMS
        zetaeval._factor_split.cache_clear()
        hardy_function(sigma).sample(ts)
        assert zetaeval._factor_split.cache_info().misses <= 1


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
