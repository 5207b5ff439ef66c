import math
from types import SimpleNamespace

import numpy as np
import pytest

from hardyzeta import zerofinder
from hardyzeta.errors import BracketError, ContourError, DomainError
from hardyzeta.hilbert import Interval, SampledFunction, hardy_function
from hardyzeta.zerofinder import (
    argument_principle_count,
    find_critical_zeros,
    hardy_em_function,
    lehmer_scan,
    refine_zero,
    scan_and_refine,
    scan_sign_changes,
    zero_count_estimate,
)
from hardyzeta.zetaeval import (
    davenport_heilbronn,
    hardy_z_rs,
    zeta_em,
)

SIN = SampledFunction(math.sin, "sin")

# Frozen: first critical-line zero, refined on the Euler-Maclaurin route
# at tol 1e-12 and confirmed by the N = 1e4 oracle (agreement 1.1e-13).
FIRST_ZERO = 14.134725141734693


class TestScan:
    def test_sin_three_brackets(self):
        brackets = scan_sign_changes(SIN, Interval(1.0, 10.0), 0.1)
        assert len(brackets) == 3
        for (lo, hi), ref in zip(brackets, (math.pi, 2 * math.pi, 3 * math.pi)):
            assert lo < ref < hi

    def test_constant_no_brackets(self):
        f = SampledFunction(lambda x: 1.0, "1")
        assert scan_sign_changes(f, Interval(0.0, 5.0), 0.1) == []

    def test_exact_grid_zero_expanded(self):
        f = SampledFunction(lambda x: x - 2.0, "x-2")
        brackets = scan_sign_changes(f, Interval(0.0, 4.0), 1.0)
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo == pytest.approx(1.9) and hi == pytest.approx(2.1)

    def test_step_domain(self):
        with pytest.raises(DomainError):
            scan_sign_changes(SIN, Interval(0.0, 1.0), 2.0)
        with pytest.raises(DomainError):
            scan_sign_changes(SIN, Interval(0.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            scan_sign_changes(SIN, Interval(0.0, 1.0), math.nan)

    def test_grid_over_max_terms_refused(self):
        seen = []
        f = SampledFunction(lambda x: seen.append(x) or math.sin(x), "sin")
        with pytest.raises(DomainError, match="MAX_TERMS"):
            scan_sign_changes(f, Interval(10.0, 20.0), 1e-9)
        assert seen == []

    def test_bracket_list_frozen(self):
        # Exact zeros at the first, an interior and the last grid point
        # (the last one appended at b), each next to strict sign changes.
        values = {0.0: 0.0, 0.25: 1.0, 0.5: -1.0, 0.75: 0.0, 1.0: 1.0,
                  1.25: -1.0, 1.5: -2.0, 1.75: 3.0, 2.0: 0.5, 2.1: 0.0}
        f = SampledFunction(lambda x: values[x], "table")
        brackets = scan_sign_changes(f, Interval(0.0, 2.1), 0.25)
        assert brackets == [(0.0, 0.025), (0.25, 0.5), (0.725, 0.775),
                            (1.0, 1.25), (1.5, 1.75), (2.075, 2.1)]
        assert all(type(x) is float for b in brackets for x in b)

    def test_hardy_brackets_up_to_50(self):
        from hardyzeta.zerofinder import hardy_rs_function

        brackets = scan_sign_changes(hardy_rs_function(),
                                     Interval(2 * math.pi + 1e-9, 50.0), 0.01)
        assert len(brackets) == 10


class TestRefine:
    def test_pi_to_twelve_digits(self):
        r = refine_zero(SIN, (3.0, 3.3), 1e-12)
        assert abs(r.location - math.pi) < 1e-12
        assert r.simple
        assert r.bracket == (3.0, 3.3)
        assert r.bracket[0] < r.location < r.bracket[1]
        assert r.residual < 1e-12

    def test_no_sign_change_rejected(self):
        square = SampledFunction(lambda x: x * x, "x^2")
        with pytest.raises(BracketError):
            refine_zero(square, (-1.0, 1.0))

    def test_derivative_estimate(self):
        r = refine_zero(SIN, (3.0, 3.3), 1e-10)
        assert r.derivative == pytest.approx(math.cos(math.pi), abs=1e-4)

    def test_evaluates_each_point_once(self):
        seen = []
        f = SampledFunction(lambda x: seen.append(x) or math.sin(x), "sin")
        r = refine_zero(f, (3.0, 3.3), 1e-12)
        assert abs(r.location - math.pi) < 1e-12
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("bracket", [(2.0, 3.0), (1.0, 2.0)])
    def test_exact_zero_at_bracket_end(self, bracket):
        r = refine_zero(SampledFunction(lambda x: x - 2.0, "x-2"), bracket)
        assert r.location == 2.0
        assert r.residual == 0.0
        assert r.derivative == pytest.approx(1.0)


class TestCountEstimate:
    def test_monotone(self):
        ts = np.linspace(10.0, 500.0, 40)
        vals = [zero_count_estimate(float(t)) for t in ts]
        assert all(a < b for a, b in zip(vals[:-1], vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            zero_count_estimate(6.0)

    @pytest.mark.parametrize("T,count", [(30.0, 3), (50.0, 10), (80.0, 21),
                                         (100.0, 29)])
    def test_within_one_of_scan(self, T, count):
        assert abs(zero_count_estimate(T) - count) <= 1.0


class TestScanAndRefine:
    @staticmethod
    def _routed(seen):
        """sin, with a scan route whose zeros sit 0.003 to the right."""
        route = SampledFunction(
            lambda t: seen.append(t) or math.sin(t - 0.003), "sin_shifted")
        return SampledFunction(math.sin, "sin", scan_route=route)

    def test_scans_on_the_route_inside_its_range(self):
        # At step 0.001 each route zero is three cells from sin's, so
        # every zero is found through its span.
        seen = []
        recs = scan_and_refine(self._routed(seen), Interval(7.0, 20.0),
                               0.001, 1e-12)
        assert len(seen) == 13001
        assert [r.location for r in recs] == pytest.approx(
            [k * math.pi for k in (3, 4, 5, 6)], abs=1e-12)

    @pytest.mark.parametrize("a,b", [(1.0, 10.0), (9990.0, 10010.0)],
                             ids=["below-2pi", "above-max-height"])
    def test_scans_on_f_outside_the_route_range(self, a, b):
        seen = []
        recs = scan_and_refine(self._routed(seen), Interval(a, b), 0.01,
                               1e-12)
        assert seen == []
        zeros = [k * math.pi for k in range(math.ceil(a / math.pi),
                                            math.floor(b / math.pi) + 1)]
        assert [r.location for r in recs] == pytest.approx(zeros, abs=1e-9)

    def test_find_critical_zeros_is_the_pipeline_on_z_em(self):
        iv = Interval(100.0, 110.0)
        assert find_critical_zeros(iv) == scan_and_refine(
            hardy_em_function(), iv, 0.01, 1e-10)

    def test_hardy_function_scan_route_is_rs_on_the_line(self, monkeypatch):
        seen = []
        monkeypatch.setattr(zerofinder, "hardy_z_rs",
                            lambda t: seen.append(t) or 1.0)
        assert hardy_function(0.5).scan_route.eval(100.0) == 1.0
        assert seen == [100.0]
        assert hardy_function(0.3).scan_route is None


class TestCriticalZeros:
    def test_census_and_first_zero(self):
        recs = find_critical_zeros(Interval(2 * math.pi + 1e-9, 100.0),
                                   step=0.01)
        assert len(recs) == 29
        assert abs(recs[0].location - FIRST_ZERO) < 1e-9
        assert all(r.simple for r in recs)

    def test_step_halving_stable(self):
        iv = Interval(2 * math.pi + 1e-9, 50.0)
        a = find_critical_zeros(iv, step=0.01)
        b = find_critical_zeros(iv, step=0.005)
        assert len(a) == len(b) == 10
        assert max(abs(x.location - y.location) for x, y in zip(a, b)) < 1e-9

    @pytest.mark.parametrize("step", [
        0.2, 0.5, zerofinder.MAX_SCAN_STEP * (1.0 + 1e-9), math.nan],
        ids=["0.2", "0.5", "just-above-ceiling", "nan"])
    def test_steps_above_ceiling_refused(self, step, monkeypatch):
        # Refused before any evaluation: a step above the smallest zero
        # gap could merge the Lehmer pair near 7005 into one cell.
        monkeypatch.setattr(zerofinder, "hardy_z_rs", None)
        with pytest.raises(DomainError, match="step"):
            find_critical_zeros(Interval(7000.0, 7010.0), step=step)

    @pytest.mark.parametrize("step", [0.02, 0.01, 0.004, 0.002, 0.001])
    @pytest.mark.parametrize("a,b,count", [
        (20.0, 30.0, 2), (2 * math.pi + 1e-9, 100.0, 29)],
        ids=["20-30", "2pi-100"])
    def test_every_step_up_to_ceiling_gives_full_census(self, a, b, count,
                                                        step):
        # Frozen counts from mpmath.nzeros.  The Riemann-Siegel and
        # Euler-Maclaurin zeros differ by up to 7.5e-3 (near 25.01), many
        # cells at small steps, so this fails without the span fallback.
        iv = Interval(a, b)
        ref = [r.location for r in find_critical_zeros(iv, step=0.01)]
        got = [r.location for r in find_critical_zeros(iv, step=step)]
        assert len(ref) == len(got) == count
        assert max(abs(x - y) for x, y in zip(ref, got)) < 1e-9

    def test_span_fallback_beyond_cell(self, monkeypatch):
        # Each Riemann-Siegel zero sits 5.5 to 7.5 cells from its
        # Euler-Maclaurin zero, and RS alone changes sign twice near 10.655.
        em_zeros = (10.2, 10.5, 10.8)
        rs_zeros = (10.2075, 10.4945, 10.6515, 10.6585, 10.8055)

        def poly(roots, t):
            return math.prod(t - r for r in roots)

        monkeypatch.setattr(zerofinder, "hardy_z_rs",
                            lambda t: poly(rs_zeros, t))
        monkeypatch.setattr(
            zerofinder, "generalized_hardy",
            lambda sigma, t: SimpleNamespace(z=poly(em_zeros, t)))
        recs = find_critical_zeros(Interval(10.0, 11.0), step=0.001)
        got = [r.location for r in recs]
        assert len(got) == len(em_zeros)
        assert max(abs(x - y) for x, y in zip(got, em_zeros)) < 1e-10
        assert all(x < y for x, y in zip(got[:-1], got[1:]))

    @pytest.mark.parametrize("a", [7000.0, 5225.0])
    def test_ceiling_step_keeps_closest_pairs(self, a):
        # The two closest zero pairs below 1e4 (gaps 0.0377 near 7005 and
        # 0.0433 near 5229.20) are both found at the ceiling step.
        iv = Interval(a, a + 10.0)
        fine = [r.location for r in find_critical_zeros(iv, step=0.01)]
        coarse = [r.location for r in
                  find_critical_zeros(iv, step=zerofinder.MAX_SCAN_STEP)]
        assert len(fine) == len(coarse)
        assert max(abs(x - y) for x, y in zip(fine, coarse)) < 1e-9

    def test_tiny_step_refused_before_evaluation(self, monkeypatch):
        seen = []
        monkeypatch.setattr(zerofinder, "hardy_z_rs",
                            lambda t: seen.append(t) or hardy_z_rs(t))
        with pytest.raises(DomainError, match="MAX_TERMS"):
            find_critical_zeros(Interval(10.0, 20.0), step=1e-9)
        assert seen == []

    def test_scan_evaluates_each_height_once(self, monkeypatch):
        seen = []

        def counted(t):
            seen.append(t)
            return hardy_z_rs(t)

        monkeypatch.setattr(zerofinder, "hardy_z_rs", counted)
        recs = find_critical_zeros(Interval(7000.0, 7010.0), step=0.01)
        assert len(recs) == 11
        assert len(seen) == len(set(seen))

    def test_rs_route_called_with_builtin_floats(self, monkeypatch):
        # The benchmark's oracle passes each recorded argument to
        # mpmath.siegelz, which takes scalars only.
        seen = []
        monkeypatch.setattr(zerofinder, "hardy_z_rs",
                            lambda t: seen.append(t) or hardy_z_rs(t))
        assert len(find_critical_zeros(Interval(100.0, 110.0))) == 4
        n_scan = len(seen)
        assert len(lehmer_scan(Interval(7000.0, 7010.0), 0.2)) == 1
        assert n_scan == 1001 and len(seen) == 2 * n_scan + 64
        assert {type(t) for t in seen} == {float}

    def test_scan_samples_once(self, monkeypatch):
        calls = []
        sample = SampledFunction.sample

        def counted(self, xs):
            calls.append(len(xs))
            return sample(self, xs)

        monkeypatch.setattr(SampledFunction, "sample", counted)
        recs = find_critical_zeros(Interval(7000.0, 7010.0), step=0.01)
        assert len(recs) == 11
        assert calls == [1001]

    def test_refuses_em_terms_below_default_cutoff(self, hardy_at_cutoff):
        # N = 200 is below |t|/2pi ~ 1114 at t = 7000, and refinement
        # there stops at the kernel's refusal, which names the cutoff.
        with pytest.raises(DomainError, match="N=200"):
            refine_zero(hardy_at_cutoff(200), (7005.0, 7005.1))

    def test_residuals_tiny_relative_to_local_scale(self):
        recs = find_critical_zeros(Interval(10.0, 60.0), step=0.01, tol=1e-12)
        z = hardy_em_function()
        for r in recs:
            local = max(abs(z.eval(r.location - 0.01)),
                        abs(z.eval(r.location + 0.01)),
                        abs(z.eval(r.bracket[0])), abs(z.eval(r.bracket[1])))
            assert r.residual < 1e-8 * local

    def test_em_config_stability(self, hardy_at_cutoff):
        a = refine_zero(hardy_em_function(), (14.0, 14.2), 1e-12)
        b = refine_zero(hardy_at_cutoff(10**4), (14.0, 14.2), 1e-12)
        assert abs(a.location - b.location) < 1e-9
        assert abs(a.location - FIRST_ZERO) < 1e-9

    def test_domain_limits(self):
        with pytest.raises(DomainError):
            find_critical_zeros(Interval(1.0, 20.0))
        with pytest.raises(DomainError):
            find_critical_zeros(Interval(9000.0, 10001.0))


class TestLehmer:
    def test_empty_zero_set(self):
        # no Hardy zeros below 14.13, so nothing to pair
        assert lehmer_scan(Interval(7.0, 13.0), threshold=math.inf) == []

    def test_no_close_pairs_low(self):
        assert lehmer_scan(Interval(10.0, 100.0), threshold=0.05) == []

    def test_classic_pair(self):
        pairs = lehmer_scan(Interval(7000.0, 7010.0), threshold=0.2)
        assert len(pairs) == 1
        p = pairs[0]
        assert abs(p.t_low - 7005.06) < 0.01
        assert abs(p.t_high - 7005.10) < 0.01
        assert p.normalized_gap < 0.2
        assert 0.0 < p.min_between < 0.01
        z = hardy_em_function()
        assert abs(z.eval(p.t_low)) < 1e-6
        assert abs(z.eval(p.t_high)) < 1e-6

    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0])
    def test_threshold_domain(self, threshold):
        with pytest.raises(DomainError, match="threshold"):
            lehmer_scan(Interval(7000.0, 7010.0), threshold=threshold)

    def test_infinite_threshold_returns_all_gaps(self):
        pairs = lehmer_scan(Interval(10.0, 50.0), threshold=math.inf)
        # 10 zeros -> 9 consecutive gaps
        assert len(pairs) == 9
        assert all(p.t_low < p.t_high for p in pairs)

    def test_gap_normalization_mean(self):
        pairs = lehmer_scan(Interval(10.0, 1000.0), threshold=math.inf)
        gaps = [p.normalized_gap for p in pairs]
        assert len(gaps) > 600
        assert abs(float(np.mean(gaps)) - 1.0) < 0.05


class TestArgumentPrinciple:
    def test_linear_single_zero(self):
        f = lambda z: z - complex(0.7, 85.0)
        assert argument_principle_count(f, (0.5, 1.0, 80.0, 90.0), 64) == 1

    def test_zeta_box_empty(self):
        assert argument_principle_count(zeta_em, (0.6, 0.9, 10.0, 50.0),
                                        256) == 0

    def test_dh_box_has_offline_zero(self):
        c1 = argument_principle_count(davenport_heilbronn,
                                      (0.51, 1.0, 80.0, 90.0), 128)
        c2 = argument_principle_count(davenport_heilbronn,
                                      (0.51, 1.0, 80.0, 90.0), 256)
        assert c1 >= 1
        assert c1 == c2

    def test_zero_on_contour_rejected(self):
        f = lambda z: z - complex(0.5, 85.0)
        with pytest.raises(ContourError):
            argument_principle_count(f, (0.5, 1.0, 80.0, 90.0), 64)

    def test_degenerate_box(self):
        with pytest.raises(DomainError):
            argument_principle_count(zeta_em, (0.9, 0.6, 10.0, 50.0), 64)

    def test_n_per_side_above_max_terms_refused(self):
        seen = []

        def f(z):
            seen.append(z)
            return z - complex(0.7, 85.0)

        with pytest.raises(DomainError, match="n_per_side"):
            argument_principle_count(f, (0.5, 1.0, 80.0, 90.0), 250001)
        assert seen == []
