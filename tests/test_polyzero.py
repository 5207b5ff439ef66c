import math
import random

import numpy as np
import pytest

from hardyzeta import hilbert, zerofinder
from hardyzeta.errors import DomainError
from hardyzeta.hilbert import (
    MIN_QUAD_ORDER,
    Interval,
    SampledFunction,
    gauss_legendre_rule,
    hardy_function,
)
from hardyzeta.polyzero import (
    PolynomialRealCoeffs,
    _match_sorted,
    poly_real_zeros,
    project,
    zero_convergence_study,
)
from hardyzeta.zerofinder import hardy_em_function, scan_and_refine
from hardyzeta.zetaeval import (_hardy_z_family, _hardy_z_jet,
                                generalized_hardy, hardy_z_rs)


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


class TestPolyRealZeros:
    def test_legendre_p3(self):
        p = PolynomialRealCoeffs(np.array([0.0, 0.0, 0.0, 1.0]),
                                 Interval(-1.0, 1.0))
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

    def test_nonzero_constant_has_no_zeros(self):
        p = PolynomialRealCoeffs(np.array([2.0]), Interval(0.0, 1.0))
        assert poly_real_zeros(p) == []

    def test_zero_polynomial_rejected(self):
        for coeffs in ([0.0], [0.0, 0.0, 0.0]):
            p = PolynomialRealCoeffs(np.array(coeffs), Interval(0.0, 1.0))
            with pytest.raises(DomainError):
                poly_real_zeros(p)

    @pytest.mark.parametrize("coeffs", [
        [1.0, math.inf], [0.0, 1.0, math.inf], [1.0, math.nan],
        [1.0, 2.0, math.nan]], ids=["1-inf", "0-1-inf", "1-nan", "1-2-nan"])
    def test_non_finite_coefficients_refused(self, coeffs):
        # These were trimmed to the constant 1, taken for the zero
        # polynomial, given no zeros, or sent to the eigenvalue solver.
        with pytest.raises(DomainError, match="finite"):
            PolynomialRealCoeffs(np.array(coeffs), Interval(0.0, 1.0))

    @pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0], [3.0, 4.0]]],
                             ids=["empty", "2-d"])
    def test_empty_or_multidimensional_coefficients_refused(self, coeffs):
        with pytest.raises(DomainError, match="non-empty and 1-d"):
            PolynomialRealCoeffs(np.array(coeffs), Interval(0.0, 1.0))

    def test_trailing_trim(self):
        p = PolynomialRealCoeffs(np.array([1.0, 1.0, 1e-20]),
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
            assert c.max_deviation == 0.0

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

    STUDIES = {
        "sin": (SampledFunction(math.sin, "sin"), Interval(1.0, 10.0),
                [15, 20, 25]),
        "hardy": (hardy_function(0.5), Interval(990.0, 1000.0),
                  [16, 24, 32, 48]),
        # The top projection trims to degree 3, below degrees 5 and 9.
        "cubic": (SampledFunction(lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0),
                                  "cubic"), Interval(0.3, 4.1), [2, 5, 9]),
    }

    @pytest.mark.parametrize("name", STUDIES)
    def test_top_degree_is_the_projection(self, name):
        f, iv, degrees = self.STUDIES[name]
        top = project(f, iv, degrees[-1])
        c = zero_convergence_study(f, iv, degrees)[-1]
        assert c.degree == degrees[-1]
        assert c.l2_error.hex() == top.l2_error.hex()
        assert c.polynomial_zeros == poly_real_zeros(top.poly)

    @pytest.mark.parametrize("name", STUDIES)
    def test_lower_degrees_truncate_the_top_projection(self, name):
        f, iv, degrees = self.STUDIES[name]
        top = project(f, iv, degrees[-1]).poly
        for c in zero_convergence_study(f, iv, degrees):
            coeffs = top.coeffs[:c.degree + 1]
            truncation = PolynomialRealCoeffs(coeffs, iv)
            assert np.array_equal(truncation.coeffs, coeffs)
            assert c.polynomial_zeros == poly_real_zeros(truncation)

    @pytest.mark.parametrize("name", STUDIES)
    def test_l2_error_is_the_truncations_residual_on_the_top_rule(self, name):
        # The study takes l2_error from the discrete Parseval identity;
        # the direct weighted residual on the top projection's rule
        # agrees to rounding of the function's quadrature norm.
        f, iv, degrees = self.STUDIES[name]
        rule = gauss_legendre_rule(max(2 * degrees[-1], MIN_QUAD_ORDER), iv)
        fv = f.sample(rule.nodes)
        norm = math.sqrt(float(np.sum(rule.weights * fv * fv)))
        top = project(f, iv, degrees[-1]).poly
        for c in zero_convergence_study(f, iv, degrees):
            truncation = PolynomialRealCoeffs(top.coeffs[:c.degree + 1], iv)
            resid = fv - truncation.evaluate(rule.nodes)
            direct = math.sqrt(float(np.sum(rule.weights * resid * resid)))
            assert abs(c.l2_error - direct) <= 1e-13 * norm

    def test_trimmed_top_projection(self):
        f, iv, degrees = self.STUDIES["cubic"]
        comps = zero_convergence_study(f, iv, degrees)
        top = project(f, iv, 9)
        assert top.poly.degree == 3
        assert [c.degree for c in comps] == degrees
        # Degrees at or above the trimmed top take the top itself.
        assert comps[1].l2_error == comps[2].l2_error == top.l2_error
        assert comps[1].polynomial_zeros == comps[2].polynomial_zeros
        assert comps[2].max_deviation < 1e-12
        assert comps[0].l2_error > 1.0


class TestReferenceZeros:
    """The study's reference zeros come from zerofinder.scan_and_refine."""

    DEGREES = [16, 24, 32, 48]
    WINDOW = Interval(990.0, 1000.0)

    @staticmethod
    def _traced(monkeypatch):
        """Record Euler-Maclaurin heights, Riemann-Siegel heights and
        (label, record) of every bracket refine_zero accepts.  The
        Euler-Maclaurin heights are the scalar calls' and the points of
        each row of every family call; the heights of the jet calls,
        which refinement makes, are recorded apart."""
        em, rs, records, jets = [], [], [], []
        refine = zerofinder.refine_zero

        def refine_traced(f, bracket, tol):
            record = refine(f, bracket, tol)
            records.append((f.label, record))
            return record

        def family_traced(sigmas, ts):
            values = _hardy_z_family(sigmas, ts)
            for _ in sigmas:
                em.extend(ts.tolist())
            return values

        monkeypatch.setattr(hilbert, "generalized_hardy",
                            lambda s, t: em.append(t) or generalized_hardy(s, t))
        monkeypatch.setattr(hilbert, "_hardy_z_family", family_traced)
        monkeypatch.setattr(zerofinder, "hardy_z_rs",
                            lambda t: rs.append(t) or hardy_z_rs(t))
        monkeypatch.setattr(zerofinder, "refine_zero", refine_traced)
        monkeypatch.setattr(hilbert, "_hardy_z_jet",
                            lambda t: jets.append(t) or _hardy_z_jet(t))
        return em, rs, records, jets

    @pytest.mark.parametrize("a,b,degrees", [
        (10.0, 30.0, [20, 30, 40]), (990.0, 1000.0, DEGREES)],
        ids=["10-30", "990-1000"])
    def test_half_line_equals_find_critical_zeros(self, a, b, degrees):
        iv = Interval(a, b)
        comps = zero_convergence_study(hardy_function(0.5), iv, degrees)
        # find_critical_zeros' pipeline, at the study's step and tol.
        ref = scan_and_refine(hardy_em_function(), iv,
                              zerofinder.MAX_SCAN_STEP, 1e-12)
        assert len(ref) > 0
        for c in comps:
            assert c.function_zeros == [r.location for r in ref]

    def test_half_line_scans_on_riemann_siegel(self, monkeypatch):
        em, rs, records, jets = self._traced(monkeypatch)
        comps = zero_convergence_study(hardy_function(0.5), self.WINDOW,
                                       self.DEGREES)
        zeros = comps[-1].function_zeros
        # One Riemann-Siegel scan of the MAX_SCAN_STEP grid ...
        grid = set(rs)
        assert len(rs) == len(grid) == 501
        # ... and every reference zero is a record refine_zero placed on
        # the Euler-Maclaurin function, never a grid point.
        assert [r.location for _, r in records] == zeros
        assert {label for label, _ in records} == {"Z(0.5,.)"}
        assert not grid & set(zeros)
        # Euler-Maclaurin evaluations: the nodes of the one projection,
        # at the top degree, the signs of the two window ends and of the
        # two ends of each of the 9 brackets, none for the rest of the
        # scan, and 27 jets for Newton refinement, 3 a zero.  The only
        # grid points among them are the window ends and the ends of the
        # cells refine_zero accepted.  A scan on Euler-Maclaurin would
        # add the 501 grid points, as the sigma = 0.3 study below makes.
        nodes = max(2 * max(self.DEGREES), MIN_QUAD_ORDER)
        cells = {t for _, r in records for t in r.bracket}
        assert grid & set(em) <= cells | {self.WINDOW.a, self.WINDOW.b}
        assert not grid & set(jets)
        assert len(em) == nodes + 2 + 2 * len(zeros) == 116
        assert len(jets) == 27

    def test_zero_at_window_end_kept(self):
        # The zero near 65.1125 lies between its Riemann-Siegel and
        # Euler-Maclaurin positions from the window's right end; it is a
        # reference zero, so the degree-48 projection's four zeros match.
        iv = Interval(55.11308119788091, 65.11308119788092)
        comps = zero_convergence_study(hardy_function(0.5), iv, self.DEGREES)
        assert len(comps[-1].function_zeros) == 4
        assert len(comps[-1].polynomial_zeros) == 4

    def test_off_line_scans_on_euler_maclaurin(self, monkeypatch):
        em, rs, records, jets = self._traced(monkeypatch)
        zero_convergence_study(hardy_function(0.3), self.WINDOW, self.DEGREES)
        # Z(0.3, .) has no scan route: the 501-point grid is sampled on
        # Euler-Maclaurin.  671 = 96 projection nodes + 501 + 74.
        nodes = max(2 * max(self.DEGREES), MIN_QUAD_ORDER)
        assert rs == []
        assert len(em) == nodes + 501 + 74 == 671
        assert {label for label, _ in records} == {"Z(0.3,.)"}

    def test_outside_scan_range_scans_on_euler_maclaurin(self, monkeypatch):
        # [5, 15] reaches below 2*pi, where the Riemann-Siegel route is
        # not valid, so even Z(1/2, .) is scanned on Euler-Maclaurin.
        em, rs, records, jets = self._traced(monkeypatch)
        comps = zero_convergence_study(hardy_function(0.5),
                                       Interval(5.0, 15.0), [20, 30])
        assert rs == []
        assert [r.location for _, r in records] == comps[-1].function_zeros
        assert len(records) == 1

    def test_wide_window_scan_step_capped(self, monkeypatch):
        # Width 50: a step of width/1000 = 0.05 would put the pair near
        # 7005.06/7005.10 into one cell and lose both; the study scans at
        # MAX_SCAN_STEP at every width, so its reference zeros are the
        # full census and the degree-240 projection matches them.
        em, rs, records, jets = self._traced(monkeypatch)
        iv = Interval(6990.005, 7040.005)
        comps = zero_convergence_study(hardy_function(0.5), iv, [240])
        assert len(rs) == 2501
        ref = scan_and_refine(hardy_em_function(), iv,
                              zerofinder.MAX_SCAN_STEP, 1e-12)
        zeros = comps[-1].function_zeros
        assert zeros == [r.location for r in ref]
        assert len(zeros) == len(comps[-1].polynomial_zeros) == 57
        assert sum(7005.0 < t < 7005.2 for t in zeros) == 2


def _windows(seed: int, count: int, lo: float, hi: float
             ) -> list[Interval]:
    """count seeded windows of width 1 to 10 inside [lo, hi]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        width = rng.uniform(1.0, 10.0)
        a = rng.uniform(lo, hi - width)
        out.append(Interval(a, a + width))
    return out


class TestScanCap:
    """The study scans at MAX_SCAN_STEP, the step zerofinder validates up
    to MAX_SCAN_HEIGHT: its reference zeros are those of a scan 4x
    finer, in number, and in place within the refinement tolerance."""

    CASES = {
        "half-line": (0.5, _windows(43, 32, 10.0, 1000.0)),
        # The closest pair up to MAX_SCAN_HEIGHT, 0.0377 apart near 7005:
        # on this window a step of 0.04 or 0.05 puts both in the cell
        # from 7005.062, and loses them.
        "lehmer-7005": (0.5, [Interval(7000.062, 7010.062)]),
        # Where the Riemann-Siegel scan is least accurate.
        "low": (0.5, _windows(44, 12, 6.3, 60.0)),
        # Narrower than the step: scanned at its two ends.
        "narrow": (0.5, [Interval(14.13, 14.14)]),
        "sigma-0.3": (0.3, _windows(45, 3, 10.0, 1000.0)),
        "sigma-0.7": (0.7, _windows(46, 3, 10.0, 1000.0)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_reference_zeros_match_a_finer_scan(self, name):
        sigma, windows = self.CASES[name]
        f = hardy_function(sigma)
        total = 0
        for iv in windows:
            zeros = zero_convergence_study(f, iv, [48])[-1].function_zeros
            fine = [r.location for r in scan_and_refine(
                f, iv, zerofinder.MAX_SCAN_STEP / 4.0, 1e-12)]
            assert len(zeros) == len(fine), iv
            for got, want in zip(zeros, fine):
                assert abs(got - want) <= 1e-12 + 1e-15 * want, iv
            total += len(zeros)
        assert total > 0
