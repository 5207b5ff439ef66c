import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hardyzeta import zerofinder, zetaeval
from hardyzeta.errors import (BracketError, ContourError, DomainError,
                              EvaluationError, NumericsError)
from hardyzeta.hilbert import Interval, SampledFunction, hardy_function
from hardyzeta.zerofinder import (
    argument_principle_count,
    find_critical_zeros,
    hardy_em_function,
    lehmer_scan,
    refine_zero,
    scan_and_refine,
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

# Frozen: the lower zero of the Lehmer pair near 7005, found by
# find_critical_zeros on [7004.9, 7005.3].
LEHMER_LOW = 7005.0628661749115


def scan(f, interval, step):
    """The sign-change brackets scan_and_refine draws from f's own
    values on its scan grid."""
    xs = zerofinder._scan_grid(interval, step)
    return list(zerofinder._brackets(xs, f.sample(xs), interval, step))


class TestScan:
    def test_sin_three_brackets(self):
        brackets = scan(SIN, Interval(1.0, 10.0), 0.1)
        assert len(brackets) == 3
        for (lo, hi), ref in zip(brackets, (math.pi, 2 * math.pi, 3 * math.pi)):
            assert lo < ref < hi

    def test_constant_no_brackets(self):
        f = SampledFunction(lambda x: 1.0, "1")
        assert scan(f, Interval(0.0, 5.0), 0.1) == []

    def test_exact_grid_zero_expanded(self):
        f = SampledFunction(lambda x: x - 2.0, "x-2")
        brackets = scan(f, Interval(0.0, 4.0), 1.0)
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo == pytest.approx(1.9) and hi == pytest.approx(2.1)

    def test_step_domain(self):
        # A step wider than the interval scans its two ends.
        grid = zerofinder._scan_grid(Interval(0.0, 1.0), 2.0)
        assert grid.tolist() == [0.0, 1.0]
        with pytest.raises(DomainError):
            zerofinder._scan_grid(Interval(0.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            zerofinder._scan_grid(Interval(0.0, 1.0), math.nan)

    def test_grid_ends_on_b(self):
        # The last step lands 1e-10 short of b, inside the end tolerance
        # of 1e-12 * b; b replaces it, so a zero in that gap is found.
        iv = Interval(7000.0, 7000.0 + 1e-9)
        assert zerofinder._scan_grid(iv, 3e-10)[-1] == iv.b
        z = 7000.0 + 9.6e-10
        f = SampledFunction(lambda x: x - z, "x-z")
        [r] = scan_and_refine(f, iv, 3e-10, 1e-13)
        assert abs(r.location - z) < 1e-11

    def test_grid_over_max_terms_refused(self):
        seen = []
        f = SampledFunction(lambda x: seen.append(x) or math.sin(x), "sin")
        with pytest.raises(DomainError, match="MAX_TERMS"):
            scan_and_refine(f, Interval(10.0, 20.0), 1e-9, 1e-10)
        # width/step overflows to inf here; it used to raise OverflowError.
        with pytest.raises(DomainError, match="MAX_TERMS"):
            scan_and_refine(f, Interval(10.0, 20.0), 5e-324, 1e-10)
        assert seen == []

    def test_bracket_list_frozen(self):
        # Exact zeros at the first, an interior and the last grid point
        # (the last one appended at b), each next to strict sign changes.
        values = {0.0: 0.0, 0.25: 1.0, 0.5: -1.0, 0.75: 0.0, 1.0: 1.0,
                  1.25: -1.0, 1.5: -2.0, 1.75: 3.0, 2.0: 0.5, 2.1: 0.0}
        f = SampledFunction(lambda x: values[x], "table")
        brackets = scan(f, Interval(0.0, 2.1), 0.25)
        assert brackets == [(0.0, 0.025), (0.25, 0.5), (0.725, 0.775),
                            (1.0, 1.25), (1.5, 1.75), (2.075, 2.1)]
        assert all(type(x) is float for b in brackets for x in b)

    def test_hardy_brackets_up_to_50(self):
        from hardyzeta.zerofinder import hardy_rs_function

        brackets = scan(hardy_rs_function(),
                        Interval(2 * math.pi + 1e-9, 50.0), 0.01)
        assert len(brackets) == 10

    @pytest.mark.parametrize("start", [100.0, 1000.0, 9000.0])
    def test_rs_samples_are_the_kernel_bit_for_bit(self, start):
        # The sampling loop keeps a finite float from the callback as it
        # is, so a scan's values are hardy_z_rs's own.
        grid = start + 0.01 * np.arange(301)
        want = [hardy_z_rs(t) for t in grid.tolist()]
        got = zerofinder.hardy_rs_function().sample(grid)
        assert got.tobytes() == np.array(want).tobytes()


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

    @pytest.mark.parametrize("bracket", [(3.3, 3.0), (3.0, 3.0)],
                             ids=["unordered", "zero-width"])
    def test_bad_bracket_refused_before_any_evaluation(self, bracket):
        seen = []
        f = SampledFunction(lambda x: seen.append(x) or math.sin(x), "sin")
        with pytest.raises(BracketError, match="must be ordered"):
            refine_zero(f, bracket)
        assert seen == []

    def test_derivative_estimate(self):
        r = refine_zero(SIN, (3.0, 3.3), 1e-10)
        assert r.derivative == pytest.approx(math.cos(math.pi), abs=1e-4)

    def test_evaluates_each_point_once(self):
        seen = []
        f = SampledFunction(lambda x: seen.append(x) or math.sin(x), "sin")
        r = refine_zero(f, (3.0, 3.3), 1e-12)
        assert abs(r.location - math.pi) < 1e-12
        assert len(seen) == len(set(seen))

    def test_nan_at_derivative_point_refused(self):
        # NaN only at root +- 1e-6, the central-difference points; it
        # used to come back as derivative=nan, simple=False.
        f = SampledFunction(
            lambda x: (math.nan if abs(abs(x - math.pi) - 1e-6) < 1e-9
                       else math.sin(x)), "sin")
        with pytest.raises(EvaluationError) as err:
            refine_zero(f, (3.0, 3.3), 1e-10)
        assert abs(abs(err.value.point - math.pi) - 1e-6) < 1e-9

    @pytest.mark.parametrize("value", [
        lambda x: None, lambda x: complex(math.sin(x)),
        lambda x: np.complex128(math.sin(x))],
        ids=["none", "complex", "numpy-complex"])
    def test_value_that_is_not_a_real_number_refused(self, value):
        with pytest.raises(EvaluationError) as err:
            refine_zero(SampledFunction(value, "bad"), (3.0, 3.3))
        assert err.value.point == 3.0
        assert isinstance(err.value.__cause__, TypeError)

    @pytest.mark.parametrize("bracket", [(2.0, 3.0), (1.0, 2.0)])
    def test_exact_zero_at_bracket_end(self, bracket):
        r = refine_zero(SampledFunction(lambda x: x - 2.0, "x-2"), bracket)
        assert r.location == 2.0
        assert r.residual == 0.0
        assert r.derivative == pytest.approx(1.0)


BAD_TOLS = [0.0, -1e-10, math.nan, math.inf, -math.inf]


class TestBadTol:
    """A tol that is not a positive finite number is refused before any
    evaluation, at each entry point that takes one."""

    @staticmethod
    def _refusing():
        def refuse(t):
            raise AssertionError(f"evaluated at t={t}")
        return SampledFunction(refuse, "refuse",
                               scan_route=SampledFunction(refuse, "refuse"))

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_refine_zero(self, tol):
        with pytest.raises(DomainError, match="tol"):
            refine_zero(self._refusing(), (3.0, 3.3), tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_scan_and_refine(self, tol):
        with pytest.raises(DomainError, match="tol"):
            scan_and_refine(self._refusing(), Interval(10.0, 20.0), 0.01, tol)


class TestBrent:
    def test_same_signs_refused(self):
        with pytest.raises(BracketError):
            zerofinder._brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_nan_refused(self):
        # _brent takes the values refine_zero has checked: a NaN at a
        # Brent iterate (the first lands near 0.2) names that iterate.
        f = SampledFunction(
            lambda x: 1.0 if x == 1.0 else math.nan if x > 0.0 else x - 0.5,
            "nan-right")
        with pytest.raises(EvaluationError, match="nan") as err:
            refine_zero(f, (-1.0, 1.0), 1e-12)
        assert isinstance(err.value, NumericsError)
        assert 0.0 < err.value.point < 1.0
        assert math.isnan(f.eval(err.value.point))

    def test_discontinuity_converges_to_the_jump(self):
        # No root, only a sign change: Brent still closes the bracket.
        root = zerofinder._brent(lambda x: 1.0 if x > 0.3 else -1.0,
                                 0.0, 1.0, 1e-12)
        assert abs(root - 0.3) < 1e-12

    @pytest.mark.parametrize("interval", [(100.0, 110.0), (9000.0, 9005.0)])
    def test_bit_identical_to_scipy_brentq(self, interval, monkeypatch):
        # Same root bits and the same number of evaluations as scipy's
        # brentq, on every bracket the zero pipeline refines.
        optimize = pytest.importorskip("scipy.optimize")
        accepted = []
        real_refine = zerofinder.refine_zero

        def recording(f, bracket, tol, **kwargs):
            record = real_refine(f, bracket, tol, **kwargs)
            accepted.append((f, bracket, tol))
            return record

        monkeypatch.setattr(zerofinder, "refine_zero", recording)
        records = find_critical_zeros(Interval(*interval))
        assert len(accepted) == len(records) >= 4
        for f, (lo, hi), tol in accepted:
            ours, theirs = [], []
            root = zerofinder._brent(
                lambda x: ours.append(x) or f.eval(x), lo, hi, tol)
            ref = optimize.brentq(lambda x: theirs.append(x) or f.eval(x),
                                  lo, hi, xtol=tol, rtol=1e-15)
            assert root.hex() == float(ref).hex()
            assert ours == theirs


def _jet_of(f, df, label):
    """sin-like test function with the jet (f, df) and a record of the
    points the jet was asked for."""
    seen = []
    return seen, SampledFunction(
        f, label, jet=lambda x: seen.append(x) or (f(x), df(x)))


class TestNewton:
    """refine_zero on a function with a jet: safeguarded Newton inside
    the bracket its callback signs."""

    #: (interval, step, tol) of find_critical_zeros (step 0.01, tol
    #: 1e-10), and of the zero study for hilbert-study task 88's window,
    #: whose zero near 65.1125 lies between its Riemann-Siegel and
    #: Euler-Maclaurin positions (step MAX_SCAN_STEP, tol 1e-12).
    WINDOWS = {
        "100-200": (Interval(100.0, 200.0), 0.01, 1e-10),
        "9000-9100": (Interval(9000.0, 9100.0), 0.01, 1e-10),
        "lehmer-7005": (Interval(7000.0, 7010.0), 0.01, 1e-10),
        "task-88": (Interval(55.11308119788091, 65.11308119788092),
                    zerofinder.MAX_SCAN_STEP, 1e-12),
    }

    @pytest.mark.parametrize("name", WINDOWS)
    def test_agrees_with_brent(self, name):
        iv, step, tol = self.WINDOWS[name]
        f = hardy_em_function()
        newton = scan_and_refine(f, iv, step, tol)
        brent = scan_and_refine(replace(f, jet=None), iv, step, tol)
        assert len(newton) == len(brent) > 0
        for a, b in zip(newton, brent):
            assert a.bracket == b.bracket
            assert abs(a.location - b.location) <= tol + 1e-15 * a.location
            assert a.bracket[0] <= a.location <= a.bracket[1]
            assert a.simple and a.residual < 1e-9
        if name == "task-88":
            assert newton[-1].location > 65.11

    def test_derivative_is_the_jets(self):
        seen, f = _jet_of(math.sin, math.cos, "sin")
        r = refine_zero(f, (3.0, 3.3), 1e-12)
        assert abs(r.location - math.pi) < 1e-12
        # The last jet point, within (tol + 1e-15 pi)/2 of the location.
        assert abs(seen[-1] - r.location) < 0.5e-12 + 1e-15 * math.pi
        assert r.derivative == math.cos(seen[-1])
        assert r.residual == abs(math.sin(seen[-1]))
        assert 2 <= len(seen) <= 4

    def test_misleading_jet_bisects(self):
        # A derivative of the wrong sign sends every Newton step out of
        # the bracket: each point after the secant start is the midpoint
        # of the bracket the points before it leave.
        seen, f = _jet_of(math.sin, lambda x: -math.cos(x), "sin")
        r = refine_zero(f, (3.0, 3.3), 1e-12)
        assert abs(r.location - math.pi) <= 1e-12
        lo, hi = 3.0, 3.3
        for x, following in zip(seen, seen[1:]):
            if math.sin(x) > 0.0:
                lo = x
            else:
                hi = x
            assert following == 0.5 * (lo + hi)
        assert len(seen) > 30

    def test_flat_jet_bisects(self):
        seen, f = _jet_of(math.sin, lambda x: 0.0, "sin")
        r = refine_zero(f, (3.0, 3.3), 1e-12)
        assert abs(r.location - math.pi) <= 1e-12
        assert r.derivative == 0.0 and not r.simple

    @pytest.mark.parametrize("jet", [
        lambda x: (math.sin(x), math.nan),
        lambda x: (complex(math.sin(x)), 1.0),
        lambda x: math.sin(x),
        lambda x: (math.sin(x), math.cos(x), 0.0)],
        ids=["nan-slope", "complex-value", "not-a-pair", "triple"])
    def test_malformed_jet_refused(self, jet):
        f = SampledFunction(math.sin, "sin", jet=jet)
        with pytest.raises(EvaluationError, match="sin jet failed") as err:
            refine_zero(f, (3.0, 3.3), 1e-12)
        # The secant start, the first jet point.
        assert err.value.point == 3.0 - math.sin(3.0) * (3.3 - 3.0) / (
            math.sin(3.3) - math.sin(3.0))

    def test_refusing_jet_raises_at_its_point(self):
        def jet(t):
            if t > 14.1347:
                raise DomainError(f"refused t={t}")
            return zetaeval._hardy_z_jet(t)

        f = replace(hardy_em_function(), jet=jet)
        with pytest.raises(EvaluationError) as err:
            refine_zero(f, (14.13, 14.14), 1e-12)
        assert err.value.point > 14.1347
        assert isinstance(err.value.__cause__, DomainError)
        assert f"refused t={err.value.point!r}" in str(err.value)

    @pytest.mark.parametrize("bracket", [(2.0, 3.0), (1.0, 2.0)])
    def test_exact_zero_at_bracket_end(self, bracket):
        seen, f = _jet_of(lambda x: x - 2.0, lambda x: 1.0, "x-2")
        r = refine_zero(f, bracket)
        assert (r.location, r.residual, r.derivative) == (2.0, 0.0, 1.0)
        assert seen == [2.0]

    @pytest.mark.parametrize("interval,zeros,plain,jets", [
        ((1000.0, 1010.0), 8, 18, 8), ((9000.0, 9005.0), 6, 14, 6)])
    def test_work_per_zero(self, em_work, interval, zeros, plain, jets):
        # Exact, host-independent counts of the scalar Euler-Maclaurin
        # sums find_critical_zeros makes: the signs of the window ends
        # and of both ends of each bracket are plain sums, and Newton,
        # started at the root of the scan's Riemann-Siegel interpolant,
        # takes one jet a zero.  From the secant root it took 19 and 17
        # jets here; Brent with a central difference took 65 and 51
        # plain sums.
        records, (got_plain, got_jets) = em_work(
            lambda: find_critical_zeros(Interval(*interval)))
        assert len(records) == zeros
        assert (got_plain, got_jets) == (plain, jets)
        assert got_plain == 2 + 2 * zeros
        assert got_jets == zeros


def _quintic(x):
    return ((x * x) * (x * x) - 1.0) * x - 1.0


def _polynomial(zeros):
    """The monic polynomial with these zeros, as (value, jet)."""

    def value(x):
        return math.prod(x - z for z in zeros)

    def jet(x):
        return value(x), sum(math.prod(x - w for w in zeros if w != z)
                             for z in zeros)

    return value, jet


class TestScanStart:
    """scan_and_refine hands refine_zero the scan route's six values
    around each grid-cell bracket; they pick Newton's first point and
    nothing else."""

    #: find_critical_zeros' windows: ordinary heights, the Lehmer pair
    #: near 7005, and the top of the validated range.
    WINDOWS = [(1000.0, 1010.0), (7000.0, 7010.0), (9000.0, 9005.0)]

    @staticmethod
    def _recorded(monkeypatch):
        """The (bracket, scan_values) of every refine_zero call."""
        calls = []
        real = zerofinder.refine_zero

        def recording(f, bracket, tol, **kwargs):
            calls.append((bracket, kwargs.get("scan_values")))
            return real(f, bracket, tol, **kwargs)

        monkeypatch.setattr(zerofinder, "refine_zero", recording)
        return calls

    def test_without_scan_values_records_are_unchanged(self):
        # The bits refine_zero gave before scan_values existed, on exact
        # arithmetic (x^5 - x - 1 and its jet) ...
        f = SampledFunction(_quintic, "x^5-x-1", jet=lambda x: (
            _quintic(x), 5.0 * (x * x) * (x * x) - 1.0))
        for bracket, tol, want in [
                ((1.0, 1.5), 1e-12, ("0x1.2ad46efb1f9cfp+0",
                                     "0x1.0911673ae98cep+3",
                                     "0x1.0000000000000p-51")),
                ((0.5, 2.0), 1e-10, ("0x1.2ad46efb1f9cfp+0",
                                     "0x1.0911673afa2f7p+3",
                                     "0x1.1539800000000p-35"))]:
            r = refine_zero(f, bracket, tol)
            assert (r.location.hex(), r.derivative.hex(),
                    r.residual.hex()) == want
            assert refine_zero(f, bracket, tol, scan_values=None) == r
        # ... and, to 12 digits, on Z at the first zero.
        r = refine_zero(hardy_em_function(), (14.13, 14.14))
        assert f"{r.location:.12g}" == "14.1347251417"
        assert f"{r.derivative:.12g}" == "0.793160433357"
        assert f"{r.residual:.12g}" == "2.72680895606e-13"

    def test_starts_at_the_interpolant_root(self):
        # exp(x) - 2 on nodes 0.1 apart: the quintic's root is within
        # h^6 e^x/720 * 14/f' ~ 3e-8 of log 2, the secant root 1e-3 off.
        # Another route offset by a line from f gives the same start.
        lo, hi = 0.6, 0.7
        nodes = [lo + 0.1 * k for k in range(-2, 4)]
        for offset in (lambda x: 0.0, lambda x: 0.3 - 0.5 * x):
            seen, f = _jet_of(lambda x: math.exp(x) - 2.0, math.exp, "e")
            values = [math.exp(x) - 2.0 + offset(x) for x in nodes]
            r = refine_zero(f, (lo, hi), 1e-12, scan_values=values)
            assert abs(seen[0] - math.log(2.0)) < 1e-7
            assert abs(r.location - math.log(2.0)) < 1e-12
        secant = lo - (math.exp(lo) - 2.0) * (hi - lo) / (
            math.exp(hi) - math.exp(lo))
        assert abs(secant - math.log(2.0)) > 1e-4

    def test_interpolant_fallbacks(self):
        start = zerofinder._interpolant_start
        values = [x - 2.0 for x in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5)]
        assert start(values, 1.5, 2.5, -0.5, 0.5, 1e-12) == 2.0
        # An end value of 0, a value that is not finite, and a root
        # that rounds onto an end give None: the secant start.
        assert start(values, 1.5, 2.5, 0.0, 0.5, 1e-12) is None
        assert start(values[:5] + [math.nan], 1.5, 2.5, -0.5, 0.5,
                     1e-12) is None
        assert start(values, 1.5, 2.5, -1e-300, 0.5, 1e-12) is None

    def test_refine_zero_falls_back_to_the_secant(self):
        seen, f = _jet_of(math.sin, math.cos, "sin")
        refine_zero(f, (3.0, 3.3), 1e-12,
                    scan_values=[0.0, 0.0, math.inf, 0.0, 0.0, 0.0])
        assert seen[0] == 3.0 - math.sin(3.0) * (3.3 - 3.0) / (
            math.sin(3.3) - math.sin(3.0))
        with pytest.raises(DomainError, match="6 values"):
            refine_zero(f, (3.0, 3.3), 1e-12, scan_values=[0.0] * 5)

    def test_only_inner_grid_cells_carry_a_stencil(self, monkeypatch):
        # Grid 10, 10.1, ..., 11: cells 0..9.  A stencil needs two grid
        # points left of the cell and two right of it short of b, so
        # cells 2..6 carry one and the edge cells 0 and 9 do not.
        calls = self._recorded(monkeypatch)
        value, jet = _polynomial([10.05, 10.25, 10.65, 10.95])
        f = SampledFunction(value, "p", scan_route=SampledFunction(value),
                            jet=jet)
        iv = Interval(10.0, 11.0)
        records = scan_and_refine(f, iv, 0.1, 1e-12)
        assert len(records) == 4
        xs = zerofinder._scan_grid(iv, 0.1)
        assert [values is None for _, values in calls] == [
            True, False, False, True]
        for (lo, _), values in calls[1:3]:
            i = xs.tolist().index(lo)
            assert values == [value(x) for x in xs[i - 2:i + 4].tolist()]

    def test_exact_zero_and_span_retry_take_the_secant(self, monkeypatch):
        calls = self._recorded(monkeypatch)
        iv = Interval(10.0, 11.0)
        x5 = float(zerofinder._scan_grid(iv, 0.1)[5])
        # The route is exactly 0 at a grid point: a +/- step/10 bracket.
        f = SampledFunction(lambda x: x - x5 - 1e-3, "f",
                            scan_route=SampledFunction(lambda x: x - x5),
                            jet=lambda x: (x - x5 - 1e-3, 1.0))
        [r] = scan_and_refine(f, iv, 0.1, 1e-12)
        assert calls == [((x5 - 0.1 * 0.1, x5 + 0.1 * 0.1), None)]
        # The route's zero is a cell left of f's: the cell, with its
        # stencil, has no sign change of f, and its span takes none.
        calls.clear()
        f = SampledFunction(lambda x: x - 10.65, "f",
                            scan_route=SampledFunction(lambda x: x - 10.55),
                            jet=lambda x: (x - 10.65, 1.0))
        [r] = scan_and_refine(f, iv, 0.1, 1e-12)
        assert abs(r.location - 10.65) < 1e-12
        [(cell, values), (span, retry)] = calls
        assert values is not None and retry is None
        assert span == (10.0, 11.0)

    @pytest.mark.parametrize("f,iv", [
        (SampledFunction(math.sin, "sin", jet=lambda x: (
            math.sin(x), math.cos(x))), Interval(10.0, 20.0)),
        (hardy_em_function(), Interval(5.0, 15.0))],
        ids=["no-route", "below-route-range"])
    def test_scans_on_f_carry_no_stencil(self, monkeypatch, f, iv):
        calls = self._recorded(monkeypatch)
        assert scan_and_refine(f, iv, 0.01, 1e-12)
        assert calls and all(values is None for _, values in calls)

    @pytest.mark.parametrize("interval", WINDOWS)
    @pytest.mark.parametrize("spoil", ["bent", "noise", "none"])
    def test_spoiled_scan_values_only_cost_jets(self, monkeypatch, interval,
                                                spoil):
        # Stencils bent by a parabola, replaced by noise, or dropped for
        # the secant start: the same zeros in the same brackets, each
        # within tol of the scan's own start.
        iv = Interval(*interval)
        want = find_critical_zeros(iv)
        rng = np.random.default_rng(2046)
        stencil = zerofinder._stencil

        def spoiled(xs, route, cell):
            values = stencil(xs, route, cell)
            if values is None or spoil == "none":
                return None
            if spoil == "bent":
                return [v + 0.5 * k * k for k, v in zip(range(-2, 4), values)]
            return rng.normal(0.0, 2.0, 6).tolist()

        monkeypatch.setattr(zerofinder, "_stencil", spoiled)
        got = find_critical_zeros(iv)
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert a.bracket == b.bracket
            assert abs(a.location - b.location) <= 1e-10 + 1e-15 * b.location
            assert a.simple == b.simple


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

    def test_nan_at_span_end_is_not_dropped(self):
        # f is NaN at 11.0, the end of the span that holds the zeros near
        # 9.575 and 12.716; they used to be lost with no error.
        route = SampledFunction(lambda x: -math.sin(x), "route")
        f = SampledFunction(
            lambda x: math.nan if x == 11.0 else -math.sin(x - 0.15),
            "shifted", scan_route=route)
        with pytest.raises(EvaluationError) as err:
            scan_and_refine(f, Interval(7.0, 20.0), 0.1, 1e-10)
        assert err.value.point == 11.0

    @pytest.mark.parametrize("end", [7.0, 20.0], ids=["a", "b"])
    def test_nan_at_window_end_refused(self, end):
        # The window ends are signed on f, not on its scan route.
        route = SampledFunction(math.sin, "sin")
        f = SampledFunction(lambda x: math.nan if x == end else math.sin(x),
                            "sin", scan_route=route)
        with pytest.raises(EvaluationError, match="non-finite") as err:
            scan_and_refine(f, Interval(7.0, 20.0), 0.01, 1e-10)
        assert err.value.point == end

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

    @staticmethod
    def _polynomial_routes(monkeypatch, em_zeros, rs_zeros):
        """Monic polynomials with the given zeros as the Euler-Maclaurin
        and Riemann-Siegel routes of Z; the Euler-Maclaurin jet is the
        same polynomial and its derivative."""
        def poly(roots, t):
            return math.prod(t - r for r in roots)

        def slope(roots, t):
            return sum(poly(roots[:i] + roots[i + 1:], t)
                       for i in range(len(roots)))

        monkeypatch.setattr(zerofinder, "hardy_z_rs",
                            lambda t: poly(rs_zeros, t))
        monkeypatch.setattr(
            zerofinder, "generalized_hardy",
            lambda sigma, t: SimpleNamespace(z=poly(em_zeros, t)))
        monkeypatch.setattr(
            zerofinder, "_hardy_z_jet",
            lambda t: (poly(em_zeros, t), slope(em_zeros, t)))

    def test_span_fallback_beyond_cell(self, monkeypatch):
        # Each Riemann-Siegel zero sits 5.5 to 7.5 cells from its
        # Euler-Maclaurin zero, and RS alone changes sign twice near 10.655.
        em_zeros = (10.2, 10.5, 10.8)
        rs_zeros = (10.2075, 10.4945, 10.6515, 10.6585, 10.8055)
        self._polynomial_routes(monkeypatch, em_zeros, rs_zeros)
        recs = find_critical_zeros(Interval(10.0, 11.0), step=0.001)
        got = [r.location for r in recs]
        assert len(got) == len(em_zeros)
        assert max(abs(x - y) for x, y in zip(got, em_zeros)) < 1e-10
        assert all(x < y for x, y in zip(got[:-1], got[1:]))

    @pytest.mark.parametrize("step", [0.01, 0.001])
    def test_window_ends_signed_on_euler_maclaurin(self, monkeypatch, step):
        # A zero whose two routes' positions straddle an end of [10, 11]
        # is in the window exactly when its Euler-Maclaurin position is.
        inside = (10.003, 10.5, 10.997)
        outside = (9.997, 10.5, 11.003)
        self._polynomial_routes(monkeypatch, inside, outside)
        got = [r.location for r in
               find_critical_zeros(Interval(10.0, 11.0), step=step)]
        assert got == pytest.approx(inside, abs=1e-10)
        self._polynomial_routes(monkeypatch, outside, inside)
        got = [r.location for r in
               find_critical_zeros(Interval(10.0, 11.0), step=step)]
        assert got == pytest.approx([10.5], abs=1e-10)

    @pytest.mark.parametrize("a,b,count", [
        (112.94699784223978, 122.94699784223978, 5),
        (55.11308119788091, 65.11308119788092, 4),
        (20.427167036196167, 30.427167036196167, 3),
        (399.9850007993147, 409.9850007993147, 7),
    ], ids=["112.9", "55.1", "20.4", "399.9"])
    def test_zero_at_window_end_counted(self, a, b, count):
        # Frozen counts from mpmath.nzeros.  Each window has a zero
        # between its Riemann-Siegel and Euler-Maclaurin positions at an
        # end; at 20.4 the span of the zero near 25.011 would also reach
        # the one at 30.425 and hold two zeros, losing both.
        assert len(find_critical_zeros(Interval(a, b))) == count

    #: (Euler-Maclaurin, Riemann-Siegel) positions of the 20 zeros in
    #: [10, 1010] whose two positions lie furthest apart, from
    #: scan_and_refine on each route at step 0.01 and tol 1e-12.
    FAR_APART = [
        (25.010857580145693, 25.01840140059295),
        (30.424876125859516, 30.42764583308214),
        (32.935061587739185, 32.93256176179021),
        (14.134725141734693, 14.137196099328536),
        (56.446247697063384, 56.4486753269516),
        (21.022039638771552, 21.024376714164735),
        (157.5975918175947, 157.59622617841248),
        (48.00515088116716, 48.00638033220331),
        (49.77383247767231, 49.77264064549279),
        (67.07981052949427, 67.0786997148998),
        (111.87465917699122, 111.87369594534682),
        (101.31785100573066, 101.31692416330908),
        (65.11254404808162, 65.11342778422137),
        (111.02953554316916, 111.03033686535633),
        (158.8499881714208, 158.8507655082352),
        (69.54640171117389, 69.54716110683388),
        (156.1129092942374, 156.11361018638743),
        (87.42527461312544, 87.42596116923225),
        (37.586178158825675, 37.586861886239),
        (59.34704400260235, 59.346408849124444),
    ]

    @pytest.mark.parametrize("em,rs", FAR_APART,
                             ids=[f"{em:.3f}" for em, _ in FAR_APART])
    def test_window_split_between_routes(self, em, rs):
        # With an end midway between a zero's two positions, a window
        # reports exactly the zeros a window 2 wider reports inside it.
        mid = 0.5 * (em + rs)
        for a, b in ((mid - 1.0, mid), (mid, mid + 1.0)):
            got = [r.location for r in find_critical_zeros(Interval(a, b))]
            wide = [r.location for r in
                    find_critical_zeros(Interval(a - 1.0, b + 1.0))
                    if a <= r.location <= b]
            assert len(got) == len(wide)
            assert got == pytest.approx(wide, abs=1e-9)
            assert (a <= em <= b) == any(abs(t - em) < 1e-9 for t in got)

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

    def test_lehmer_scan_step_above_ceiling_refused(self, monkeypatch):
        monkeypatch.setattr(zerofinder, "hardy_z_rs", None)
        with pytest.raises(DomainError, match="MAX_SCAN_STEP"):
            lehmer_scan(Interval(7000.0, 7010.0), 0.2, step=0.2)

    @pytest.mark.parametrize("a,b,ref", [
        (14.13, 14.14, FIRST_ZERO), (7005.06, 7005.07, LEHMER_LOW)],
        ids=["first-zero", "lehmer-7005"])
    def test_window_narrower_than_step_keeps_its_zero(self, a, b, ref):
        # Both widths come out just under 0.01 in floating point; such a
        # window is scanned at its two ends, where it used to be refused.
        iv = Interval(a, b)
        assert iv.width < 0.01
        assert zerofinder._scan_grid(iv, 0.01).tolist() == [a, b]
        got = find_critical_zeros(iv)
        assert len(got) == 1
        assert abs(got[0].location - ref) < 1e-10

    @pytest.mark.parametrize("width", [0.005, 1e-9])
    def test_zero_free_window_narrower_than_step(self, width):
        # 1e-9 is under the grid's end tolerance of 1e-12 * b, so b must
        # still be appended to the one-point grid.
        iv = Interval(7000.0, 7000.0 + width)
        assert zerofinder._scan_grid(iv, 0.01).tolist() == [iv.a, iv.b]
        assert find_critical_zeros(iv) == []

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
        # there stops at the kernel's refusal, which names the cutoff,
        # as an EvaluationError at the first point, as sample raises it.
        with pytest.raises(EvaluationError) as err:
            refine_zero(hardy_at_cutoff(200), (7005.0, 7005.1))
        assert err.value.point == 7005.0
        cause = err.value.__cause__
        assert isinstance(cause, DomainError)
        assert re.search("N=200", str(cause))

    def test_residuals_tiny_relative_to_local_scale(self):
        recs = scan_and_refine(hardy_em_function(), Interval(10.0, 60.0),
                               0.01, 1e-12)
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
        # zeta_em takes one point at a time, so it is vectorized to meet
        # the contour contract.
        f = np.vectorize(zeta_em, otypes=[complex])
        assert argument_principle_count(f, (0.6, 0.9, 10.0, 50.0), 256) == 0

    def test_one_grid_call_then_scalar_midpoints(self):
        # Near the left side, so the step past it turns by about pi.
        z0 = complex(0.51, 80.2)
        calls = []

        def f(z):
            calls.append(z)
            return z - z0

        assert argument_principle_count(f, (0.5, 1.0, 80.0, 90.0), 2) == 1
        grid, *midpoints = calls
        assert isinstance(grid, np.ndarray) and grid.shape == (9,)
        assert midpoints
        assert all(type(z) is complex for z in midpoints)

    @pytest.mark.parametrize("box, n", [
        ((0.5, 1.0, 80.0, 90.0), 2),
        ((0.51, 1.0, 80.0, 90.0), 256),
        ((-1.3, 2.7, -413.9, -101.2), 97),
        ((-0.1, 0.3, 1e-3, 7.77), 301),
    ])
    def test_grid_is_the_scalar_loops_bit_for_bit(self, box, n):
        s1, s2, t1, t2 = box
        corners = [complex(s1, t1), complex(s2, t1), complex(s2, t2),
                   complex(s1, t2), complex(s1, t1)]
        expected = [a + (b - a) * (k / n)
                    for a, b in zip(corners[:-1], corners[1:])
                    for k in range(n)] + [corners[0]]
        seen = []

        def f(z):
            if isinstance(z, np.ndarray):
                seen.append(z.tolist())
            # No zero near the box, so the count is 0.
            return z - complex(50.0, 1e4)

        assert argument_principle_count(f, box, n) == 0
        hexes = [[(z.real.hex(), z.imag.hex()) for z in zs]
                 for zs in (seen[0], expected)]
        assert hexes[0] == hexes[1]

    def test_grid_result_of_another_shape_refused(self):
        with pytest.raises(TypeError, match="9 contour points"):
            argument_principle_count(lambda z: 1.0 + 0.0j,
                                     (0.5, 1.0, 80.0, 90.0), 2)

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

    @pytest.mark.parametrize("box,side,why", [
        ((0.5, math.inf, 80.0, 90.0), "sigma", "finite"),
        ((math.nan, 1.0, 80.0, 90.0), "sigma", "finite"),
        ((0.5, 1.0, -math.inf, 90.0), "t", "finite"),
        ((0.5, 1.0, 80.0, math.nan), "t", "finite"),
        ((0.9, 0.6, 80.0, 90.0), "sigma", "a < b"),
        ((0.5, 1.0, 90.0, 90.0), "t", "a < b"),
        ((0.5, 0.9, 90.0, 80.0), "t", "a < b"),
    ], ids=["sigma-inf", "sigma-nan", "t-minus-inf", "t-nan", "sigma-reversed",
            "t-empty", "t-reversed"])
    def test_box_sides_are_intervals(self, box, side, why):
        # Each side is refused as Interval refuses it, and named, before
        # f is called.
        seen = []

        def f(z):
            seen.append(z)
            return z - complex(0.7, 85.0)

        with pytest.raises(DomainError, match=f"interval .*{re.escape(why)}"
                           ) as err:
            argument_principle_count(f, box, 16)
        assert f"the {side} side of box" in str(err.value)
        assert seen == []

    @pytest.mark.parametrize("box", [(0.5, 1.0, 80.0),
                                     (0.5, 1.0, 80.0, 90.0, 100.0)],
                             ids=["3", "5"])
    def test_box_of_other_length_refused(self, box):
        seen = []

        def f(z):
            seen.append(z)
            return z - complex(0.7, 85.0)

        with pytest.raises(DomainError, match=re.escape(repr(box))):
            argument_principle_count(f, box, 16)
        assert seen == []

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), math.inf, None,
                                     "x"], ids=["nan", "inf", "none", "str"])
    def test_grid_value_refused_before_subdivision(self, bad):
        # One grid value that is not a finite complex number is refused
        # at its point after the one grid call; a NaN used to cost 48
        # subdivision calls and end in a misleading ContourError.
        calls = []

        def f(z):
            calls.append(z)
            values = (z - complex(0.75, 85.0)).astype(object)
            values[5] = bad
            return values

        with pytest.raises(EvaluationError) as err:
            argument_principle_count(f, (0.5, 1.0, 80.0, 90.0), 8)
        assert len(calls) == 1
        assert err.value.point == calls[0][5]

    @pytest.mark.parametrize("bad", [complex(math.nan, 1.0), None],
                             ids=["nan", "none"])
    def test_midpoint_value_refused(self, bad):
        calls = []

        def f(z):
            calls.append(z)
            return z - complex(0.51, 80.2) if isinstance(z, np.ndarray) else bad

        with pytest.raises(EvaluationError) as err:
            argument_principle_count(f, (0.5, 1.0, 80.0, 90.0), 2)
        assert len(calls) == 2
        assert err.value.point == calls[1]

    def test_n_per_side_above_max_terms_refused(self):
        seen = []

        def f(z):
            seen.append(z)
            return z - complex(0.7, 85.0)

        with pytest.raises(DomainError, match="n_per_side"):
            argument_principle_count(f, (0.5, 1.0, 80.0, 90.0), 250001)
        assert seen == []
