import math
import time
import tracemalloc

import numpy as np
import pytest

from hardyzeta import hilbert, zetaeval
from hardyzeta.errors import (DependenceError, DomainError, EvaluationError,
                              NumericsError)
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
from hardyzeta.specialfn import TWO_PI
from hardyzeta.zetaeval import GeneralizedHardyValue, generalized_hardy

ONE = SampledFunction(lambda x: 1.0, "1")
X = SampledFunction(lambda x: x, "x")
X2 = SampledFunction(lambda x: x * x, "x^2")
SIN = SampledFunction(math.sin, "sin")
COS = SampledFunction(math.cos, "cos")
ZERO = SampledFunction(lambda x: 0.0, "0")
NAN = SampledFunction(lambda x: math.nan, "nan")


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("batched", [False, True])
    def test_non_finite_result_raises(self, value, batched, monkeypatch):
        # Whether or not a family call took the other points: batched,
        # Z(1/2, .) whose callback returns value where it would raise,
        # at the NaN alone.
        calls, grids = [], []
        if batched:
            monkeypatch.setattr(hilbert, "_hardy_z_family", lambda s, ts: (
                grids.append(ts.tolist()) or zetaeval._hardy_z_family(s, ts)))
            monkeypatch.setattr(hilbert, "generalized_hardy", lambda s, t: (
                calls.append(t) or GeneralizedHardyValue(z=value, y=0.0)))
            f, xs = hardy_function(0.5), [20.0, math.nan, 21.0]
        else:
            f = SampledFunction(
                lambda x: calls.append(x) or (value if x > 1.0 else x), "odd")
            xs = [0.5, 1.5, 2.5]
        with pytest.raises(EvaluationError, match="non-finite") as err:
            f.sample(xs)
        assert repr(err.value.point) == repr(xs[1])
        assert repr(calls) == repr(xs[1:2] if batched else xs[:2])
        assert repr(grids) == repr([xs] if batched else [])

    @pytest.mark.parametrize("xs,shape", [
        (0.5, "()"), (np.array(0.5), "()"),
        ([[20.0, 21.0], [22.0, 23.0]], r"\(2, 2\)"),
        (np.ones((2, 0)), r"\(2, 0\)"),
    ], ids=["float", "0-d", "2-d", "2-d-empty"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_only_one_dimensional_points(self, xs, shape, batched,
                                         monkeypatch):
        # Refused before the callback or a family call sees a point.
        calls = []
        if batched:
            monkeypatch.setattr(hilbert, "_hardy_z_family", lambda s, ts: (
                calls.append(ts) or zetaeval._hardy_z_family(s, ts)))
            monkeypatch.setattr(hilbert, "generalized_hardy", lambda s, t: (
                calls.append(t) or generalized_hardy(s, t)))
            f = hardy_function(0.5)
        else:
            f = SampledFunction(lambda t: calls.append(t) or t, "id")
        with pytest.raises(DomainError, match=f"shape {shape}"):
            f.sample(xs)
        assert calls == []


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _heads(sigma, ts) -> list[int]:
    """Zeta head length at each point of Z(sigma, .) on ts."""
    return [zetaeval._em_pair(complex(sigma, t))[0] - 1 for t in ts]


def _head_exps(n: int) -> int:
    """Complex exps of a zeta head of n terms: one a term, or, factored,
    one for each c <= n coprime to 30 and each 5-smooth m <= n (those m
    divide 30^20, as n < 2^20)."""
    if n < zetaeval._SMOOTH_MIN_TERMS:
        return n
    coprime = sum(math.gcd(j, 30) == 1 for j in range(1, n + 1))
    smooth = sum(30**20 % j == 0 for j in range(1, n + 1))
    return coprime + smooth


class TestArraySampling:
    """hardy_function samples a grid in one batched Euler-Maclaurin call,
    bit for bit its callback, and leaves a grid with a point the callback
    refuses to the callback."""

    def _check_batched(self, sigma, ts):
        # The batch takes the grid, whatever its heights or head lengths.
        scalar = [generalized_hardy(sigma, t).z for t in ts.tolist()]
        assert _bits(zetaeval._hardy_z_family([sigma], ts)[0]) == _bits(scalar)
        assert _bits(hardy_function(sigma).sample(ts)) == _bits(scalar)

    # Grids of 10 points in a window of width 40, the first on sigma =
    # 1/2; above t = 2690 every head on sigma = 1/2 is factored.
    @pytest.mark.parametrize("lo,hi", [
        (-TWO_PI, TWO_PI), (TWO_PI, 2690.0), (2690.0, 5000.0),
        (5000.0, 1e4)],
        ids=["below-2pi", "2pi-2690", "above-2690", "above-5000"])
    def test_batched_equals_scalar_bit_for_bit(self, lo, hi):
        rng = np.random.default_rng(28)
        for sigma in [0.5] + rng.uniform(-2.0, 3.0, 11).tolist():
            a = float(rng.uniform(lo, max(lo, hi - 40.0)))
            self._check_batched(
                sigma, np.sort(rng.uniform(a, min(hi, a + 40.0), 10)))

    @pytest.mark.parametrize("threshold", [zetaeval._SMOOTH_MIN_TERMS, 800])
    def test_heads_straddling_a_threshold(self, threshold, head_exps):
        # Seeded sigma in [-2, 3] and 64 points around the height where
        # the head reaches the threshold, found by bisection: one block
        # with heads of at least 5 lengths, on both sides of it.  Each
        # node's phase row takes the exps of its own head, none padded.
        rng = np.random.default_rng(29)
        phases, weights = [], []
        for sigma in [0.5] + rng.uniform(-2.0, 3.0, 5).tolist():
            lo, hi = 10.0, 1e4
            while hi - lo > 1e-3:
                mid = 0.5 * (lo + hi)
                if max(_heads(sigma, [mid])) < threshold:
                    lo = mid
                else:
                    hi = mid
            ts = np.sort(rng.uniform(lo - 15.0, lo + 15.0, 64))
            heads = _heads(sigma, ts)
            assert len(set(heads)) >= 5
            assert min(heads) < threshold <= max(heads)
            _, exps = head_exps(lambda: zetaeval._hardy_z_family([sigma], ts))
            phases.append(exps[0] == sum(_head_exps(n) for n in heads))
            weights.append(exps[1])
            self._check_batched(sigma, ts)
        assert all(phases)
        # One weight row per call, as wide as its widest head of each
        # kind: at 200, the 199 terms of the longest plain head plus the
        # c and the m of the longest factored one.
        assert weights == {zetaeval._SMOOTH_MIN_TERMS: [300] * 6,
                           800: [295] * 6}[threshold]

    def test_rows_beyond_one_head_block(self):
        # 300 points sharing nearly every head length: one length's
        # factored rows (c coprime to 30) hold several _HEAD_BLOCKs.
        ts = np.linspace(9000.0, 9000.5, 300)
        heads = _heads(0.5, ts)
        longest = max(set(heads), key=heads.count)
        coprime = sum(math.gcd(n, 30) == 1 for n in range(1, longest + 1))
        assert heads.count(longest) * coprime > 2 * zetaeval._HEAD_BLOCK
        self._check_batched(0.5, ts)

    def test_gram_schmidt_outputs_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(2718)
        iv = Interval(100.0, 110.0)
        rule = gauss_legendre_rule(oscillation_order(iv), iv)
        sigmas = rng.uniform(-2.0, 3.0, 3).tolist()
        fam = [hardy_function(s) for s in sigmas] + [COS]
        outs = gram_schmidt(fam, rule)
        ts = np.concatenate((rule.nodes, rng.uniform(iv.a, iv.b, 40)))
        seen = []
        monkeypatch.setattr(hilbert, "generalized_hardy", lambda s, t: (
            seen.append(t) or generalized_hardy(s, t)))
        for k, g in enumerate(outs):
            scalar = [g.eval(t) for t in ts.tolist()]
            seen.clear()
            assert _bits(g.sample(ts)) == _bits(scalar)
            # The cosine is a plain callback, so the last combination
            # takes every point through its callback, and the others none.
            assert bool(seen) == (k == 3)

    def test_combination_without_array_entry_samples_no_grid(
            self, monkeypatch):
        # A Gram-Schmidt output that mixes Z(sigma, .) with a plain
        # callback samples through its callback alone, with no family
        # call.
        iv = Interval(100.0, 110.0)
        rule = gauss_legendre_rule(oscillation_order(iv), iv)
        fam = [hardy_function(s) for s in (0.3, 0.5, 0.7)] + [COS]
        last = gram_schmidt(fam, rule)[3]
        grids = []
        monkeypatch.setattr(hilbert, "_hardy_z_family", lambda sigmas, ts: (
            grids.append(sigmas) or zetaeval._hardy_z_family(sigmas, ts)))
        scalar = [last.eval(t) for t in rule.nodes.tolist()]
        assert _bits(last.sample(rule.nodes)) == _bits(scalar)
        assert grids == []

    def test_combination_adds_in_order(self, monkeypatch):
        # 1e16 + 1.0 rounds to 1e16, so left-to-right addition gives 0.0
        # where a compensated sum (Python 3.12's sum() of floats) gives
        # 1.0.  The callback adds as values does, bit for bit.
        sigmas = (0.3, 0.5, 0.7)
        combo = hilbert._Combination(np.array([1e16, 1.0, -1e16]),
                                     [hardy_function(s) for s in sigmas])
        monkeypatch.setattr(hilbert, "generalized_hardy",
                            lambda s, t: GeneralizedHardyValue(1.0, 0.0))
        rows = {float(s).hex(): np.ones(1) for s in sigmas}
        assert (_bits([combo(20.0)]) == _bits(combo.values(rows))
                == _bits([0.0]))

    # Above t = 2690 the heads are factored; the last grid's second point
    # has the cutoff N = MAX_TERMS + 1, which sums MAX_TERMS head terms.
    @pytest.mark.parametrize("sigma,ts", [
        (0.5, [20.0, 21.0, math.nan, 22.0, math.nan]),
        (1.0, [-1.0, -0.5, 0.0, 0.5]),
        (-20.0, [1.0, 2.0, 3.0]),
        (0.5, [3000.0, 3001.0, math.nan, 9000.0]),
        (-4.0, [3000.0, 4000.0, 9000.0, 3500.0]),
        (-20.0, [2990.0, 3000.0]),
        (-1.7, [3000.0, 0.5 * math.pi * (zetaeval.MAX_TERMS + 0.5), 9000.0]),
    ], ids=["nan", "pole", "sigma-minus-20", "nan-above-2690",
            "bound-above-2690", "premise-above-2690", "cutoff-above-max"])
    def test_refusals_raise_the_callbacks_error(self, sigma, ts):
        f = hardy_function(sigma)
        scalar = SampledFunction(lambda t: generalized_hardy(sigma, t).z,
                                 f.label)
        with pytest.raises(EvaluationError) as want:
            scalar.sample(ts)
        with pytest.raises(EvaluationError) as got:
            f.sample(ts)
        assert str(got.value) == str(want.value)
        assert repr(got.value.point) == repr(want.value.point)
        assert type(got.value.__cause__) is type(want.value.__cause__)

    def test_only_refused_points_reach_the_callback(self, monkeypatch):
        # The batch takes the accepted points, factored heads included,
        # and leaves the callback the NaN alone.
        seen = []
        monkeypatch.setattr(hilbert, "generalized_hardy", lambda sigma, t: (
            seen.append(t) or generalized_hardy(sigma, t)))
        with pytest.raises(EvaluationError) as err:
            hardy_function(0.5).sample([3000.0, 3001.0, math.nan, 9000.0])
        assert math.isnan(err.value.point)
        assert len(seen) == 1 and math.isnan(seen[0])

    def test_memory_is_one_point_block(self, monkeypatch):
        # Under 1 KB a point, as for the Davenport-Heilbronn grids: two
        # blocks of points, both taken by the batch, which never calls
        # the scalar kernel; at t = 9000 every head is factored.
        n = 2 * zetaeval._POINT_BLOCK
        f = hardy_function(0.6)
        monkeypatch.setattr(hilbert, "generalized_hardy", None)
        for lo in (10.0, 9000.0):
            ts = np.linspace(lo, lo + 10.0, n)
            tracemalloc.start()
            try:
                f.sample(ts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1024 * n, lo

    def test_memory_of_one_block_on_the_largest_order(self, monkeypatch):
        # One block of Z(1/2, .) at t = 9000, where every point takes the
        # EM_ORDER_MAX pair and its 20 Pochhammer factors, pinned: it
        # peaked at 6,449,113 B (tracemalloc, numpy 2.4.6), allowed 10%
        # more.  The heads of a one-offset call are built chunk by chunk
        # as they are summed; kept for the whole call they took 7.3 MB.
        n = zetaeval._POINT_BLOCK
        ts = np.linspace(9000.0, 9010.0, n)
        assert all(zetaeval._em_pair(complex(0.5, t))[1]
                   == zetaeval.EM_ORDER_MAX for t in (ts[0], ts[-1]))
        f = hardy_function(0.5)
        monkeypatch.setattr(hilbert, "generalized_hardy", None)
        tracemalloc.start()
        try:
            f.sample(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 6449113


def _z_or_nan(sigma: float, t: float) -> float:
    try:
        return generalized_hardy(sigma, t).z
    except NumericsError:
        return math.nan


class TestFamilySampling:
    """gram_matrix, gram_schmidt and the Gram-Schmidt outputs sample their
    Z(sigma, .) members in one batched call: each row bit for bit the
    member's point-by-point values, from one core pass and one theta
    call per node, and the refusals of sampling one member after
    another."""

    def test_rows_equal_scalar_bit_for_bit(self):
        # Seeded sigmas with the pole sigma = 1 and sigma < 0, heads on
        # both sides of _SMOOTH_MIN_TERMS up to t = 1e4, and refused
        # points mixed in: NaN, the pole at t = 0, sigma = -20.
        rng = np.random.default_rng(33)
        sigmas = [1.0, 0.5, -1.5, -20.0] + rng.uniform(-2.0, 3.0, 3).tolist()
        ts = np.concatenate([rng.uniform(lo, hi, 10) for lo, hi in
                             [(250.0, 380.0), (380.0, 3000.0), (3000.0, 1e4)]]
                            + [[math.nan, 0.0, -300.0]])
        ts = rng.permutation(ts)
        heads = _heads(0.5, ts[np.isfinite(ts)])
        assert min(heads) < zetaeval._SMOOTH_MIN_TERMS <= max(heads)
        family = zetaeval._hardy_z_family(sigmas, ts)
        assert family.shape == (len(sigmas), ts.size)
        refused = 0
        for sigma, row in zip(sigmas, family):
            scalar = [_z_or_nan(sigma, t) for t in ts.tolist()]
            refused += np.isnan(scalar).sum()
            assert _bits(row) == _bits(scalar)
            assert (_bits(zetaeval._hardy_z_family([sigma], ts)[0])
                    == _bits(scalar))
        assert len(sigmas) < refused < family.size

    @pytest.mark.parametrize("call", ["gram_matrix", "gram_schmidt",
                                      "ortho_sample"])
    def test_one_core_pass_and_one_theta_per_node(self, monkeypatch, call,
                                                  core_passes):
        iv = Interval(300.0, 310.0)
        rule = gauss_legendre_rule(oscillation_order(iv), iv)
        fam = [hardy_function(s) for s in (0.5, 0.3, -0.4)]
        last = gram_schmidt(fam, rule)[2]
        thetas = []
        theta = zetaeval.theta
        monkeypatch.setattr(zetaeval, "theta", lambda t: (
            thetas.append(t) or theta(t)))
        _, passes = core_passes({
            "gram_matrix": lambda: gram_matrix(fam, rule),
            "gram_schmidt": lambda: gram_schmidt(fam, rule),
            "ortho_sample": lambda: last.sample(rule.nodes),
        }[call])
        assert passes == [len(fam) * rule.nodes.size]
        assert thetas == rule.nodes.tolist()

    @pytest.mark.parametrize("call", [
        "gram_matrix(outs)", "gram_schmidt(outs)", "outs_and_family",
        "gram_matrix(nested)", "sample(nested)", "inner_product"])
    def test_gram_schmidt_outputs_share_one_core_pass(self, call,
                                                      core_passes):
        # Any mix of Z(sigma, .) and their Gram-Schmidt outputs, nested
        # ones too, is one pass of (distinct sigma) x nodes points.
        iv = Interval(300.0, 310.0)
        rule = gauss_legendre_rule(oscillation_order(iv), iv)
        fam = [hardy_function(s) for s in (0.5, 0.3, -0.4)]
        outs = gram_schmidt(fam, rule)
        nested = gram_schmidt(outs, rule)
        _, passes = core_passes({
            "gram_matrix(outs)": lambda: gram_matrix(outs, rule),
            "gram_schmidt(outs)": lambda: gram_schmidt(outs, rule),
            "outs_and_family": lambda: gram_matrix(
                outs[1:] + fam[::-1] + [hardy_function(0.3)], rule),
            "gram_matrix(nested)": lambda: gram_matrix(nested, rule),
            "sample(nested)": lambda: nested[2].sample(rule.nodes),
            "inner_product": lambda: inner_product(nested[1], fam[2], rule),
        }[call])
        assert passes == [len(fam) * rule.nodes.size]

    def test_report_entry_and_ortho_one_pass_each(self, core_passes,
                                                  tmp_path):
        # gs-preserves-first: Gram-Schmidt (3 sigma), the first output
        # and the first input (1 each) and the outputs' Gram matrix (3),
        # 2048 points on 256 nodes.  ortho: Gram-Schmidt, then its
        # outputs in one pass.
        from hardyzeta import report
        from hardyzeta.cli import main

        entry, passes = core_passes(report._entry_gs_first)
        assert entry.status == "Pass"
        assert passes == [768, 256, 256, 768] and sum(passes) == 2048
        code, passes = core_passes(lambda: main([
            "ortho", "--sigmas", "0.5,0.3,0.4", "--interval", "10:50",
            "--out", str(tmp_path / "o")]))
        assert code == 0
        assert passes == [3 * 256, 3 * 256]

    @pytest.mark.parametrize("sigmas", [
        [0.5, 0.3, 0.5], [0.0, -0.0, 0.0], [-0.0, 2.5, 0.0],
        [0.5, math.nan], [math.nan, 0.5], [0.5, -math.nan, math.nan]],
        ids=["repeated", "zero-signs", "zero-signs-apart", "nan-last",
             "nan-first", "two-nans"])
    def test_shared_rows_equal_member_by_member(self, sigmas):
        # One family call over the distinct sigma by their bits: each
        # member in an array of its own, bit for bit its callback's
        # values and member-by-member sampling, or the error both raise.
        ts = np.array([20.0, 300.0, 3000.0, -15.0])
        fs = [hardy_function(s) for s in sigmas]
        callbacks = [SampledFunction(lambda t, f=f: f.eval(t), f.label)
                     for f in fs]

        def outcome(sample):
            try:
                return [_bits(v) for v in sample()]
            except EvaluationError as exc:
                return (str(exc), repr(exc.point), type(exc.__cause__))

        want = outcome(lambda: [f.sample(ts) for f in callbacks])
        assert outcome(lambda: [f.sample(ts) for f in fs]) == want
        assert outcome(lambda: hilbert._sample_all(fs, ts)) == want
        assert isinstance(want, list) == (not np.isnan(sigmas).any())
        if isinstance(want, list):
            got = hilbert._sample_all(fs, ts)
            assert not any(np.shares_memory(a, b)
                           for i, a in enumerate(got) for b in got[:i])

    def test_head_work_is_the_members_sum(self, head_exps):
        # Heads of both sides of _SMOOTH_MIN_TERMS: the family takes the
        # weights the members take one by one, one row per sigma, though
        # it goes in several chunks and each member in one.  Its phases
        # are one row a node for the longest plain head there and one for
        # the longest factored head.
        rng = np.random.default_rng(34)
        sigmas = [0.5] + rng.uniform(-2.0, 3.0, 3).tolist()
        ts = np.sort(rng.uniform(630.0, 680.0, 40))
        family, exps = head_exps(lambda: zetaeval._hardy_z_family(sigmas, ts))
        assert np.isfinite(family).all()
        members = [head_exps(lambda: zetaeval._hardy_z_family([s], ts))[1]
                   for s in sigmas]
        threshold = zetaeval._SMOOTH_MIN_TERMS
        phases = 0
        for heads in zip(*(_heads(s, ts) for s in sigmas)):
            assert min(heads) < threshold <= max(heads)
            phases += max(n for n in heads if n < threshold) + _head_exps(
                max(heads))
        assert members == [(5261, 300), (5151, 132), (6397, 165),
                           (4501, 115)]
        assert exps == (phases, 712) and phases == 12065

    @pytest.mark.parametrize("lo,k", [(20.0, 2), (290.0, 3), (290.0, 12),
                                      (3000.0, 3)])
    def test_family_takes_one_phase_row_per_node(self, lo, k, head_exps):
        # K members on T shared nodes take one phase row a node, as long
        # as the longest of its heads: sigma moves Backlund's cutoff at
        # every height, so those are the phase exps of the member with
        # the longest heads, and no two members take as many.
        rng = np.random.default_rng(41)
        sigmas = [0.5] + rng.uniform(-2.0, 3.0, k - 1).tolist()
        ts = np.sort(rng.uniform(lo, lo + 40.0, 30))
        _, (phases, _) = head_exps(
            lambda: zetaeval._hardy_z_family(sigmas, ts))
        members = [head_exps(lambda: zetaeval._hardy_z_family([s], ts))[1][0]
                   for s in sigmas]
        assert phases == max(members) == sum(
            _head_exps(max(n)) for n in zip(*(_heads(s, ts) for s in sigmas)))
        assert len(set(members)) == k

    @pytest.mark.parametrize("kernel", [gram_matrix, gram_schmidt])
    @pytest.mark.parametrize("members,ts", [
        (["bad", 0.5, 1.0], [0.0, 20.0, math.nan]),
        (["plain", 0.5, 1.0], [0.0, 20.0, 21.0]),
        ([0.3, "plain", -20.0], [1.0, 2.0]),
        ([0.5, "bad", 0.7], [math.nan, 20.0]),
        ([0.5, 0.7], [3000.0, math.nan, 9000.0]),
    ], ids=["callback-first", "pole", "sigma-minus-20", "nan-first",
            "nan-above-2690"])
    def test_refusals_raise_as_member_by_member(self, kernel, members, ts):
        # A plain callback before the Z members raises first; otherwise
        # the first member with a refused point does, at that point.
        def family(seen):
            def plain(name):
                def f(t):
                    seen.append(t)
                    if name == "bad" and t == 20.0:
                        raise ZeroDivisionError("bad point")
                    return math.cos(t)
                return SampledFunction(f, name)
            return [hardy_function(m) if isinstance(m, float) else plain(m)
                    for m in members]

        ts = np.array(ts)
        rule = hilbert.QuadratureRule(nodes=ts, weights=np.ones(ts.size))
        want_seen, got_seen = [], []
        with pytest.raises(EvaluationError) as want:
            [f.sample(ts) for f in family(want_seen)]
        with pytest.raises(EvaluationError) as got:
            kernel(family(got_seen), rule)
        assert str(got.value) == str(want.value)
        assert repr(got.value.point) == repr(want.value.point)
        assert type(got.value.__cause__) is type(want.value.__cause__)
        assert got_seen == want_seen

    def test_rule_nodes_of_any_sequence(self):
        # A rule built by hand with list nodes samples as with an array.
        nodes, weights = [20.0, 21.5, 23.0], np.ones(3)
        fam = [hardy_function(0.5), COS]
        listed = hilbert.QuadratureRule(nodes=nodes, weights=weights)
        arrayed = hilbert.QuadratureRule(nodes=np.array(nodes),
                                         weights=weights)
        assert (_bits(gram_matrix(fam, listed).entries)
                == _bits(gram_matrix(fam, arrayed).entries))
        assert inner_product(*fam, listed) == inner_product(*fam, arrayed)
        assert norm(fam[0], listed) == norm(fam[0], arrayed)
        assert (gram_schmidt(fam, listed)[1].eval(22.0)
                == gram_schmidt(fam, arrayed)[1].eval(22.0))

    def test_memory_is_one_point_block(self, monkeypatch):
        # Three members on 2^14 nodes, three blocks of points in one
        # pass, all taken by the batch: under 1 KB a point, the bound of
        # one member's sample; at t = 9000 every head is factored.
        n = zetaeval._POINT_BLOCK
        fs = [hardy_function(s) for s in (0.5, 0.3, 0.7)]
        monkeypatch.setattr(hilbert, "generalized_hardy", None)
        ts = np.linspace(9000.0, 9010.0, n)
        rule = hilbert.QuadratureRule(nodes=ts, weights=np.full(n, 1.0 / n))
        tracemalloc.start()
        try:
            gram_matrix(fs, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1024 * len(fs) * n


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

    @pytest.mark.parametrize("order", [32, 96, 512])
    def test_unit_rule_exact_and_symmetric(self, order):
        # sum_i w_i P_k(x_i) is 0 for 1 <= k <= 2n - 1; P_k by its
        # recurrence.  scipy's roots_legendre gave 7.8e-15, 4.3e-15 and
        # 7.4e-14 at these orders.
        xs, ws = hilbert._unit_rule(order)
        assert np.all(xs == -xs[::-1]) and np.all(ws == ws[::-1])
        assert np.all(np.diff(xs) > 0.0) and np.all(ws > 0.0)
        p0, p1 = np.ones_like(xs), xs.copy()
        worst = abs(float(np.sum(ws * p1)))
        for k in range(2, 2 * order):
            p0, p1 = p1, ((2 * k - 1) * xs * p1 - (k - 1) * p0) / k
            worst = max(worst, abs(float(np.sum(ws * p1))))
        assert worst <= 2e-15

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 33])
    def test_odd_order_middle_node_is_zero(self, order):
        xs, ws = hilbert._unit_rule(order)
        assert len(xs) == order
        assert abs(float(np.sum(ws)) - 2.0) < 1e-15
        if order % 2:
            assert xs[order // 2] == 0.0

    def test_largest_order_builds_no_slower_than_scipy(self):
        # Best of three alternated builds on each side, so one scheduling
        # delay cannot decide it; scipy took ~5x our time when measured.
        special = pytest.importorskip("scipy.special")
        builds = (hilbert._unit_rule.__wrapped__, special.roots_legendre)
        best = [math.inf, math.inf]
        for _ in range(3):
            for i, build in enumerate(builds):
                start = time.perf_counter()
                build(hilbert.MAX_QUAD_ORDER)
                best[i] = min(best[i], time.perf_counter() - start)
        ours, theirs = best
        assert ours <= theirs


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
        assert abs(np.linalg.det(g.entries)) < 1e-10 * scale

    def test_exactly_symmetric(self):
        rule = gauss_legendre_rule(128, Interval(10.0, 20.0))
        fam = [hardy_function(s) for s in (0.3, 0.5, 0.8)]
        g = gram_matrix(fam, rule).entries
        assert np.array_equal(g, g.T)

    def test_psd_up_to_roundoff(self):
        rule = gauss_legendre_rule(128, Interval(10.0, 30.0))
        fam = [hardy_function(s) for s in (0.3, 0.4, 0.5, 0.6)]
        g = gram_matrix(fam, rule)
        assert (np.linalg.eigvalsh(g.entries)[0]
                >= -1e-10 * float(np.trace(g.entries)))

    def test_empty_rejected(self):
        rule = gauss_legendre_rule(8, Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            gram_matrix([], rule)

    @pytest.mark.parametrize("diagonal", [0.0, math.nan, math.inf],
                             ids=["zero", "nan", "inf"])
    def test_correlation_needs_positive_finite_diagonal(self, diagonal):
        # NaN used to come back as [[nan]], and inf raised numpy's
        # RuntimeWarning from inf / inf.
        gram = hilbert.GramMatrix(np.array([[1.0, 0.5], [0.5, diagonal]]))
        with pytest.raises(DomainError, match="positive finite diagonal"):
            correlation_matrix(gram)


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

    def test_no_functions_refused(self):
        rule = gauss_legendre_rule(32, Interval(0.0, 1.0))
        with pytest.raises(DomainError, match="at least one function"):
            gram_schmidt([], rule)

    def test_dependence_detected_with_index(self):
        rule = gauss_legendre_rule(32, Interval(0.0, 1.0))
        f2 = SampledFunction(lambda x: 2.0 * x, "2x")
        with pytest.raises(DependenceError) as err:
            gram_schmidt([X, f2], rule)
        assert err.value.index == 1

    @pytest.mark.parametrize("fs,index", [
        ([ZERO, X], 0), ([X, ZERO], 1), ([ZERO], 0), ([X, NAN], 1)],
        ids=["zero-first", "zero-second", "zero-alone", "nan-second"])
    def test_zero_or_nan_input_raises_at_its_index(self, fs, index):
        rule = gauss_legendre_rule(32, Interval(0.0, 1.0))
        if fs[index] is NAN:
            # sample refuses the NaN value at its first point, before
            # any residual is formed.
            with pytest.raises(EvaluationError,
                               match="^nan failed at t=.*non-finite") as err:
                gram_schmidt(fs, rule)
            assert err.value.point == rule.nodes[0]
        else:
            with pytest.raises(DependenceError) as err:
                gram_schmidt(fs, rule)
            assert err.value.index == index


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
