"""Randomized property suites under a fixed-seed harness.

Case counts per suite are chosen so the whole harness runs well over a
thousand cases: 250 + 200 + 150 + 120 + 120 + 120 + 100 + 60 = 1120.  The
three float-range suites each add a grid of 20 x 20 (sigma, t) points.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

from hardyzeta.hilbert import (
    Interval,
    SampledFunction,
    gauss_legendre_rule,
    gram_matrix,
    gram_schmidt,
    hardy_function,
    inner_product,
    norm,
)
from hardyzeta.errors import EvaluationError, NumericsError
from hardyzeta.polyzero import PolynomialRealCoeffs, poly_real_zeros, project
from hardyzeta.specialfn import theta, theta_asymptotic
from hardyzeta.zetaeval import (
    MAX_TERMS,
    GeneralizedHardyValue,
    _rs_psi,
    davenport_heilbronn,
    generalized_hardy,
    hardy_z_rs,
    hurwitz_zeta,
    zeta_em,
)

SEED = 20260808


def _random_interval(rng, min_width=0.3, max_width=4.0):
    a = rng.uniform(-5.0, 5.0)
    return Interval(a, a + rng.uniform(min_width, max_width))


def _random_smooth(rng):
    """Low-degree polynomial plus a bounded sine; cheap and smooth."""
    c = rng.uniform(-1.0, 1.0, size=4)
    amp = rng.uniform(-1.0, 1.0)
    freq = rng.uniform(0.2, 3.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)

    def f(x):
        return (c[0] + x * (c[1] + x * (c[2] + x * c[3]))
                + amp * math.sin(freq * x + phase))

    return SampledFunction(f, "smooth")


def test_quadrature_exactness_random_polynomials():
    rng = np.random.default_rng(SEED)
    for _ in range(250):
        order = int(rng.integers(1, 11))
        degree = 2 * order - 1
        coeffs = rng.uniform(-1.0, 1.0, size=degree + 1)
        iv = _random_interval(rng)
        rule = gauss_legendre_rule(order, iv)
        assert abs(float(np.sum(rule.weights)) - iv.width) <= 1e-12 * iv.width
        quad = float(np.sum(rule.weights * nppoly.polyval(rule.nodes, coeffs)))
        anti = nppoly.polyint(coeffs)
        exact = nppoly.polyval(iv.b, anti) - nppoly.polyval(iv.a, anti)
        scale = max(abs(exact),
                    iv.width * float(np.max(np.abs(
                        nppoly.polyval(rule.nodes, coeffs)))), 1e-30)
        assert abs(quad - exact) <= 1e-10 * scale


def test_inner_product_symmetry_and_bilinearity():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(200):
        iv = _random_interval(rng)
        rule = gauss_legendre_rule(24, iv)
        f, g, h = (_random_smooth(rng) for _ in range(3))
        a, b = rng.uniform(-3.0, 3.0, size=2)
        fg = inner_product(f, g, rule)
        gf = inner_product(g, f, rule)
        assert abs(fg - gf) <= 1e-12 * max(1.0, abs(fg))
        combo = SampledFunction(lambda x: a * f.eval(x) + b * g.eval(x), "c")
        lhs = inner_product(combo, h, rule)
        rhs = a * inner_product(f, h, rule) + b * inner_product(g, h, rule)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_cauchy_schwarz():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(150):
        iv = _random_interval(rng)
        rule = gauss_legendre_rule(24, iv)
        f, g = _random_smooth(rng), _random_smooth(rng)
        fg = inner_product(f, g, rule)
        assert fg**2 <= (1.0 + 1e-10) * norm(f, rule) ** 2 * norm(g, rule) ** 2


def test_schwarz_reflection_zeta():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(120):
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(1.0, 100.0))
        if abs(s - 1.0) < 1e-3:
            continue
        assert abs(zeta_em(s.conjugate()) - zeta_em(s).conjugate()) <= 1e-12


def test_bessel_inequality():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(120):
        iv = _random_interval(rng)
        f = _random_smooth(rng)
        degree = int(rng.integers(2, 9))
        res = project(f, iv, degree)
        c = res.poly.coeffs
        ns = np.arange(len(c))
        partial_energy = float(np.sum(c**2 * iv.width / (2.0 * ns + 1.0)))
        rule = gauss_legendre_rule(max(2 * degree, 32), iv)
        total_energy = norm(f, rule) ** 2
        assert partial_energy <= total_energy + 1e-8


def test_colleague_matrix_recovers_random_roots():
    rng = np.random.default_rng(SEED + 5)
    cases = 0
    while cases < 120:
        degree = int(rng.integers(1, 13))
        roots_u = np.sort(rng.uniform(-0.9, 0.9, size=degree))
        if degree > 1 and np.min(np.diff(roots_u)) < 0.05:
            continue
        cases += 1
        iv = _random_interval(rng, min_width=0.5, max_width=4.0)
        coeffs = npleg.legfromroots(roots_u)
        poly = PolynomialRealCoeffs(coeffs, iv)
        found = poly_real_zeros(poly)
        expected = iv.a + 0.5 * iv.width * (roots_u + 1.0)
        assert len(found) == degree
        assert np.max(np.abs(np.array(found) - expected)) < 1e-8


def test_projection_linearity():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(100):
        iv = _random_interval(rng)
        f, g = _random_smooth(rng), _random_smooth(rng)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        combo = SampledFunction(lambda x: a * f.eval(x) + b * g.eval(x), "c")
        degree = 6
        pc = project(combo, iv, degree).poly.coeffs
        pf = project(f, iv, degree).poly.coeffs
        pg = project(g, iv, degree).poly.coeffs
        width = max(len(pc), len(pf), len(pg))
        pad = lambda v: np.pad(v, (0, width - len(v)))
        scale = max(float(np.max(np.abs(pad(pc)))), 1.0)
        assert np.max(np.abs(pad(pc) - a * pad(pf) - b * pad(pg))) <= (
            1e-10 * scale
        )


def test_gram_schmidt_random_families():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(60):
        iv = _random_interval(rng, min_width=1.0)
        rule = gauss_legendre_rule(32, iv)
        fam = [_random_smooth(rng) for _ in range(int(rng.integers(2, 5)))]
        outs = gram_schmidt(fam, rule)
        assert outs[0].eval is fam[0].eval
        g = gram_matrix(outs, rule).entries
        d = np.sqrt(np.diag(g))
        corr = g / np.outer(d, d)
        off = np.max(np.abs(corr - np.diag(np.diag(corr))))
        assert off < 1e-10
        assert np.linalg.eigvalsh(g)[0] >= -1e-10 * np.trace(g)


def test_rs_remainder_coefficient_continuous_at_switch():
    # The local sine form and the raw cosine ratio must agree where the
    # implementation switches between them (0.05 away from p = 1/4, 3/4).
    rng = np.random.default_rng(SEED + 8)
    for p0 in (0.25, 0.75):
        for _ in range(50):
            eps = rng.uniform(0.045, 0.055)
            for p in (p0 - eps, p0 + eps):
                direct = math.cos(2.0 * math.pi * (p * p - p - 0.0625)) / (
                    math.cos(2.0 * math.pi * p)
                )
                assert _rs_psi(p) == pytest.approx(direct, abs=1e-9)
    assert _rs_psi(0.25) == pytest.approx(0.5, abs=1e-12)
    assert _rs_psi(0.75) == pytest.approx(0.5, abs=1e-12)


# Ends of the float range, subnormals, and points where a sum or a phase
# overflows (sigma = 1e306 made the Euler-Maclaurin sum NaN; |t| = 1e308
# overflowed 2|t|/pi; the exact theta overflows above |t| ~ 5e305).
_FLOAT_EDGES = (1e308, -1e308, 1e306, -1e306, 6e305, 5e-324, -5e-324,
                2.2e-308, 0.0)
_ORDINARY = (0.5, -1.5, 2.0, 14.134725, 1000.0, -7005.1)

# hardy_z_rs builds a term table of N entries for each new N, so heights
# it accepts above 1e6 (N > 398, up to 112 MB at N = MAX_TERMS) are left
# out; the heights it refuses there are kept.
_RS_KEEP_BELOW = 1e6


def _float_range_values(rng, n_drawn):
    """The edges, the ordinary points, and n_drawn log-uniform draws of
    either sign from 1e-320 to 1e308."""
    drawn = (rng.choice((-1.0, 1.0), size=n_drawn)
             * 10.0 ** rng.uniform(-320.0, 308.0, size=n_drawn))
    return [*_FLOAT_EDGES, *_ORDINARY, *map(float, drawn)]


def _finite_or_refused(fn, *args):
    """fn(*args) as a tuple of floats, or None if it raised NumericsError;
    any other exception propagates."""
    try:
        value = fn(*args)
    except NumericsError:
        return None
    if isinstance(value, GeneralizedHardyValue):
        return (value.z, value.y)
    value = complex(value)
    return (value.real, value.imag)


def test_kernels_finite_or_refused_across_float_range():
    # 20 x 20 (sigma, t) points for the four Euler-Maclaurin functions,
    # and the 20 heights for theta, theta_asymptotic and hardy_z_rs.
    rng = np.random.default_rng(SEED)
    sigmas = _float_range_values(rng, 5)
    ts = _float_range_values(rng, 5)
    rs_accepted = 2.0 * math.pi * (MAX_TERMS + 1) ** 2
    for t in ts:
        calls = [(theta, t), (theta_asymptotic, t)]
        if not _RS_KEEP_BELOW < t < rs_accepted:
            calls.append((hardy_z_rs, t))
        for sigma in sigmas:
            s = complex(sigma, t)
            calls += [(zeta_em, s), (hurwitz_zeta, s, 0.2),
                      (generalized_hardy, sigma, t),
                      (davenport_heilbronn, s)]
        for fn, *args in calls:
            parts = _finite_or_refused(fn, *args)
            assert parts is None or all(map(math.isfinite, parts)), (
                fn.__name__, args, parts)


def test_dh_array_agrees_with_scalar_across_float_range():
    # davenport_heilbronn on an array of the float-range grid raises a
    # refused point's error with the scalar call's message, and on the
    # accepted points returns the scalar calls' values.
    rng = np.random.default_rng(SEED)
    values = _float_range_values(rng, 5)
    want, accepted, refused = [], [], []
    for s in (complex(sigma, t) for t in values for sigma in values):
        try:
            want.append(davenport_heilbronn(s))
            accepted.append(s)
        except NumericsError as err:
            refused.append((type(err), str(err), s))
    assert refused and accepted
    with pytest.raises(NumericsError) as batched:
        davenport_heilbronn(np.array([*accepted, *(s for *_, s in refused)]))
    assert (type(batched.value), str(batched.value)) in [
        (kind, message) for kind, message, _ in refused]
    got = davenport_heilbronn(np.array(accepted))
    assert np.all(np.abs(got - np.array(want))
                  <= 1e-15 * np.maximum(1.0, np.abs(want)))


def test_hardy_grid_agrees_with_scalar_across_float_range():
    # hardy_function(sigma).sample on the float-range grid, for each sigma
    # of it: a grid holding a refused point raises the scalar loop's
    # error at its point, and the accepted points give the scalar values
    # bit for bit.
    rng = np.random.default_rng(SEED)
    values = _float_range_values(rng, 5)
    mixed = 0
    for sigma in values:
        f = hardy_function(sigma)
        want, accepted, refused = [], [], []
        for t in values:
            try:
                want.append(generalized_hardy(sigma, t).z)
                accepted.append(t)
            except NumericsError:
                refused.append(t)
        got = f.sample(accepted)
        assert got.tobytes() == np.array(want, dtype=float).tobytes(), sigma
        if not (accepted and refused):
            continue
        mixed += 1
        ts = [*accepted, *refused]
        scalar = SampledFunction(lambda t: generalized_hardy(sigma, t).z,
                                 f.label)
        with pytest.raises(EvaluationError) as loop:
            scalar.sample(ts)
        with pytest.raises(EvaluationError) as batched:
            f.sample(ts)
        assert str(batched.value) == str(loop.value)
        assert repr(batched.value.point) == repr(loop.value.point)
    assert mixed
