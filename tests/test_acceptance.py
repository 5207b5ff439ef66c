"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is tuned at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from hardyzeta.hilbert import (
    Interval,
    correlation_matrix,
    gauss_legendre_rule,
    gram_matrix,
    gram_schmidt,
    hardy_function,
)
from hardyzeta.polyzero import zero_convergence_study
from hardyzeta.report import RunConfig, report_json, run_report
from hardyzeta.specialfn import chi, theta, theta_asymptotic
from hardyzeta.zerofinder import (
    argument_principle_count,
    find_critical_zeros,
    hardy_em_function,
    hardy_rs_function,
    lehmer_scan,
    refine_zero,
    zero_count_estimate,
)
from hardyzeta.zetaeval import (
    EvalConfig,
    davenport_heilbronn,
    generalized_hardy,
    hardy_z_rs,
    residue_identity_residual,
    zeta_em,
)

SIN_SWEEP_TOL = 1e-8
THETA_XVAL_TOL = 1e-9
CHI_HALF_TOL = 1e-12
CHI_MOD_TOL = 1e-10
FUNC_EQ_TOL = 1e-8
ZETA_KNOWN_TOL = 1e-12
ZETA_HALF_TOL = 1e-9
RS_EM_COEFF = 3.0
FIRST_ZERO_STABILITY = 1e-9
GS_OFFDIAG_TOL = 1e-10
SIN_CONV_TOL = 1e-8
HARDY_CONV_TOL = 1e-6
LEHMER_GAP_TOL = 0.2
LEHMER_RESIDUAL_TOL = 1e-6
RESIDUE_TOL = 1e-8


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_01_sin_theta_identity():
    start = time.perf_counter()
    worst = max(
        abs(generalized_hardy(0.5, float(t)).y)
        for t in np.arange(10.0, 200.0001, 0.1)
    )
    elapsed = time.perf_counter() - start
    ok = worst < SIN_SWEEP_TOL and elapsed < 30.0
    _verdict(1, ok, f"max |Im Z| = {worst:.3e} (< {SIN_SWEEP_TOL}), "
                    f"{elapsed:.2f}s (< 30s)")


def test_02_theta_cross_validation():
    worst = max(
        abs(theta_asymptotic(float(t)) - theta(float(t)))
        for t in range(20, 1001)
    )
    _verdict(2, worst < THETA_XVAL_TOL,
             f"max |asym - exact| = {worst:.3e} (< {THETA_XVAL_TOL}) "
             f"on [20,1000]")


def test_03_chi_factor():
    half_defect = abs(chi(0.5 + 0.0j) - 1.0)
    mod_defect = max(abs(abs(chi(complex(0.5, t))) - 1.0)
                     for t in (1.0, 5.0, 10.0, 50.0, 100.0))
    worst_fe = 0.0
    for sigma in np.linspace(-1.0, 2.0, 20):
        for t in np.linspace(5.0, 60.0, 20):
            s = complex(sigma, t)
            worst_fe = max(worst_fe,
                           abs(zeta_em(s) - chi(s) * zeta_em(1.0 - s)))
    ok = (half_defect < CHI_HALF_TOL and mod_defect < CHI_MOD_TOL
          and worst_fe < FUNC_EQ_TOL)
    _verdict(3, ok, f"chi(1/2) defect {half_defect:.2e}, modulus defect "
                    f"{mod_defect:.2e}, functional-eq residual {worst_fe:.2e}")


def test_04_known_values():
    d2 = abs(zeta_em(2.0 + 0.0j) - math.pi**2 / 6.0)
    d0 = abs(zeta_em(0.0 + 0.0j) + 0.5)
    oracle = zeta_em(0.5 + 0.0j, EvalConfig(em_terms=10**4))
    dh = abs(zeta_em(0.5 + 0.0j) - oracle)
    ok = d2 < ZETA_KNOWN_TOL and d0 < ZETA_KNOWN_TOL and dh < ZETA_HALF_TOL
    _verdict(4, ok, f"zeta(2) {d2:.2e}, zeta(0) {d0:.2e}, "
                    f"zeta(1/2) vs high-term oracle {dh:.2e} "
                    f"(oracle {oracle.real:.10f})")


def test_05_riemann_siegel_vs_euler_maclaurin():
    start = time.perf_counter()
    worst_ratio = 0.0
    for t in np.arange(30.0, 300.0001, 0.5):
        dev = abs(hardy_z_rs(float(t)) - generalized_hardy(0.5, float(t)).z)
        worst_ratio = max(worst_ratio, dev / (RS_EM_COEFF * t**-0.75))
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and elapsed < 60.0
    _verdict(5, ok, f"max deviation = {worst_ratio:.3f} of the "
                    f"{RS_EM_COEFF}*t^-3/4 bound, {elapsed:.2f}s (< 60s)")


def test_06_zero_census_and_first_zero():
    iv = Interval(2.0 * math.pi + 1e-9, 100.0)
    recs = find_critical_zeros(iv, step=0.01)
    recs_half = find_critical_zeros(iv, step=0.005)
    estimate = zero_count_estimate(100.0)
    census_ok = abs(len(recs) - estimate) <= 1.0 and len(recs) == len(recs_half)
    step_shift = max(abs(a.location - b.location)
                     for a, b in zip(recs, recs_half))
    z_first = recs[0].location
    oracle = refine_zero(hardy_em_function(EvalConfig(em_terms=10**4)),
                         (14.0, 14.2), 1e-12)
    config_shift = abs(z_first - oracle.location)
    digits_ok = abs(z_first - 14.134725) < 5e-7
    # Cross-path agreement at the leading-remainder tolerance: the RS
    # route only carries the C0 term, so its zero sits O(1e-3) away.
    rs_zero = refine_zero(hardy_rs_function(), (14.0, 14.2), 1e-12)
    cross_path = abs(rs_zero.location - z_first)
    ok = (census_ok and step_shift < FIRST_ZERO_STABILITY
          and config_shift < FIRST_ZERO_STABILITY and digits_ok
          and cross_path < 5e-3)
    _verdict(6, ok, f"count {len(recs)} vs estimate {estimate:.3f}; first "
                    f"zero {z_first:.9f}, step-halving shift {step_shift:.1e}, "
                    f"oracle shift {config_shift:.1e}, RS-route offset "
                    f"{cross_path:.1e}")


def test_07_gram_schmidt_preserves_first():
    iv = Interval(10.0, 50.0)
    rule = gauss_legendre_rule(256, iv)
    family = [hardy_function(s) for s in (0.5, 0.3, 0.4)]
    outs = gram_schmidt(family, rule)
    first_dev = float(np.max(np.abs(outs[0].sample(rule.nodes)
                                    - family[0].sample(rule.nodes))))
    corr = correlation_matrix(gram_matrix(outs, rule))
    off = float(np.max(np.abs(corr - np.diag(np.diag(corr)))))
    ok = first_dev == 0.0 and off < GS_OFFDIAG_TOL
    _verdict(7, ok, f"first-element deviation {first_dev}, max normalized "
                    f"off-diagonal {off:.2e} (< {GS_OFFDIAG_TOL})")


def test_08_zero_convergence():
    from hardyzeta.hilbert import SampledFunction

    sin_f = SampledFunction(math.sin, "sin")
    sin_comps = {c.degree: c.max_deviation
                 for c in zero_convergence_study(sin_f, Interval(1.0, 10.0),
                                                 [15, 25])}
    hardy_comps = {c.degree: c.max_deviation
                   for c in zero_convergence_study(hardy_function(0.5),
                                                   Interval(10.0, 30.0),
                                                   [20, 40])}
    ok = (sin_comps[25] < SIN_CONV_TOL
          and hardy_comps[40] < HARDY_CONV_TOL
          and hardy_comps[40] < hardy_comps[20])
    _verdict(8, ok, f"sin deg25 {sin_comps[25]:.2e} (< {SIN_CONV_TOL}); "
                    f"Z deg40 {hardy_comps[40]:.2e} (< {HARDY_CONV_TOL}) "
                    f"and < deg20 {hardy_comps[20]:.2e}")


def test_09_lehmer_pair():
    pairs = lehmer_scan(Interval(7000.0, 7010.0), threshold=LEHMER_GAP_TOL,
                        step=0.01)
    ok = len(pairs) >= 1
    detail = "no pair found"
    if ok:
        p = pairs[0]
        z_em = hardy_em_function()
        r_lo = abs(z_em.eval(p.t_low))
        r_hi = abs(z_em.eval(p.t_high))
        ok = (p.normalized_gap < LEHMER_GAP_TOL
              and r_lo < LEHMER_RESIDUAL_TOL and r_hi < LEHMER_RESIDUAL_TOL)
        detail = (f"pair ({p.t_low:.6f}, {p.t_high:.6f}), normalized gap "
                  f"{p.normalized_gap:.4f} (< {LEHMER_GAP_TOL}), EM residuals "
                  f"{r_lo:.1e}/{r_hi:.1e} (< {LEHMER_RESIDUAL_TOL})")
    _verdict(9, ok, detail)


def test_10_davenport_heilbronn_offline_zero():
    start = time.perf_counter()
    box = (0.51, 1.0, 80.0, 90.0)
    count = argument_principle_count(davenport_heilbronn, box, n_per_side=256)
    count2 = argument_principle_count(davenport_heilbronn, box, n_per_side=512)
    elapsed = time.perf_counter() - start
    ok = count >= 1 and count == count2 and elapsed < 60.0
    _verdict(10, ok, f"count {count} (doubled contour: {count2}), "
                     f"{elapsed:.2f}s (< 60s)")


def test_11_residue_identity():
    r = residue_identity_residual(-1.5 + 0.0j, 10**5)
    _verdict(11, r < RESIDUE_TOL,
             f"residual at s=-1.5, n=1e5: {r:.3e} (< {RESIDUE_TOL})")


def test_12_report_determinism():
    config = RunConfig()
    text1 = report_json(config, run_report(config))
    text2 = report_json(config, run_report(config))
    ok = text1 == text2
    payload = json.loads(text1)
    statuses = {e["claim_id"]: e["status"] for e in payload["entries"]}
    ok = ok and all(s != "Fail" for s in statuses.values())
    _verdict(12, ok, f"byte-identical: {text1 == text2}; claim statuses "
                     f"{sorted(set(statuses.values()))}")
