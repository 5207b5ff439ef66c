"""The per-claim verification suite and its JSON report.

run_report executes a fixed sequence of numeric checks -- the
perpendicular-component identity on the critical line, the functional
equation, the chi modulus, Gram-Schmidt first-element preservation,
independence conditioning grids, the polynomial zero-convergence study,
the Lehmer-pair scan near t=7005, and the Davenport-Heilbronn off-line
zero count -- and records one entry per claim.  Entry failures are
recorded, never raised, so one bad claim cannot abort the suite.

Reports are byte-reproducible: the config is embedded verbatim, floats
are rounded to 12 significant digits, keys are sorted, and nothing
time-, platform- or path-dependent is written.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial
from importlib import resources

import numpy as np

from . import hilbert, polyzero, zerofinder
from .errors import DomainError
from .output import sig
from .specialfn import chi
from .zetaeval import (
    EvalConfig,
    davenport_heilbronn,
    generalized_hardy,
    zeta_em,
)

@dataclass(frozen=True)
class RunConfig:
    """Everything a report run depends on; embedded verbatim in the output.

    Raises DomainError for a quadrature order outside
    [1, MAX_QUAD_ORDER] or an interval that is not finite with a < b,
    so a report never records a config its schema rejects.
    """

    evaluation: EvalConfig = EvalConfig()
    quad_order: int = 256
    interval: tuple[float, float] = (10.0, 50.0)

    def __post_init__(self):
        if not 1 <= self.quad_order <= hilbert.MAX_QUAD_ORDER:
            raise DomainError(
                f"quad_order must be in [1, {hilbert.MAX_QUAD_ORDER}], "
                f"got {self.quad_order}"
            )
        hilbert.Interval(*self.interval)

    def as_dict(self) -> dict:
        """Flat config: the EvalConfig fields, quad_order and interval."""
        return {
            **asdict(self.evaluation),
            "quad_order": self.quad_order,
            "interval": [self.interval[0], self.interval[1]],
        }


@dataclass
class ReportEntry:
    """One claim's verdict; Measured entries record numbers without
    adjudicating (used where no finite computation can decide)."""

    claim_id: str
    status: str
    metrics: dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def as_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "status": self.status,
            "metrics": {k: sig(v) for k, v in sorted(self.metrics.items())},
            "notes": self.notes,
        }


def _entry_sin_theta(config: RunConfig) -> ReportEntry:
    ts = np.arange(10.0, 200.0001, 0.1)
    worst = max(abs(generalized_hardy(0.5, float(t), config.evaluation).y)
                for t in ts)
    ok = worst < 1e-8
    return ReportEntry(
        "sin-theta-identity",
        "Pass" if ok else "Fail",
        {"max_abs_y": worst, "t_lo": 10.0, "t_hi": 200.0, "step": 0.1},
        "perpendicular component of zeta(1/2+it) e^{i theta} on the line",
    )


def _entry_functional_equation(config: RunConfig) -> ReportEntry:
    cfg = config.evaluation
    worst = 0.0
    for sigma in np.linspace(-1.0, 2.0, 20):
        for t in np.linspace(5.0, 60.0, 20):
            s = complex(sigma, t)
            r = abs(zeta_em(s, cfg) - chi(s) * zeta_em(1.0 - s, cfg))
            worst = max(worst, r)
    ok = worst < 1e-8
    return ReportEntry(
        "functional-equation",
        "Pass" if ok else "Fail",
        {"max_residual": worst, "grid": 400.0},
        "|zeta(s) - chi(s) zeta(1-s)| on a 20x20 grid; a real-cosine-"
        "series form of this equation cannot balance pointwise (chi is "
        "complex off the line), so the complex identity is what is checked",
    )


def _entry_chi_modulus(config: RunConfig) -> ReportEntry:
    at_half = abs(chi(complex(0.5, 0.0)) - 1.0)
    worst = max(abs(abs(chi(complex(0.5, t))) - 1.0)
                for t in (1.0, 5.0, 10.0, 50.0, 100.0))
    ok = at_half < 1e-12 and worst < 1e-10
    return ReportEntry(
        "chi-modulus",
        "Pass" if ok else "Fail",
        {"chi_half_defect": at_half, "max_modulus_defect": worst},
        "chi(1/2)=1 and |chi(1/2+it)|=1 on the sample heights",
    )


def _entry_gs_first(config: RunConfig) -> ReportEntry:
    iv = hilbert.Interval(*config.interval)
    rule = hilbert.gauss_legendre_rule(config.quad_order, iv)
    family = [hilbert.hardy_function(s, config.evaluation)
              for s in (0.5, 0.3, 0.4)]
    outs = hilbert.gram_schmidt(family, rule)
    first_dev = float(np.max(np.abs(outs[0].sample(rule.nodes)
                                    - family[0].sample(rule.nodes))))
    corr = hilbert.correlation_matrix(hilbert.gram_matrix(outs, rule))
    off = float(np.max(np.abs(corr - np.diag(np.diag(corr)))))
    ok = first_dev == 0.0 and off < 1e-10
    return ReportEntry(
        "gs-preserves-first",
        "Pass" if ok else "Fail",
        {"first_element_deviation": first_dev, "max_offdiag": off},
        "orthogonalization leaves the first function untouched",
    )


def _entry_independence(config: RunConfig) -> ReportEntry:
    iv = hilbert.Interval(*config.interval)
    metrics: dict[str, float] = {}
    # Reflective pair sigma2 = 1 - sigma1, a non-reflective pair, and a
    # mixed triple; determinants/eigenvalues are recorded, not judged.
    for tag, sigmas in (("pair_0.3_0.7", (0.3, 0.7)),
                        ("pair_0.3_0.6", (0.3, 0.6)),
                        ("triple_0.5_0.3_0.4", (0.5, 0.3, 0.4))):
        rep = hilbert.independence_report(sigmas, iv, config.quad_order,
                                          config.evaluation)
        metrics[f"{tag}_det"] = rep.correlation_det
        metrics[f"{tag}_min_eig"] = rep.min_eigenvalue
        for s1, s2, c in rep.pairwise():
            metrics[f"corr_{s1:g}_{s2:g}"] = c
    return ReportEntry(
        "independence-grid",
        "Measured",
        metrics,
        "finite-section conditioning of {Z(sigma,.)}; dependence claims "
        "are not finitely decidable, so numbers only",
    )


def _entry_zero_convergence(config: RunConfig) -> ReportEntry:
    iv = hilbert.Interval(10.0, 30.0)
    f = hilbert.hardy_function(0.5, config.evaluation)
    studies = polyzero.zero_convergence_study(f, iv, [20, 30, 40])
    devs = {c.degree: c.max_deviation for c in studies}
    ok = devs[40] < 1e-6 and devs[40] < devs[20]
    return ReportEntry(
        "zero-convergence",
        "Pass" if ok else "Fail",
        {f"max_dev_deg{d}": v for d, v in devs.items()},
        "projection zeros converge onto the refined zeros of Z(1/2,.)",
    )


def _entry_lehmer(config: RunConfig) -> ReportEntry:
    cfg = config.evaluation
    pairs = zerofinder.lehmer_scan(hilbert.Interval(7000.0, 7010.0),
                                   threshold=0.2, step=0.01, cfg=cfg)
    if not pairs:
        return ReportEntry("lehmer-7005", "Fail", {},
                           "no close pair found in [7000, 7010]")
    z_em = zerofinder.hardy_em_function(cfg)
    p = min(pairs, key=lambda q: q.normalized_gap)
    res_lo = abs(z_em.eval(p.t_low))
    res_hi = abs(z_em.eval(p.t_high))
    ok = p.normalized_gap < 0.2 and res_lo < 1e-6 and res_hi < 1e-6
    return ReportEntry(
        "lehmer-7005",
        "Pass" if ok else "Fail",
        {
            "t_low": p.t_low,
            "t_high": p.t_high,
            "normalized_gap": p.normalized_gap,
            "barrier": p.min_between,
            "residual_low": res_lo,
            "residual_high": res_hi,
        },
        "the classic close pair near t=7005, re-verified on the "
        "Euler-Maclaurin route",
    )


def _entry_dh_offline(config: RunConfig) -> ReportEntry:
    f = partial(davenport_heilbronn, cfg=config.evaluation)
    box = (0.51, 1.0, 80.0, 90.0)
    count = zerofinder.argument_principle_count(f, box, n_per_side=256)
    count2 = zerofinder.argument_principle_count(f, box, n_per_side=512)
    ok = count >= 1 and count == count2
    return ReportEntry(
        "dh-offline-zero",
        "Pass" if ok else "Fail",
        {"count": float(count), "count_refined": float(count2)},
        "winding count in sigma (0.51,1), t (80,90); >=1 reproduces the "
        "off-critical-line zeros",
    )


_ENTRY_BUILDERS = {
    "sin-theta-identity": _entry_sin_theta,
    "functional-equation": _entry_functional_equation,
    "chi-modulus": _entry_chi_modulus,
    "gs-preserves-first": _entry_gs_first,
    "independence-grid": _entry_independence,
    "zero-convergence": _entry_zero_convergence,
    "lehmer-7005": _entry_lehmer,
    "dh-offline-zero": _entry_dh_offline,
}


def run_report(config: RunConfig | None = None) -> list[ReportEntry]:
    """Run every claim check in declared order; failures are recorded
    as Fail entries rather than raised."""
    config = config or RunConfig()
    entries = []
    for claim, build in _ENTRY_BUILDERS.items():
        try:
            entries.append(build(config))
        except Exception as exc:
            entries.append(ReportEntry(claim, "Fail", {},
                                       f"aborted: {exc!r}"))
    return entries


def report_payload(config: RunConfig, entries: list[ReportEntry]) -> dict:
    return {
        "config": config.as_dict(),
        "entries": [e.as_dict() for e in entries],
    }


def report_json(config: RunConfig, entries: list[ReportEntry]) -> str:
    """Canonical JSON text; identical configs yield identical bytes."""
    return json.dumps(report_payload(config, entries), indent=2,
                      sort_keys=True) + "\n"


def render_summary(entries: list[ReportEntry]) -> str:
    lines = []
    for e in entries:
        head = f"[{e.status:>8}] {e.claim_id}"
        if e.metrics:
            shown = ", ".join(f"{k}={sig(v, 6):g}" for k, v in
                              sorted(e.metrics.items())[:4])
            head += f"  ({shown})"
        lines.append(head)
    n_fail = sum(1 for e in entries if e.status == "Fail")
    lines.append(f"{len(entries)} claims, {n_fail} failures")
    return "\n".join(lines)


def load_schema() -> dict:
    """The published JSON schema the report payload validates against."""
    text = resources.files("hardyzeta").joinpath("report_schema.json").read_text(
        encoding="utf-8"
    )
    return json.loads(text)
