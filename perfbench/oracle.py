"""mpmath oracle at 30 digits, run outside the timed region.

Checks a seeded subset of a run's outputs: the zero census against
mpmath.nzeros, zero locations against one Newton step on mpmath.siegelz,
and values against mpmath's zeta, Hurwitz zeta, Dirichlet series and
siegeltheta.  Only the benchmark imports mpmath; the package never does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp

from hardyzeta import hilbert, zerofinder, zetaeval

mp.dps = 30

#: Largest |t - t*| accepted for a refined zero (refinement tol is 1e-10).
ZERO_TOL = 1e-9
#: Largest relative error accepted for a value on the EM/Hurwitz routes.
#: Errors are taken relative to max(|reference|, 1), so that a value near
#: a zero of the function is not divided by almost nothing.
VALUE_TOL = 1e-9
#: Largest relative mismatch of a Gram matrix recomputed from samples.
GRAM_TOL = 1e-10
#: Largest |<g_i, g_j>| / (|g_i| |g_j|) accepted between Gram-Schmidt outputs.
ORTHO_TOL = 1e-8
#: Largest zero deviation accepted at the top degree of a projection study.
STUDY_TOL = 1e-6

# Census windows, zeros and value points checked per run.
CENSUS_WINDOWS = 12
ZEROS_CHECKED = 6
VALUES_CHECKED = 6
# dh-winding boxes recounted at twice n_per_side.
BOXES_RECOUNTED = 4
# hilbert-study tasks whose Gram matrix and orthogonality are checked.
STUDIES_CHECKED = 4

_KAPPA = (mp.sqrt(10 - 2 * mp.sqrt(5)) - 2) / (mp.sqrt(5) - 1)
# Period-5 Dirichlet coefficients of the Davenport-Heilbronn function,
# indexed from n = 0.
_DH_COEFFS = [0, 1, _KAPPA, -_KAPPA, -1]


@dataclass
class Verdict:
    """What the oracle measured and which tasks it rejected."""

    rejected: set[int] = field(default_factory=set)
    failures: list[str] = field(default_factory=list)
    census_deficit: int | None = None
    census_windows: int = 0
    zero_err_max: float | None = None
    zeros_checked: int = 0
    value_rel_err_max: float = 0.0
    values_checked: int = 0

    def reject(self, task: int, why: str) -> None:
        self.rejected.add(task)
        self.failures.append(f"task {task}: {why}")

    def zero(self, task: int, t: float) -> None:
        err = newton_error(t)
        self.zero_err_max = max(self.zero_err_max or 0.0, err)
        self.zeros_checked += 1
        if not err <= ZERO_TOL:
            self.reject(task, f"zero {t!r} is {err:.3e} from the oracle's")

    def value(self, task: int, err: float, where: str) -> None:
        self.value_rel_err_max = max(self.value_rel_err_max, err)
        self.values_checked += 1
        if not err <= VALUE_TOL:
            self.reject(task, f"relative error {err:.3e} at {where}")


def newton_error(t: float) -> float:
    """|t - t*| with t* = t - Z(t)/Z'(t), one Newton step on siegelz."""
    z = mp.siegelz(t)
    dz = mp.siegelz(t, derivative=1)
    return float(abs(z / dz))


def _rel(got: complex, ref, size=None) -> float:
    """|got - ref| / max(size, 1), with size = |ref| by default."""
    size = abs(ref) if size is None else size
    return float(abs(mp.mpmathify(got) - ref) / max(size, 1))


def check(workload: str, inputs: list, outputs: list, rng: random.Random,
          n_per_side: int) -> Verdict:
    """Oracle verdict on the tasks that returned (outputs[i] not None)."""
    done = [i for i, out in enumerate(outputs) if out is not None]
    v = Verdict()
    if not done:
        return v
    if workload.startswith("zeros"):
        _check_zeros(v, inputs, outputs, rng, done)
    elif workload == "dh-winding":
        _check_dh(v, inputs, outputs, rng, done, n_per_side)
    else:
        _check_study(v, inputs, outputs, rng, done)
    return v


def _check_zeros(v, inputs, outputs, rng, done) -> None:
    chosen = sorted(rng.sample(done, min(CENSUS_WINDOWS, len(done))))
    v.census_deficit = 0
    for i in chosen:
        iv = inputs[i]
        expected = int(mp.nzeros(iv.b)) - int(mp.nzeros(iv.a))
        found = len(outputs[i])
        v.census_deficit += expected - found
        v.census_windows += 1
        if expected != found:
            v.reject(i, f"{found} zeros found on {iv}, mpmath counts {expected}")
    pool = [(i, r.location) for i in chosen for r in outputs[i]]
    for i, t in rng.sample(pool, min(ZEROS_CHECKED, len(pool))):
        v.zero(i, t)
    # zeta on the EM route, midway between consecutive zeros where |zeta|
    # is near a local maximum, so the relative error is well conditioned.
    pairs = [(i, k) for i in chosen for k in range(len(outputs[i]) - 1)]
    for i, k in rng.sample(pairs, min(VALUES_CHECKED, len(pairs))):
        recs = outputs[i]
        t = 0.5 * (recs[k].location + recs[k + 1].location)
        got = zetaeval.zeta_em(complex(0.5, t))
        v.value(i, _rel(got, mp.zeta(mp.mpc(0.5, t))), f"zeta(1/2+{t!r}i)")


def _contour_point(box, u: float) -> complex:
    s1, s2, t1, t2 = box
    corners = [complex(s1, t1), complex(s2, t1), complex(s2, t2),
               complex(s1, t2), complex(s1, t1)]
    side, frac = divmod(4.0 * u, 1.0)
    a, b = corners[int(side)], corners[int(side) + 1]
    return a + (b - a) * frac


def _check_dh(v, inputs, outputs, rng, done, n_per_side) -> None:
    for i in sorted(rng.sample(done, min(BOXES_RECOUNTED, len(done)))):
        again = zerofinder.argument_principle_count(
            zetaeval.davenport_heilbronn, inputs[i], n_per_side=2 * n_per_side)
        if again != outputs[i]:
            v.reject(i, f"count {outputs[i]} at n_per_side={n_per_side}, "
                        f"{again} at {2 * n_per_side}")
    for i in rng.sample(done, min(VALUES_CHECKED, len(done))):
        s = _contour_point(inputs[i], rng.random())
        got = zetaeval.davenport_heilbronn(s)
        ref = mp.dirichlet(mp.mpc(s), _DH_COEFFS)
        v.value(i, _rel(got, ref), f"DH({s!r})")


def _hardy_ref(sigma: float, t: float):
    """(Z(sigma, t), |zeta(sigma + it)|) from mpmath."""
    zeta = mp.zeta(mp.mpc(sigma, t))
    return (zeta * mp.expj(mp.siegeltheta(t))).real, abs(zeta)


def _check_study(v, inputs, outputs, rng, done) -> None:
    for i in sorted(rng.sample(done, min(STUDIES_CHECKED, len(done)))):
        x, out = inputs[i], outputs[i]
        order = out.report.order
        rule = hilbert.gauss_legendre_rule(order, x.interval)
        fs = [hilbert.hardy_function(s) for s in x.sigmas]
        samples = np.array([f.sample(rule.nodes) for f in fs])
        gram = (samples * rule.weights) @ samples.T
        got = out.report.gram.entries
        mismatch = float(np.max(np.abs(gram - got)) / np.max(np.abs(got)))
        if not mismatch <= GRAM_TOL:
            v.reject(i, f"Gram matrix off by {mismatch:.3e} relative")
        ortho = np.array([g.sample(rule.nodes) for g in out.ortho])
        inner = (ortho * rule.weights) @ ortho.T
        scale = np.sqrt(np.outer(np.diag(inner), np.diag(inner)))
        off = float(np.max(np.abs(inner - np.diag(np.diag(inner))) / scale))
        if not off <= ORTHO_TOL:
            v.reject(i, f"Gram-Schmidt outputs {off:.3e} from orthogonal")
        top = out.study[-1]
        if not top.max_deviation <= STUDY_TOL:
            v.reject(i, f"degree {top.degree} zeros {top.max_deviation:.3e} "
                        "from the function's")
        for t in top.function_zeros[:1]:
            v.zero(i, t)
        for _ in range(2):
            sigma = rng.choice(x.sigmas)
            t = float(rule.nodes[rng.randrange(order)])
            got = hilbert.hardy_function(sigma).eval(t)
            ref, size = _hardy_ref(sigma, t)
            v.value(i, _rel(got, ref, size), f"Z({sigma!r}, {t!r})")


def kernel_errors(records: dict[str, list], rng: random.Random,
                  k: int = 8) -> dict[str, tuple[float, str]]:
    """Largest error of each recorded kernel at k seeded calls; relative
    errors are scaled as in _rel."""
    refs = {
        "zetaeval.hardy_z_rs": ("abs_err_max", "abs",
                                lambda a: mp.siegelz(a[0]), False),
        "specialfn.theta": ("abs_err_max", "abs",
                            lambda a: mp.siegeltheta(a[0]), False),
        "zetaeval.zeta_em": ("rel_err_max", "rel",
                             lambda a: mp.zeta(mp.mpc(a[0])), True),
        "zetaeval.hurwitz_zeta": ("rel_err_max", "rel",
                                  lambda a: mp.zeta(mp.mpc(a[0]), a[1]), True),
    }
    out = {}
    for name, (metric, unit, ref_of, relative) in refs.items():
        calls = records.get(name, [])
        worst = 0.0
        for args, result in rng.sample(calls, min(k, len(calls))):
            ref = ref_of(args)
            err = _rel(result, ref) if relative else float(abs(result - ref))
            worst = max(worst, err)
        out[f"{name}.{metric}"] = (worst, unit)
    return out
