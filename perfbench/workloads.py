"""The four benchmark workloads: seeded inputs and one task each.

Every workload draws its inputs in stratified passes of PASS_SIZE: the
k-th input of a pass lies in the k-th of PASS_SIZE equal slices of the
workload's range, at a seeded offset, and each pass is shuffled.  All
seeds therefore cover the range evenly, which keeps the timing
distribution of a run nearly the same across seeds, while no two tasks
share an input, so a value cache in the program cannot turn repeats into
a fake gain.

Tasks call the package through module attributes (`zerofinder.find_...`)
rather than names bound at import, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from hardyzeta import hilbert, polyzero, zerofinder, zetaeval
from hardyzeta.hilbert import Interval

#: Inputs per stratified pass; the traced run replays exactly the first pass.
PASS_SIZE = 50

#: Scan step of the zeros workloads.
ZERO_STEP = 0.01

#: Contour samples per side of a dh-winding box.
DH_N_PER_SIDE = 128

#: Degree sweep of the hilbert-study zero-convergence study.
STUDY_DEGREES = (16, 24, 32, 48)


@dataclass(frozen=True)
class HilbertInput:
    interval: Interval
    sigmas: tuple[float, float, float]


@dataclass
class HilbertOutput:
    report: hilbert.IndependenceReport
    ortho: list[hilbert.SampledFunction]
    study: list[polyzero.ZeroComparison]


@dataclass(frozen=True)
class Workload:
    """One named input family and the task run on each input.

    make(rng, u) builds an input from its stratified position u in
    [0, 1); zeros(out) is how many refined zeros a task returned;
    fingerprint(out) renders an output exactly (repr of a float
    round-trips), for bit-for-bit comparison of traced and untraced runs.
    """

    name: str
    why: str
    make: Callable[[random.Random, float], Any]
    run: Callable[[Any], Any]
    zeros: Callable[[Any], int]
    fingerprint: Callable[[Any], str]


def _window(lo: float, hi: float, width: float):
    def make(rng: random.Random, u: float) -> Interval:
        a = lo + u * (hi - lo)
        return Interval(a, a + width)
    return make


def _find_zeros(iv: Interval) -> list[zerofinder.ZeroRecord]:
    return zerofinder.find_critical_zeros(iv, step=ZERO_STEP)


def _make_box(rng: random.Random, u: float) -> tuple[float, float, float, float]:
    t1 = 60.0 + u * (400.0 - 60.0)
    return (0.51, 1.0, t1, t1 + 5.0)


def _winding(box: tuple[float, float, float, float]) -> int:
    return zerofinder.argument_principle_count(
        zetaeval.davenport_heilbronn, box, n_per_side=DH_N_PER_SIDE)


def _make_study(rng: random.Random, u: float) -> HilbertInput:
    a = 10.0 + u * (990.0 - 10.0)
    s1 = rng.uniform(0.2, 0.8)
    s2 = rng.uniform(0.2, 0.8)
    return HilbertInput(Interval(a, a + 10.0), (0.5, s1, s2))


def _study(x: HilbertInput) -> HilbertOutput:
    order = hilbert.oscillation_order(x.interval)
    report = hilbert.independence_report(x.sigmas, x.interval, order)
    fs = [hilbert.hardy_function(s) for s in x.sigmas]
    rule = hilbert.gauss_legendre_rule(order, x.interval)
    ortho = hilbert.gram_schmidt(fs, rule)
    study = polyzero.zero_convergence_study(fs[0], x.interval,
                                            list(STUDY_DEGREES))
    return HilbertOutput(report, ortho, study)


def _study_fingerprint(out: HilbertOutput) -> str:
    mid = out.report.interval.midpoint
    return repr((
        out.report.gram.entries.tolist(),
        out.report.correlation_det,
        out.report.min_eigenvalue,
        [g.eval(mid) for g in out.ortho],
        [(c.degree, c.function_zeros, c.polynomial_zeros, c.matched_pairs)
         for c in out.study],
    ))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="zeros-low",
            why="RS scan dominates (~60%), EM refinement ~20%: shows RS "
                "kernel and sampling changes",
            make=_window(100.0, 1500.0, 10.0),
            run=_find_zeros,
            zeros=len,
            fingerprint=repr,
        ),
        Workload(
            name="zeros-high",
            why="EM refinement dominates (~66%), RS ~29%: shows changes "
                "to EM evaluations per zero",
            make=_window(8000.0, 9995.0, 5.0),
            run=_find_zeros,
            zeros=len,
            fingerprint=repr,
        ),
        Workload(
            name="dh-winding",
            why="Hurwitz zeta is ~95%, no RS or critical-line code: the "
                "bypass workload for every scan change",
            make=_make_box,
            run=_winding,
            zeros=int,
            fingerprint=repr,
        ),
        Workload(
            name="hilbert-study",
            why="the only workload on hilbert and polyzero; EM off the "
                "line through scalar sampling",
            make=_make_study,
            run=_study,
            zeros=lambda out: len(out.study[-1].function_zeros),
            fingerprint=_study_fingerprint,
        ),
    )
}


def inputs(workload: Workload, seed: int) -> Iterator[Any]:
    """Endless seeded input stream, in shuffled stratified passes."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        batch = [workload.make(rng, (k + rng.random()) / PASS_SIZE)
                 for k in range(PASS_SIZE)]
        rng.shuffle(batch)
        yield from batch


def first_pass(workload: Workload, seed: int) -> list[Any]:
    stream = inputs(workload, seed)
    return [next(stream) for _ in range(PASS_SIZE)]


def warmup_input(workload: Workload, seed: int) -> Any:
    """An input outside the timed stream, for the untimed warm-up task."""
    rng = random.Random(f"{workload.name}:{seed}:warmup")
    return workload.make(rng, rng.random())


def digest(items: list[Any]) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()
