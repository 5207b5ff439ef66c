"""Span tracer wrapped around hardyzeta's public functions.

Each span wraps a function at the binding its callers actually resolve
(a module global looked up at call time, or a class attribute), counts
calls, and accumulates self time: the span's duration minus the time
covered by its child spans.  Spans are aggregated in memory as they
close; nothing inside the package is changed.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from hardyzeta import hilbert, polyzero, zerofinder, zetaeval

#: Span name -> the (owner, attribute) bindings that callers resolve.
BINDINGS = {
    "zetaeval.hardy_z_rs": [(zerofinder, "hardy_z_rs")],
    "zetaeval.generalized_hardy": [(zerofinder, "generalized_hardy"),
                                   (hilbert, "generalized_hardy")],
    "zetaeval.zeta_em": [(zetaeval, "zeta_em")],
    "zetaeval.hurwitz_zeta": [(zetaeval, "hurwitz_zeta")],
    "zetaeval.davenport_heilbronn": [(zetaeval, "davenport_heilbronn")],
    "specialfn.theta": [(zetaeval, "theta")],
    "hilbert.sample": [(hilbert.SampledFunction, "sample")],
    "hilbert.gram_matrix": [(hilbert, "gram_matrix")],
    "hilbert.gram_schmidt": [(hilbert, "gram_schmidt")],
    "hilbert.independence_report": [(hilbert, "independence_report")],
    "polyzero.project": [(polyzero, "project")],
    "polyzero.poly_real_zeros": [(polyzero, "poly_real_zeros")],
    "polyzero.zero_convergence_study": [(polyzero, "zero_convergence_study")],
    "zerofinder.refine_zero": [(zerofinder, "refine_zero"),
                               (polyzero, "refine_zero")],
    "zerofinder.find_critical_zeros": [(zerofinder, "find_critical_zeros")],
    "zerofinder.argument_principle_count": [
        (zerofinder, "argument_principle_count")],
}

#: Spans that count evaluation points: the size of the argument at this
#: position, so a call on an array of n points counts n.  A kernel's
#: `calls` metric reports these points.
POINT_ARG = {
    "zetaeval.hardy_z_rs": 0,
    "zetaeval.generalized_hardy": 1,
    "zetaeval.zeta_em": 0,
    "zetaeval.hurwitz_zeta": 0,
    "zetaeval.davenport_heilbronn": 0,
    "specialfn.theta": 0,
    "hilbert.sample": 1,
}
KERNELS = set(POINT_ARG) - {"hilbert.sample"}

#: Kernels whose (args, result) are kept for the accuracy oracle.
RECORDED = ("zetaeval.hardy_z_rs", "zetaeval.zeta_em",
            "zetaeval.hurwitz_zeta", "specialfn.theta")


class Tracer:
    """Per-span counts and self times for one traced pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.calls_by_binding: dict[tuple[str, str], int] = defaultdict(int)
        self.points: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.records: dict[str, list] = defaultdict(list)
        self._stack: list[list[float]] = []

    def _wrap(self, name: str, binding: str, fn):
        point_arg = POINT_ARG.get(name)
        record = name in RECORDED

        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.self_s[name] += elapsed - children[0]
                self.calls[name] += 1
                self.calls_by_binding[name, binding] += 1
            if point_arg is not None and len(args) > point_arg:
                self.points[name] += int(np.size(args[point_arg]))
            if record:
                self.records[name].append((args, result))
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every binding for the duration of the block."""
        saved = []
        try:
            for name, bindings in BINDINGS.items():
                for owner, attr in bindings:
                    orig = getattr(owner, attr)
                    saved.append((owner, attr, orig))
                    setattr(owner, attr, self._wrap(name, owner.__name__, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


#: Spans each workload must record at least one call on.
EXPECTED_SPANS = {
    "zeros-low": ("zerofinder.find_critical_zeros", "zetaeval.hardy_z_rs",
                  "zetaeval.generalized_hardy", "zetaeval.zeta_em",
                  "specialfn.theta", "zerofinder.refine_zero",
                  "hilbert.sample"),
    "dh-winding": ("zerofinder.argument_principle_count",
                   "zetaeval.davenport_heilbronn", "zetaeval.hurwitz_zeta"),
    "hilbert-study": ("hilbert.independence_report", "hilbert.gram_matrix",
                      "hilbert.gram_schmidt", "hilbert.sample",
                      "zetaeval.generalized_hardy", "zetaeval.zeta_em",
                      "specialfn.theta", "polyzero.zero_convergence_study",
                      "polyzero.project", "polyzero.poly_real_zeros",
                      "zerofinder.refine_zero"),
}
EXPECTED_SPANS["zeros-high"] = EXPECTED_SPANS["zeros-low"]


def scan_grid_size(iv, step: float) -> int:
    """Points on find_critical_zeros' main RS grid, floor(width/step)+1,
    plus the right endpoint when the grid stops short of it."""
    n = int(np.floor(iv.width / step))
    last = iv.a + step * n
    return n + 1 + (last < iv.b - 1e-12 * max(1.0, abs(iv.b)))


def layer_metrics(tr: Tracer, workload: str, inputs: list, outputs: list,
                  n_per_side: int, step: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Counts and self times are totals over the pass; a kernel's `calls`
    counts evaluation points (see POINT_ARG).  Metrics of a layer the
    workload never reaches read 0.
    """
    m: dict[str, tuple[float, str]] = {}

    def span(name: str, *fields: str) -> None:
        evals = tr.points[name] if name in KERNELS else tr.calls[name]
        if "calls" in fields:
            m[f"{name}.calls"] = (evals, "count")
        if "points" in fields:
            m[f"{name}.points"] = (tr.points[name], "count")
        if "self_s" in fields:
            m[f"{name}.self_s"] = (tr.self_s[name], "s")
        if "us_per_call" in fields:
            m[f"{name}.us_per_call"] = (
                1e6 * tr.self_s[name] / evals if evals else 0.0, "us")

    span("zetaeval.hardy_z_rs", "calls", "self_s", "us_per_call")
    span("hilbert.sample", "calls", "points", "self_s")
    span("specialfn.theta", "calls", "self_s")
    span("zetaeval.zeta_em", "calls", "self_s", "us_per_call")
    span("zetaeval.generalized_hardy", "calls", "self_s")
    span("zerofinder.refine_zero", "calls", "self_s")
    span("zetaeval.hurwitz_zeta", "calls", "self_s", "us_per_call")
    span("zetaeval.davenport_heilbronn", "calls")
    span("zerofinder.argument_principle_count", "self_s")
    span("zerofinder.find_critical_zeros", "self_s")
    for name in ("hilbert.gram_matrix", "hilbert.gram_schmidt",
                 "hilbert.independence_report", "polyzero.project",
                 "polyzero.poly_real_zeros", "polyzero.zero_convergence_study"):
        span(name, "self_s")

    rs = tr.points["zetaeval.hardy_z_rs"]
    if workload.startswith("zeros"):
        grid = sum(scan_grid_size(iv, step) for iv in inputs)
        zeros = sum(len(out) for out in outputs if out is not None)
        em_scan = tr.calls_by_binding["zetaeval.generalized_hardy",
                                      "hardyzeta.zerofinder"]
    else:
        grid = rs
        zeros = em_scan = 0
    m["zerofinder.rescan_rs_evals"] = (rs - grid, "count")
    m["zerofinder.rs_evals_per_zero"] = (rs / zeros if zeros else 0.0, "count/zero")
    m["zerofinder.em_evals_per_zero"] = (
        em_scan / zeros if zeros else 0.0, "count/zero")

    dh = tr.points["zetaeval.davenport_heilbronn"]
    hurwitz = tr.points["zetaeval.hurwitz_zeta"]
    boxes = len(inputs) if workload == "dh-winding" else 0
    m["zetaeval.hurwitz_per_dh"] = (hurwitz / dh if dh else 0.0, "count/call")
    m["zerofinder.contour_evals_per_box"] = (dh / boxes if boxes else 0.0,
                                             "count/box")
    m["zerofinder.subdivision_evals"] = (
        dh - boxes * (4 * n_per_side + 1), "count")
    return m


def structure_checks(tr: Tracer, workload: str, inputs: list,
                     rs_per_task: list[int], step: float) -> dict[str, bool]:
    """Invariants every traced run must meet, by description.

    rs_per_task holds the RS evaluation points each task made.
    """
    checks = {
        f"{name} recorded calls": tr.calls[name] > 0
        for name in EXPECTED_SPANS[workload]
    }
    if workload.startswith("zeros"):
        checks["RS evaluations per task >= main grid points"] = all(
            rs >= scan_grid_size(iv, step)
            for iv, rs in zip(inputs, rs_per_task))
    return checks
