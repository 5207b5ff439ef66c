"""The benchmark's tracer still sees every layer of the package.

perfbench/ wraps package functions at the bindings their callers resolve;
a refactor that bypasses one of them makes the traced benchmark run fail
its structure checks.  This runs the first seed-101 input of each
workload under the tracer and asserts those checks, and counts the
Euler-Maclaurin work of the zeros workloads' first passes.  The
perfbench modules are imported by path and only read (not oracle.py, so
mpmath is not needed).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 101


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered first: dataclasses look their module up while building.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_every_binding_exists():
    for name, bindings in tracing.BINDINGS.items():
        for owner, attr in bindings:
            assert hasattr(owner, attr), f"{name}: {owner.__name__}.{attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_input_passes_structure_checks(name):
    wl = workloads.WORKLOADS[name]
    x = workloads.first_pass(wl, SEED)[0]
    tracer = tracing.Tracer()
    with tracer.installed():
        wl.run(x)
    rs = tracer.points["zetaeval.hardy_z_rs"]
    checks = tracing.structure_checks(tracer, name, [x], [rs],
                                      workloads.ZERO_STEP)
    assert checks and all(checks.values()), checks


@pytest.mark.parametrize("name,zeros,plain,jets", [
    ("zeros-high", 289, 678, 295), ("zeros-low", 367, 840, 396)])
def test_one_jet_a_zero_on_the_first_pass(em_work, name, zeros, plain,
                                          jets):
    # Exact counts of the scalar Euler-Maclaurin sums over the 50 tasks
    # of the seed-101 first pass.  Newton starts at the root of the
    # scan's Riemann-Siegel interpolant, shifted onto the
    # Euler-Maclaurin bracket ends, and that start is within Newton's
    # stopping step of the root for nearly every zero: under 1.1 jets a
    # zero (2.67 and 2.48 from the secant root).  The plain sums are the
    # window ends and bracket ends, plus 6 span retries on zeros-low.
    wl = workloads.WORKLOADS[name]
    xs = workloads.first_pass(wl, SEED)
    got, work = em_work(lambda: sum(wl.zeros(wl.run(x)) for x in xs))
    assert (got, work) == (zeros, (plain, jets))
    assert jets <= 1.1 * zeros
