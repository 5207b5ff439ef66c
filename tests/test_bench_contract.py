"""The benchmark's tracer still sees every layer of the package.

perfbench/ wraps package functions at the bindings their callers resolve;
a refactor that bypasses one of them makes the traced benchmark run fail
its structure checks.  This runs the first seed-101 input of each
workload under the tracer and asserts those checks.  The perfbench
modules are imported by path and only read (not oracle.py, so mpmath is
not needed).
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
