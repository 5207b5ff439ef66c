"""hardyzeta benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload zeros-low --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its src/
directory, never from an installed copy.  Tasks run back to back in one
process on one thread: each starts when the previous returns.  After an
untimed warm-up task the loop runs for --seconds and at least MIN_TASKS
tasks, then an mpmath oracle checks a seeded subset of the outputs.

Times are rescaled to a steady machine speed.  A fixed reference loop,
which calls nothing in hardyzeta, runs between consecutive tasks; each
task's wall time is multiplied by REFERENCE_S over the mean of the
reference times measured just before and just after it.  On a shared
machine whose speed drifts by up to 2x for seconds at a time, this
keeps the figures steady where raw wall time follows the drift.  Raw
wall-time figures are printed in the report line as well.

--trace 0 prints the end-to-end metrics; --trace 1 replays the first
input pass untraced and then traced, and prints per-layer metrics.  The
next-to-last stdout line is a JSON report with every measured figure,
the oracle's findings and the environment; the last line is the result
object {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 only when the outputs are correct.
"""

from __future__ import annotations

import os

# One thread for every numeric library, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("zeros-low", "zeros-high", "dh-winding", "hilbert-study")

#: Fewest tasks per timed run, so that p90 has at least ten samples beyond it.
MIN_TASKS = 100

#: Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 5

#: Seconds the reference loop takes on an idle core of the machine the
#: benchmark was defined on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).
#: Rescaled times read as times on that machine when idle.
REFERENCE_S = 2.0e-3


def reference_loop() -> float:
    """Wall time of a fixed mix of the kinds of work hardyzeta's kernels
    do: interpreted math calls (the RS sum), and complex numpy power sums
    over short arrays (EM and Hurwitz at low t) and long ones (EM at
    high t)."""
    import numpy as np
    short = np.arange(1.0, 256.0)
    long = np.arange(1.0, 4001.0)
    s = complex(0.5, 123.25)
    start = time.perf_counter()
    acc = 0.0
    for k in range(1, 4000):
        acc += math.cos(0.37 * k - 1.3 * math.log(k)) / math.sqrt(k)
    for _ in range(40):
        acc += abs(complex(np.sum(short ** (-s))))
    for _ in range(2):
        acc += abs(complex(np.sum(long ** (-s))))
    return time.perf_counter() - start


def use_checkout_package() -> None:
    """Put the checkout's src/ first on sys.path, or exit non-zero."""
    if not (SRC / "hardyzeta" / "__init__.py").is_file():
        sys.exit(f"run.py: no hardyzeta package under {SRC}; "
                 "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Import hardyzeta and run one warm-up task: (seconds taken, median
    reference time measured right after)."""
    start = time.perf_counter()
    import hardyzeta  # noqa: F401
    import workloads
    wl = workloads.WORKLOADS[name]
    wl.run(workloads.warmup_input(wl, seed))
    elapsed = time.perf_counter() - start
    return elapsed, statistics.median(reference_loop() for _ in range(5))


def measure_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """setup_probe in SETUP_PROBES fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=120, check=True)
        setup, ref = proc.stdout.split()[-2:]
        probes.append((float(setup), float(ref)))
    return probes


def run_task(wl, x):
    """(output, None) or (None, error text); a failing task is counted,
    not fatal."""
    try:
        return wl.run(x), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def closed_loop(wl, stream, seconds: float, pass_size: int):
    """Run tasks for `seconds` and at least MIN_TASKS tasks, stopping at
    the end of an input pass so that every run covers each workload's
    range evenly.

    Returns inputs, outputs, raw and rescaled task times, task errors by
    index, and the wall time of the loop.
    """
    inputs, outputs, raw, scaled, errors = [], [], [], [], {}
    start = time.perf_counter()
    ref_before = reference_loop()
    while True:
        x = next(stream)
        t0 = time.perf_counter()
        out, err = run_task(wl, x)
        elapsed = time.perf_counter() - t0
        ref_after = reference_loop()
        if err is not None:
            errors[len(inputs)] = err
        inputs.append(x)
        outputs.append(out)
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_S / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
        wall = time.perf_counter() - start
        if (wall >= seconds and len(raw) >= MIN_TASKS
                and len(raw) % pass_size == 0):
            return inputs, outputs, raw, scaled, errors, wall


def percentiles_ms(times: list[float]) -> tuple[float, float]:
    """(p50, p90) in milliseconds."""
    return (1e3 * statistics.median(times),
            1e3 * statistics.quantiles(times, n=10)[8])


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def oracle_report(verdict) -> dict:
    return {
        "census_windows": verdict.census_windows,
        "zeros_checked": verdict.zeros_checked,
        "values_checked": verdict.values_checked,
        "failures": verdict.failures,
    }


def timed_run(wl, args, workloads) -> tuple[dict, dict]:
    probes = measure_setup(wl.name, args.seed)
    wl.run(workloads.warmup_input(wl, args.seed))
    inputs, outputs, raw, scaled, errors, wall = closed_loop(
        wl, workloads.inputs(wl, args.seed), args.seconds,
        workloads.PASS_SIZE)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracle  # mpmath loads after the peak memory is read
    verdict = oracle.check(wl.name, inputs, outputs,
                           random.Random(f"oracle:{wl.name}:{args.seed}"),
                           workloads.DH_N_PER_SIDE)
    failed = set(errors) | verdict.rejected
    n = len(raw)
    zeros = sum(wl.zeros(out) for out in outputs if out is not None)
    p50, p90 = percentiles_ms(scaled)
    raw_p50, raw_p90 = percentiles_ms(raw)
    setup = statistics.median(t * REFERENCE_S / ref for t, ref in probes)
    metrics = {
        "task_ms.p50": metric(p50, "ms"),
        "task_ms.p90": metric(p90, "ms"),
        "tasks_per_s": metric(n / sum(scaled), "1/s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    report = dict(metrics)
    report["failed_frac"] = metric(len(failed) / n, "frac")
    report["value_rel_err_max"] = metric(verdict.value_rel_err_max, "rel")
    if wl.name.startswith("zeros"):
        report["zeros_per_s"] = metric(zeros / sum(scaled), "1/s")
        report["census_deficit"] = metric(verdict.census_deficit, "count")
    if verdict.zero_err_max is not None:
        report["zero_err_max"] = metric(verdict.zero_err_max, "abs")
    info = {
        "tasks": n,
        "task_samples_beyond_p90": n - int(0.9 * n),
        "zeros_returned": zeros,
        "wall": {
            "loop_s": wall,
            "task_ms.p50": raw_p50,
            "task_ms.p90": raw_p90,
            "tasks_per_s": n / sum(raw),
            "setup_s": statistics.median(t for t, _ in probes),
            "setup_probes": probes,
        },
        "task_errors": {str(i): e for i, e in sorted(errors.items())},
        "oracle": oracle_report(verdict),
        "report": report,
    }
    result = {"correct": not failed, "attempted": n, "failed": len(failed),
              "metrics": metrics}
    return info, result


def traced_run(wl, args, workloads) -> tuple[dict, dict]:
    import oracle
    import tracing
    wl.run(workloads.warmup_input(wl, args.seed))
    inputs = workloads.first_pass(wl, args.seed)

    start = time.perf_counter()
    plain = [run_task(wl, x) for x in inputs]
    plain_s = time.perf_counter() - start

    tracer = tracing.Tracer()
    traced, rs_per_task = [], []
    with tracer.installed():
        start = time.perf_counter()
        for x in inputs:
            before = tracer.points["zetaeval.hardy_z_rs"]
            traced.append(run_task(wl, x))
            rs_per_task.append(tracer.points["zetaeval.hardy_z_rs"] - before)
        traced_s = time.perf_counter() - start

    outputs = [out for out, _ in plain]
    errors = {i: err for i, (_, err) in enumerate(plain) if err is not None}
    identical = all(
        (a is None) == (b is None)
        and (a is None or wl.fingerprint(a) == wl.fingerprint(b))
        for (a, _), (b, _) in zip(plain, traced))
    checks = tracing.structure_checks(tracer, wl.name, inputs, rs_per_task,
                                      workloads.ZERO_STEP)
    checks["traced outputs identical to untraced"] = identical

    layers = tracing.layer_metrics(tracer, wl.name, inputs, outputs,
                                   workloads.DH_N_PER_SIDE, workloads.ZERO_STEP)
    rng = random.Random(f"oracle:{wl.name}:{args.seed}")
    layers.update(oracle.kernel_errors(tracer.records, rng))
    layers["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    verdict = oracle.check(wl.name, inputs, outputs, rng,
                           workloads.DH_N_PER_SIDE)

    # Pinned at the commit that defined the benchmark, to show the tracer
    # sees both L-function sums; reported, not enforced, so a change that
    # removes the duplicate Hurwitz work is not blocked by it.
    pinned = {}
    if wl.name == "dh-winding":
        pinned["zetaeval.hurwitz_per_dh == 8.0"] = (
            layers["zetaeval.hurwitz_per_dh"][0] == 8.0)

    failed = set(errors) | verdict.rejected
    correct = not failed and all(checks.values())
    info = {
        "tasks": len(inputs),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "structure_checks": checks,
        "pinned_structure": pinned,
        "task_errors": {str(i): e for i, e in sorted(errors.items())},
        "oracle": oracle_report(verdict),
    }
    result = {"correct": correct, "attempted": len(inputs),
              "failed": len(failed),
              "metrics": {k: metric(v, u) for k, (v, u) in layers.items()}}
    return info, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    use_checkout_package()
    if args.setup_probe:
        print(*setup_probe(args.workload, args.seed))
        return 0

    import hardyzeta
    if not Path(hardyzeta.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"run.py: imported hardyzeta from {hardyzeta.__file__}, "
                 f"not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    info, result = run(wl, args, workloads)
    env = environment()
    env["mpmath"] = sys.modules["mpmath"].__version__
    info = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, one client, one thread",
        "inputs_sha256": workloads.digest(workloads.first_pass(wl, args.seed)),
        **info,
        "env": env,
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
