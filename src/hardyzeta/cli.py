"""Command-line surface.

Subcommands: theta, z, gz, spiral, gram, ortho, polyfit, zeros, lehmer,
dh-scan, report.  Data goes to stdout (or --out), diagnostics to stderr.
Exit codes: 0 success, 1 usage error, 2 numeric/domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import hilbert, polyzero, zerofinder
from .errors import NumericsError
from .output import (
    emit_spiral_svg,
    format_sig,
    sig,
    spiral_csv,
    write_spiral_csv,
)
from .report import RunConfig, render_summary, report_json, run_report
from .specialfn import theta, theta_asymptotic
from .zetaeval import (
    EvalConfig,
    davenport_heilbronn,
    dirichlet_partial_sums,
    generalized_hardy,
    hardy_z_rs,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

_GLOBAL_DEFAULTS = {"em_terms": None, "quad_order": 256, "json": False,
                   "out": None}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2
    # for numeric failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _interval_arg(text: str) -> hilbert.Interval:
    try:
        a, b = (float(p) for p in text.split(":"))
        return hilbert.Interval(a, b)
    except (ValueError, NumericsError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected an interval like 10:50, got {text!r} ({exc})"
        ) from exc


def _list_arg(kind: type, what: str):
    """argparse type for a comma-separated list of `kind` values."""

    def parse(text: str) -> list:
        try:
            return [kind(p) for p in text.split(",") if p.strip() != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            ) from exc

    return parse


def _box_arg(text: str) -> tuple[float, float, float, float]:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected a box like 0.51:1:80:90, got {text!r}"
        )
    try:
        s1, s2, t1, t2 = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad box {text!r}: {exc}") from exc
    return s1, s2, t1, t2


def build_parser() -> argparse.ArgumentParser:
    # The root parser and every subparser take the global flags from
    # `common`.  SUPPRESS keeps a subparser from clobbering a value given
    # before it; main supplies _GLOBAL_DEFAULTS for flags given nowhere.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--em-terms", type=int, default=argparse.SUPPRESS,
                        help="Euler-Maclaurin cutoff N (default: adaptive)")
    common.add_argument("--quad-order", type=int, default=argparse.SUPPRESS,
                        help="Gauss-Legendre order for inner products "
                             "(default 256)")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit JSON instead of plain text")
    common.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="write primary output to this path "
                             "(path prefix for ortho)")
    parser = _Parser(prog="hardyzeta", parents=[common],
                     description="Critical-line numerics toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", parents=[common],
                       help="Riemann-Siegel theta phase")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--mode", choices=["exact", "asym"], default="exact",
                   help="exact: log-gamma form, any finite t; asym: six-term "
                        "asymptotic form, 2*pi <= t <= 1e50 (default exact)")

    p = sub.add_parser("z", parents=[common], help="Hardy Z(t)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", choices=["rs", "em"], default="rs")

    p = sub.add_parser("gz", parents=[common],
                       help="generalized Hardy Z(sigma, t)")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("spiral", parents=[common],
                       help="Dirichlet partial-sum spiral")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--svg", type=str, default=None)
    p.add_argument("--csv", type=str, default=None)

    p = sub.add_parser("gram", parents=[common],
                       help="conditioning of a Z(sigma,.) family")
    p.add_argument("--sigmas", type=_list_arg(float, "numbers"),
                   required=True)
    p.add_argument("--interval", type=_interval_arg, required=True)
    p.add_argument("--order", type=int, default=None)

    p = sub.add_parser("ortho", parents=[common],
                       help="orthogonalize a Z(sigma,.) family "
                            "(--out gives the CSV path prefix)")
    p.add_argument("--sigmas", type=_list_arg(float, "numbers"),
                   required=True)
    p.add_argument("--interval", type=_interval_arg, required=True)
    p.add_argument("--order", type=int, default=None)

    p = sub.add_parser("polyfit", parents=[common],
                       help="polynomial zero-convergence study")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--interval", type=_interval_arg, required=True)
    p.add_argument("--degrees", type=_list_arg(int, "integers"),
                   required=True)

    step_help = ("grid step of the sign-change scan (default 0.01); at most "
                 f"{zerofinder.MAX_SCAN_STEP:g}, below the smallest zero gap "
                 "up to t = 1e4")
    p = sub.add_parser("zeros", parents=[common],
                       help="scan and refine critical-line zeros")
    p.add_argument("--interval", type=_interval_arg, required=True)
    p.add_argument("--step", type=float, default=0.01, help=step_help)

    p = sub.add_parser("lehmer", parents=[common], help="close-pair scan")
    p.add_argument("--interval", type=_interval_arg, required=True)
    p.add_argument("--threshold", type=float, default=0.2)
    p.add_argument("--step", type=float, default=0.01, help=step_help)

    p = sub.add_parser("dh-scan", parents=[common],
                       help="off-line zero count for the "
                            "Davenport-Heilbronn function")
    p.add_argument("--box", type=_box_arg, required=True)
    p.add_argument("--n-per-side", type=int, default=256)

    p = sub.add_parser("report", parents=[common],
                       help="run the full verification suite")
    p.add_argument("--interval", type=_interval_arg, default=None)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_theta(args, cfg) -> int:
    value = (theta if args.mode == "exact" else theta_asymptotic)(args.t)
    if args.json:
        _emit(json.dumps({"t": args.t, "mode": args.mode,
                          "theta": sig(value, 15)}), args.out)
    else:
        _emit(format_sig(value), args.out)
    return EXIT_OK


def _cmd_z(args, cfg) -> int:
    if args.method == "rs":
        value = hardy_z_rs(args.t)
    else:
        value = generalized_hardy(0.5, args.t, cfg).z
    if args.json:
        _emit(json.dumps({"t": args.t, "method": args.method,
                          "z": sig(value, 15)}), args.out)
    else:
        _emit(format_sig(value), args.out)
    return EXIT_OK


def _cmd_gz(args, cfg) -> int:
    v = generalized_hardy(args.sigma, args.t, cfg)
    if args.json:
        _emit(json.dumps({"sigma": args.sigma, "t": args.t,
                          "z": sig(v.z, 15), "y": sig(v.y, 15)}), args.out)
    else:
        _emit(f"{format_sig(v.z)} {format_sig(v.y)}", args.out)
    return EXIT_OK


def _cmd_spiral(args, cfg) -> int:
    path = dirichlet_partial_sums(complex(args.sigma, args.t), args.n)
    wrote = []
    if args.csv:
        write_spiral_csv(path, args.csv)
        wrote.append(args.csv)
    if args.svg:
        emit_spiral_svg(path, args.svg)
        wrote.append(args.svg)
    if wrote:
        print("wrote " + ", ".join(wrote), file=sys.stderr)
    else:
        _emit(spiral_csv(path), args.out)
    return EXIT_OK


def _family_order(args) -> int:
    order = args.order if args.order is not None else max(
        args.quad_order, hilbert.oscillation_order(args.interval)
    )
    return order


def _cmd_gram(args, cfg) -> int:
    order = _family_order(args)
    rep = hilbert.independence_report(args.sigmas, args.interval, order, cfg)
    eigenvalues = np.linalg.eigvalsh(rep.correlations)
    payload = {
        "sigmas": args.sigmas,
        "interval": [args.interval.a, args.interval.b],
        "order": order,
        "determinant": sig(rep.correlation_det),
        "eigenvalues": [sig(float(v)) for v in eigenvalues],
        "min_eigenvalue": sig(rep.min_eigenvalue),
        "correlations": [[sig(float(c)) for c in row]
                         for row in rep.correlations],
        "gram": [[sig(float(g)) for g in row] for row in rep.gram.entries],
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_ortho(args, cfg) -> int:
    if not args.out:
        print("hardyzeta ortho: --out PREFIX is required", file=sys.stderr)
        return EXIT_USAGE
    order = _family_order(args)
    rule = hilbert.gauss_legendre_rule(order, args.interval)
    family = [hilbert.hardy_function(s, cfg) for s in args.sigmas]
    outs = hilbert.gram_schmidt(family, rule)
    samples = [g.sample(rule.nodes) for g in outs]
    header = "t," + ",".join(f"g{i + 1}" for i in range(len(outs)))
    lines = [header]
    for j, t in enumerate(rule.nodes):
        row = [format_sig(float(t))] + [format_sig(float(s[j]))
                                        for s in samples]
        lines.append(",".join(row))
    out_path = f"{args.out}.csv"
    Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_polyfit(args, cfg) -> int:
    f = hilbert.hardy_function(args.sigma, cfg)
    studies = polyzero.zero_convergence_study(f, args.interval, args.degrees)
    payload = []
    for comp in studies:
        payload.append({
            "degree": comp.degree,
            "l2_error": sig(comp.l2_error),
            "max_deviation": sig(comp.max_deviation),
            "pairs": [[sig(a), sig(b), sig(d)]
                      for a, b, d in comp.matched_pairs],
        })
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_zeros(args, cfg) -> int:
    records = zerofinder.find_critical_zeros(args.interval, step=args.step,
                                             cfg=cfg)
    if args.json or args.out:
        payload = [
            {
                "location": sig(r.location),
                "bracket": [sig(r.bracket[0]), sig(r.bracket[1])],
                "derivative": sig(r.derivative),
                "simple": r.simple,
                "residual": sig(r.residual),
            }
            for r in records
        ]
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        for r in records:
            _emit(format_sig(r.location, 12), None)
    return EXIT_OK


def _cmd_lehmer(args, cfg) -> int:
    pairs = zerofinder.lehmer_scan(args.interval, threshold=args.threshold,
                                   step=args.step, cfg=cfg)
    payload = [
        {
            "t_low": sig(p.t_low),
            "t_high": sig(p.t_high),
            "normalized_gap": sig(p.normalized_gap),
            "min_between": sig(p.min_between),
        }
        for p in pairs
    ]
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_dh_scan(args, cfg) -> int:
    count = zerofinder.argument_principle_count(
        partial(davenport_heilbronn, cfg=cfg), args.box,
        n_per_side=args.n_per_side)
    payload = {"box": list(args.box), "n_per_side": args.n_per_side,
               "count": count}
    _emit(json.dumps(payload, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_report(args, cfg) -> int:
    interval = args.interval or hilbert.Interval(*RunConfig.interval)
    config = RunConfig(
        evaluation=cfg,
        quad_order=args.quad_order,
        interval=(interval.a, interval.b),
    )
    entries = run_report(config)
    text = report_json(config, entries)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        sys.stdout.write(render_summary(entries) + "\n")
    else:
        sys.stdout.write(text)
        print(render_summary(entries), file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "theta": _cmd_theta,
    "z": _cmd_z,
    "gz": _cmd_gz,
    "spiral": _cmd_spiral,
    "gram": _cmd_gram,
    "ortho": _cmd_ortho,
    "polyfit": _cmd_polyfit,
    "zeros": _cmd_zeros,
    "lehmer": _cmd_lehmer,
    "dh-scan": _cmd_dh_scan,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv, argparse.Namespace(**_GLOBAL_DEFAULTS))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = EvalConfig(em_terms=args.em_terms)
        return _COMMANDS[args.command](args, cfg)
    except (NumericsError, OSError) as exc:
        print(f"hardyzeta: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
