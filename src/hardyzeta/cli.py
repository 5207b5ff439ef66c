"""Command-line surface.

Subcommands: theta, z, gz, spiral, gram, ortho, polyfit, zeros, lehmer,
dh-scan, report.  Data goes to stdout (or --out), diagnostics to stderr.
Exit codes: 0 success, 1 usage error, 2 numeric/domain error.

Any value may start with a minus sign (--t -1e3, --box -1:2:80:90,
--t -inf, --sigmas -nan,0.5).
Separated values are read by one grammar: an interval or a box takes
exactly 2 or 4 numbers split by ":", a list takes any number split by
",", empty items skipped.  theta, z and gz print through one emitter;
the JSON of gram, polyfit, zeros and lehmer rounds every computed float
to 12 significant digits and echoes the arguments verbatim.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import hilbert, polyzero, zerofinder
from .errors import DomainError, NumericsError
from .output import (
    emit_spiral_svg,
    format_sig,
    sig,
    spiral_csv,
    write_spiral_csv,
)
from .report import FAMILY_ORDER, render_summary, report_json, run_report
from .specialfn import theta, theta_asymptotic
from .zetaeval import (
    davenport_heilbronn,
    dirichlet_partial_sums,
    generalized_hardy,
    hardy_z_rs,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No flag of this tool starts with "-" and a digit or "-." and a
        # digit, or with -inf, -infinity or -nan alone or before ":" or
        # ",", so such an argument is a value: --t -1e3, --sigmas
        # -0.5,0.3, --t -inf, --sigmas -nan,0.5, --interval -inf:20.
        # argparse's own pattern takes only -5 and -.5 forms.
        self._negative_number_matcher = re.compile(
            r"^-(\.?\d|(inf|infinity|nan)([:,]|$))", re.IGNORECASE)

    # argparse exits 2 on usage errors by default; this tool reserves 2
    # for numeric failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _separated(kind: type, sep: str, count: int | None = None,
               build=list):
    """argparse type for `sep`-separated `kind` values, passed to `build`
    as a list: exactly `count` of them, or any number with empty items
    skipped when `count` is None."""

    def parse(text: str):
        parts = text.split(sep)
        try:
            if count is None:
                parts = [p for p in parts if p.strip() != ""]
            elif len(parts) != count:
                raise ValueError(f"{len(parts)} found")
            return build([kind(p) for p in parts])
        except (ValueError, NumericsError) as exc:
            raise argparse.ArgumentTypeError(
                f"expected {count or 'a list of'} {kind.__name__}s separated "
                f"by {sep!r}, got {text!r} ({exc})") from exc

    return parse


_INTERVAL = _separated(float, ":", 2, lambda ab: hilbert.Interval(*ab))
_BOX = _separated(float, ":", 4, tuple)
_FLOATS = _separated(float, ",")
_INTS = _separated(int, ",")


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of plain text")


def _add_out(p: argparse.ArgumentParser,
             help: str = "write the output to this path instead of "
                         "stdout") -> None:
    p.add_argument("--out", type=str, default=None, help=help)


def _add_order(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, default=None,
                   help="Gauss-Legendre order for inner products (default "
                        f"the larger of {FAMILY_ORDER} and the interval's "
                        "oscillation order)")


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the flags it reads; the root parser
    # takes none but the subcommand.
    parser = _Parser(prog="hardyzeta",
                     description="Critical-line numerics toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", help="Riemann-Siegel theta phase")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--mode", choices=["exact", "asym"], default="exact",
                   help="exact: log-gamma form, any finite t; asym: six-term "
                        "asymptotic form, 2*pi <= t <= 1e50 (default exact)")
    _add_json(p)
    _add_out(p)

    p = sub.add_parser("z", help="Hardy Z(t)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", choices=["rs", "em"], default="rs")
    _add_json(p)
    _add_out(p)

    p = sub.add_parser("gz", help="generalized Hardy Z(sigma, t)")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    _add_json(p)
    _add_out(p)

    p = sub.add_parser("spiral", help="Dirichlet partial-sum spiral")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--svg", type=str, default=None)
    p.add_argument("--csv", type=str, default=None,
                   help="write the CSV to this path instead of stdout")

    p = sub.add_parser("gram", help="conditioning of a Z(sigma,.) family")
    p.add_argument("--sigmas", type=_FLOATS, required=True)
    p.add_argument("--interval", type=_INTERVAL, required=True)
    _add_order(p)
    _add_out(p)

    p = sub.add_parser("ortho", help="orthogonalize a Z(sigma,.) family")
    p.add_argument("--sigmas", type=_FLOATS, required=True)
    p.add_argument("--interval", type=_INTERVAL, required=True)
    _add_order(p)
    p.add_argument("--out", type=str, required=True, metavar="PREFIX",
                   help="write the CSV to PREFIX.csv")

    p = sub.add_parser("polyfit", help="polynomial zero-convergence study")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--interval", type=_INTERVAL, required=True)
    p.add_argument("--degrees", type=_INTS, required=True)
    _add_out(p)

    p = sub.add_parser("zeros", help="scan and refine critical-line zeros")
    p.add_argument("--interval", type=_INTERVAL, required=True)
    _add_json(p)
    _add_out(p, help="write the JSON records to this path instead of "
                     "stdout")

    p = sub.add_parser("lehmer", help="close-pair scan")
    p.add_argument("--interval", type=_INTERVAL, required=True)
    p.add_argument("--threshold", type=float, default=0.2)
    _add_out(p)

    p = sub.add_parser("dh-scan", help="off-line zero count for the "
                                       "Davenport-Heilbronn function")
    p.add_argument("--box", type=_BOX, required=True)
    p.add_argument("--n-per-side", type=int, default=256)
    _add_out(p)

    p = sub.add_parser("report", help="run the full verification suite")
    _add_out(p, help="write the report JSON to this path; the summary "
                     "then goes to stdout")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_values(args, echo: tuple[str, ...], **values: float) -> int:
    """The values at 15 significant digits: as JSON after the echoed
    arguments, or alone, space-separated."""
    if args.json:
        text = json.dumps({**{k: getattr(args, k) for k in echo},
                           **{k: sig(v, 15) for k, v in values.items()}})
    else:
        text = " ".join(format_sig(v) for v in values.values())
    _emit(text, args.out)
    return EXIT_OK


def _cmd_theta(args) -> int:
    value = (theta if args.mode == "exact" else theta_asymptotic)(args.t)
    return _emit_values(args, ("t", "mode"), theta=value)


def _cmd_z(args) -> int:
    if args.method == "rs":
        value = hardy_z_rs(args.t)
    else:
        value = generalized_hardy(0.5, args.t).z
    return _emit_values(args, ("t", "method"), z=value)


def _cmd_gz(args) -> int:
    v = generalized_hardy(args.sigma, args.t)
    return _emit_values(args, ("sigma", "t"), z=v.z, y=v.y)


def _cmd_spiral(args) -> int:
    path = dirichlet_partial_sums(complex(args.sigma, args.t), args.n)
    # The SVG goes first: it refuses a path of one partial sum, and then
    # no file is written.
    if args.svg:
        emit_spiral_svg(path, args.svg)
    if args.csv:
        write_spiral_csv(path, args.csv)
    wrote = [name for name in (args.csv, args.svg) if name]
    if wrote:
        print("wrote " + ", ".join(wrote), file=sys.stderr)
    else:
        _emit(spiral_csv(path), None)
    return EXIT_OK


def _sig12(value):
    """A computed JSON value with every float, at any depth, rounded to
    12 significant digits; ints and bools stay as they are."""
    if isinstance(value, dict):
        return {k: _sig12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_sig12(v) for v in value]
    return sig(value) if isinstance(value, float) else value


def _family_order(args) -> int:
    """args.order, or by default the larger of FAMILY_ORDER and the
    interval's oscillation order; a default above MAX_QUAD_ORDER is
    refused as --order's, though no order was given."""
    if args.order is not None:
        return args.order
    order = max(FAMILY_ORDER, hilbert.oscillation_order(args.interval))
    if order > hilbert.MAX_QUAD_ORDER:
        raise DomainError(
            f"--order defaults to {order}, the larger of {FAMILY_ORDER} and "
            f"the oscillation order of [{args.interval.a:g}, "
            f"{args.interval.b:g}], above MAX_QUAD_ORDER = "
            f"{hilbert.MAX_QUAD_ORDER}; give --order or a narrower interval")
    return order


def _cmd_gram(args) -> int:
    order = _family_order(args)
    rep = hilbert.independence_report(args.sigmas, args.interval, order)
    payload = {
        "sigmas": args.sigmas,
        "interval": [args.interval.a, args.interval.b],
        "order": order,
        **_sig12({
            "determinant": rep.correlation_det,
            "eigenvalues": np.linalg.eigvalsh(rep.correlations),
            "min_eigenvalue": rep.min_eigenvalue,
            "correlations": rep.correlations,
            "gram": rep.gram.entries,
        }),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_ortho(args) -> int:
    order = _family_order(args)
    rule = hilbert.gauss_legendre_rule(order, args.interval)
    family = [hilbert.hardy_function(s) for s in args.sigmas]
    outs = hilbert.gram_schmidt(family, rule)
    samples = hilbert._sample_all(outs, rule.nodes)
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


def _cmd_polyfit(args) -> int:
    f = hilbert.hardy_function(args.sigma)
    studies = polyzero.zero_convergence_study(f, args.interval, args.degrees)
    payload = [{"degree": c.degree, "l2_error": c.l2_error,
                "max_deviation": c.max_deviation, "pairs": c.matched_pairs}
               for c in studies]
    _emit(json.dumps(_sig12(payload), indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_zeros(args) -> int:
    records = zerofinder.find_critical_zeros(args.interval)
    if args.json or args.out:
        payload = _sig12([dataclasses.asdict(r) for r in records])
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        for r in records:
            _emit(format_sig(r.location, 12), None)
    return EXIT_OK


def _cmd_lehmer(args) -> int:
    pairs = zerofinder.lehmer_scan(args.interval, threshold=args.threshold)
    payload = _sig12([dataclasses.asdict(p) for p in pairs])
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_dh_scan(args) -> int:
    count = zerofinder.argument_principle_count(
        davenport_heilbronn, args.box, n_per_side=args.n_per_side)
    payload = {"box": list(args.box), "n_per_side": args.n_per_side,
               "count": count}
    _emit(json.dumps(payload, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    entries = run_report()
    _emit(report_json(entries), args.out)
    print(render_summary(entries), file=sys.stdout if args.out else sys.stderr)
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (NumericsError, OSError) as exc:
        print(f"hardyzeta: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
