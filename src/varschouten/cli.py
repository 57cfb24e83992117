"""Command-line front end.

Subcommands: euler, bracket, jacobi, trace, normalize, fuzz.  Densities are
given inline (or as @FILE to read from a file) in the plain text syntax; the
field context comes from --ctx FILE, defaulting to a single even field q with
antifield p on one independent coordinate x.  Exit status: 0 on success (and
verified identities), 1 when a checked identity fails, 2 on usage or parse
errors, 3 on an internal error (a fault of the program, not of the input).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields

from .calculus import euler, is_exact
from .functional import Functional
from .fuzz import FuzzParams, run_fuzz
from .schouten import jacobi_defect, schouten_bracket
from .textio import (
    _dumps,
    density_to_json,
    format_density,
    format_trace_report,
    parse_context,
    parse_density,
)
from .trace import expand_trace

DEFAULT_CONTEXT = "indep x\nfield q even antifield p\n"


def _read_arg(value: str) -> str:
    if value.startswith("@"):
        with open(value[1:], encoding="utf-8") as fh:
            return fh.read()
    return value


def _context(args) -> "FieldContext":
    if args.ctx:
        with open(args.ctx, encoding="utf-8") as fh:
            return parse_context(fh.read())
    return parse_context(DEFAULT_CONTEXT)


def _functionals(args, ctx, names):
    return [
        Functional(parse_density(_read_arg(getattr(args, name)), ctx), name)
        for name in names
    ]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varschouten",
        description=(
            "Exact variational calculus on Z2-graded jet spaces: directed "
            "Euler operators, variational Schouten brackets, and term-by-term "
            "verification of the shifted-graded Jacobi identity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, formats=("plain", "json", "latex")):
        p.set_defaults(run=run)
        p.add_argument(
            "--ctx",
            metavar="FILE",
            help="context file (default: 'indep x' with one even field q, antifield p)",
        )
        p.add_argument("--format", choices=formats, default="plain", help="output format")

    p_euler = sub.add_parser("euler", help="apply a directed Euler operator to a density")
    p_euler.add_argument("--density", required=True, help="density expression (or @FILE)")
    p_euler.add_argument("--wrt", required=True, metavar="NAME", help="field or antifield name")
    p_euler.add_argument("--side", choices=("left", "right"), default="left")
    add_common(p_euler, _cmd_euler)

    p_bracket = sub.add_parser("bracket", help="variational Schouten bracket of two functionals")
    p_bracket.add_argument("--F", required=True, help="first density (or @FILE)")
    p_bracket.add_argument("--G", required=True, help="second density (or @FILE)")
    add_common(p_bracket, _cmd_bracket)

    p_jacobi = sub.add_parser(
        "jacobi", help="Jacobi defect of three functionals (prints ZERO or NONZERO)"
    )
    for name in ("F", "G", "H"):
        p_jacobi.add_argument(f"--{name}", required=True, help=f"density {name} (or @FILE)")
    add_common(p_jacobi, _cmd_jacobi)

    p_trace = sub.add_parser(
        "trace", help="labeled term-by-term expansion of the Jacobi identity"
    )
    for name in ("F", "G", "H"):
        p_trace.add_argument(f"--{name}", required=True, help=f"density {name} (or @FILE)")
    add_common(p_trace, _cmd_trace, ("plain", "json"))

    p_norm = sub.add_parser("normalize", help="parse a density and print its canonical form")
    p_norm.add_argument("--density", required=True, help="density expression (or @FILE)")
    add_common(p_norm, _cmd_normalize)

    p_fuzz = sub.add_parser(
        "fuzz", help="randomized seeded verification of the bracket laws"
    )
    p_fuzz.add_argument("--seed", type=int, help="master seed (env VARSCHOUTEN_SEED overrides)")
    p_fuzz.add_argument("--count", type=int, help="number of trials")
    p_fuzz.add_argument("--max-jet-order", type=int)
    p_fuzz.add_argument("--max-degree", type=int)
    p_fuzz.add_argument("--max-monomials", type=int)
    p_fuzz.add_argument(
        "--no-funcs", dest="allow_funcs", action="store_false",
        help="restrict trials to differential polynomials",
    )
    p_fuzz.add_argument("--parity", choices=("even", "odd", "any"))
    p_fuzz.set_defaults(**asdict(FuzzParams()))
    add_common(p_fuzz, _cmd_fuzz, ("plain", "json"))

    return parser


def _cmd_euler(args, ctx) -> tuple[str, int]:
    e = parse_density(_read_arg(args.density), ctx)
    return format_density(euler(e, args.wrt, args.side), args.format), 0


def _cmd_bracket(args, ctx) -> tuple[str, int]:
    F, G = _functionals(args, ctx, ("F", "G"))
    return format_density(schouten_bracket(F, G).density, args.format), 0


def _cmd_jacobi(args, ctx) -> tuple[str, int]:
    F, G, H = _functionals(args, ctx, ("F", "G", "H"))
    defect = jacobi_defect(F, G, H).density
    verdict = "ZERO" if is_exact(defect) else "NONZERO"
    if args.format == "json":
        text = _dumps({"defect": density_to_json(defect), "verdict": verdict})
    else:
        text = f"{format_density(defect, args.format)}\n{verdict}"
    return text, 0 if verdict == "ZERO" else 1


def _cmd_trace(args, ctx) -> tuple[str, int]:
    report = expand_trace(*_functionals(args, ctx, ("F", "G", "H")))
    return format_trace_report(report, args.format), 0 if report.verdict == "verified" else 1


def _cmd_normalize(args, ctx) -> tuple[str, int]:
    return format_density(parse_density(_read_arg(args.density), ctx), args.format), 0


def _cmd_fuzz(args, ctx) -> tuple[str, int]:
    env = os.environ.get("VARSCHOUTEN_SEED")
    if env is not None:
        try:
            args.seed = int(env, 0)
        except ValueError:
            raise ValueError(f"VARSCHOUTEN_SEED must be an integer, got {env!r}") from None
    params = FuzzParams(**{f.name: getattr(args, f.name) for f in fields(FuzzParams)})
    report = run_fuzz(ctx, params)
    code = 0 if report["verified"] == report["trials"] else 1
    if args.format == "json":
        return _dumps(report), code
    lines = [
        f"{report['verified']}/{report['trials']} verified "
        f"({report['degenerate']} degenerate)"
    ]
    for failure in report["failures"]:
        lines.append(
            f"  trial {failure['index']} (seed {failure['seed']}): "
            f"residue {failure['residue']}"
        )
    return "\n".join(lines), code


def main(argv=None) -> int:
    """Parse argv, load the context, run the subcommand and print its text.

    The handler bound to the subcommand (`run`) returns (text, exit code);
    the context is read before any density.  A broken pipe on the print is
    an OSError, so it exits 2 like any other I/O or input error.
    """
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.run(args, _context(args))
        print(text)
        return code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means a defect, so a fault gets its own code
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
