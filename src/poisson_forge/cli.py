"""The poisson-forge command line.

Subcommands:
  verify all|jacobi|casimir|pdda|pullback|pl2|quotient|localization|
         torus|derivations|centre|grading   run verification suites
  bracket EXPR EXPR [--algebra FILE]        evaluate a Poisson bracket
  nf EXPR [--alpha V] [--beta V]            quotient normal form
  decompose --file SPEC.json                torus derivation decomposition
  eta                                       the eta scalars of the chain
  chain                                     dump the change of variables

Exit codes: 0 when every requested check passes, 1 on any failing check,
2 on usage, file or expression errors.  Every error in outside input (an
option value, an expression, a file) is an ``ExprError``; both JSON files
are read through ``g2.read_object``, which refuses a field it does not
know.  Each command renders each result polynomial to text once and
builds its text and JSON views from those strings.  The argument parser
is built once per process, on the first call of ``main``; each call then
runs the handler ``_cmd_<command>`` of the subcommand it names.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import g2
from .chain import builtin_chain
from .expr import ExprError, ProductBudget, rational
from .parse import parse_expr
from .poisson import DerivationSpec, EtaError
from .quotient import QuotientRing
from .report import Report
from .suites import DEFAULT_SEED, SUITE_NAMES, run_suites
from .torus import TorusStructure, decompose_derivation


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors, like every other error of
    the command line, print ``error: ...`` first."""

    def error(self, message):
        # a subcommand's parser is named "poisson-forge <command>"
        if ("arguments are required" in message
                and self.prog.rpartition(" ")[2] in ("nf", "bracket")):
            # argparse reads an expression such as -x1 as an option, and
            # then misses the expression
            message += ("; put '--' before an expression that starts with"
                        " '-', as in: nf -- -x1")
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def _parameter_value(raw: str, which: str) -> str | Fraction:
    aliases = {"symbolic", "sym", which, which[0]}
    if raw.lower() in aliases:
        return "symbolic"
    try:
        return rational(raw)
    except ExprError:
        raise ExprError(
            f"--{which} expects 'symbolic' or a rational, got {raw!r}") from None


def _emit_reports(reports: list[Report], fmt: str, out) -> int:
    if fmt == "json":
        payload = {"ok": all(r.ok for r in reports),
                   "suites": [r.to_dict() for r in reports]}
        print(json.dumps(payload, indent=2), file=out)
    else:
        for report in reports:
            print(report.render_text(), file=out)
        verdict = "PASS" if all(r.ok for r in reports) else "FAIL"
        print(f"overall: {verdict}", file=out)
    return 0 if all(r.ok for r in reports) else 1


def _emit_value(payload: dict, text: str, fmt: str, out) -> int:
    if fmt == "json":
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(text, file=out)
    return 0


def _cmd_verify(args, out) -> int:
    return _emit_reports(run_suites(args.suite, seed=args.seed), args.format, out)


def _cmd_bracket(args, out) -> int:
    # the file, both operands and the bracket share one budget
    budget = ProductBudget()
    builtin = g2.builtin_algebra()
    alg = g2.load_algebra(args.algebra, budget) if args.algebra else builtin
    f = parse_expr(args.left, alg.context, budget=budget)
    g = parse_expr(args.right, alg.context, budget=budget)
    # each term pair walks every term of the table: price a pair at the
    # table's terms (at least one) over the built-in table's
    terms = [sum(len(v.terms) for v in a.structure.table.values()) for a in (alg, builtin)]
    budget.charge(f, g, walks=Fraction(max(1, terms[0]), terms[1]))
    value = str(alg.structure.bracket(f, g))
    return _emit_value({"result": value}, value, args.format, out)


def _cmd_nf(args, out) -> int:
    # the localised basis also covers negative x5/x6 exponents
    ring = QuotientRing(alpha=_parameter_value(args.alpha, "alpha"),
                        beta=_parameter_value(args.beta, "beta"),
                        localized=True)
    value = str(ring.normal_form(args.expr))
    return _emit_value({"result": value}, value, args.format, out)


def _cmd_decompose(args, out) -> int:
    spec = g2.read_object(args.file, "decomposition spec",
                          {"rank": int, "lambda": list, "images": dict}, {})
    torus = TorusStructure.make(spec["lambda"])
    if torus.rank != spec["rank"]:
        raise ExprError("rank does not match the lambda matrix")
    ctx = torus.context
    # the images share one budget
    budget = ProductBudget()
    images = {name: parse_expr(text, ctx, budget=budget)
              for name, text in spec["images"].items()}
    dec = decompose_derivation(DerivationSpec(ctx, images), torus)
    gamma = str(dec.gamma)
    theta = {name: str(img) for name, img in sorted(dec.theta_images.items())}
    text = [f"gamma = {gamma}",
            *(f"theta({name}) = {img}" for name, img in theta.items())]
    return _emit_value({"gamma": gamma, "theta": theta}, "\n".join(text),
                       args.format, out)


def _cmd_eta(args, out) -> int:
    ore = g2.builtin_algebra().ore
    values: dict[str, str | None] = {}
    for i in range(1, 6):
        try:
            values[str(i + 1)] = str(ore.eta(i))
        except EtaError:
            values[str(i + 1)] = None
    text = "\n".join(f"eta{k}: {v if v is not None else 'undefined'}"
                     for k, v in values.items())
    return _emit_value({"eta": values}, text, args.format, out)


def _cmd_chain(args, out) -> int:
    stages = builtin_chain()
    lines = []
    for level in range(6, 1, -1):
        for i in range(1, 7):
            lines.append(f"X[{i},{level}] = {stages[level].gen(i)}")
    for i in range(1, 7):
        lines.append(f"T{i} = {stages[2].gen(i)}")
    payload = {"chain": lines}
    return _emit_value(payload, "\n".join(lines), args.format, out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process on first use.
    Parsing leaves it unchanged, so every call shares it."""
    parser = _ArgumentParser(
        prog="poisson-forge",
        description="Exact verification toolkit for the built-in Poisson"
                    " algebra, its deleting-derivations chain and its"
                    " normal-form quotient.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", nargs="+", choices=["all"] + SUITE_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for the randomized torus suite")
    add_format(p)

    p = sub.add_parser("bracket", help="evaluate a Poisson bracket")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--algebra", help="algebra definition JSON file")
    add_format(p)

    p = sub.add_parser("nf", help="quotient normal form of an expression")
    p.add_argument("expr")
    p.add_argument("--alpha", default="symbolic")
    p.add_argument("--beta", default="symbolic")
    add_format(p)

    p = sub.add_parser("decompose",
                       help="decompose a torus derivation (inner + central)")
    p.add_argument("--file", required=True)
    add_format(p)

    p = sub.add_parser("eta", help="print the eta scalars")
    add_format(p)

    p = sub.add_parser("chain", help="dump the change-of-variables chain")
    add_format(p)
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # the handler of a command is looked up on each call, by name, so
        # the cached parser holds no function
        return globals()[f"_cmd_{args.command}"](args, out)
    except (ExprError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
