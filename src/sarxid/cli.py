"""Command-line front end for the switched ARX analyses.

Every subcommand reads JSON files, runs one analysis, and returns a report
and whether its verdict is affirmative.  `main` alone prints the report, as
JSON (the contract format) or as an indented text rendering of the same
data, and turns the verdict into the exit code: 0 affirmative, 1 negative
or inconclusive, 2 for an `InputError`.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .identifiability import (
    PolyParametrization,
    genericity_witness,
    injectivity_probe,
    procedure1,
)
from .lss import Lss, associated_lss, find_isomorphisms, simulate_lss
from .minimality import check_strong_minimality, sarx_minimality_sufficient
from .rationals import InputError, format_rational
from .sarx import HybridWord, SarxModel, simulate_sarx


def _render_text(value, out, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                out.append("%s%s:" % (pad, k))
                _render_text(v, out, indent + 1)
            else:
                out.append("%s%s: %s" % (pad, k, v))
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                out.append("%s-" % pad)
                _render_text(v, out, indent + 1)
            else:
                out.append("%s- %s" % (pad, v))
    return out


def cmd_check_min(args):
    verdict = check_strong_minimality(SarxModel.load(args.model), method=args.method)
    return verdict.to_json_dict(), verdict.strong_minimal


def cmd_check_sufficient(args):
    status, reason = sarx_minimality_sufficient(SarxModel.load(args.model))
    return {"status": status, "reason": reason}, status == "minimal-certified"


def cmd_simulate(args):
    model = SarxModel.load(args.model)
    word = HybridWord.load(args.word)
    trace = simulate_sarx(model, word)
    report = {"outputs": [[format_rational(y) for y in step] for step in trace]}
    if args.compare_lss:
        report["lss_agrees"] = simulate_lss(associated_lss(model), word) == trace
    return report, report.get("lss_agrees", True)


def cmd_to_lss(args):
    return associated_lss(SarxModel.load(args.model)).to_json_dict(), True


def cmd_iso(args):
    solution = find_isomorphisms(Lss.load(args.a), Lss.load(args.b), seed=args.seed)
    return solution.to_json_dict(), solution.witness is not None


def cmd_param_analyze(args):
    region = procedure1(PolyParametrization.load(args.param))
    return region.to_json_dict(), not region.is_empty()


def cmd_param_generic(args):
    par = PolyParametrization.load(args.param)
    theta, attempts = genericity_witness(par, samples=args.samples, seed=args.seed)
    witness = [format_rational(x) for x in theta] if theta else None
    return {"witness": witness, "attempts": attempts}, theta is not None


def cmd_param_injective(args):
    par = PolyParametrization.load(args.param)
    evidence = injectivity_probe(par, trials=args.trials, seed=args.seed)
    return evidence.to_json_dict(), evidence.kind == "injective-affine"


@functools.cache
def build_parser():
    """The argument parser, built once per process on the first call.

    `set_defaults` binds each subcommand's `cmd_*` function when the parser
    is built, so a test patches the names those functions call, not the
    `cmd_*` functions themselves.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--seed", type=int, default=0)
    parser = argparse.ArgumentParser(
        prog="sarxid",
        description="Exact minimality and identifiability analysis of switched ARX models.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    p = add_parser("check-min", "decide strong minimality")
    p.add_argument("model")
    p.add_argument("--method", choices=("exact-rank", "theorem2", "both"), default="exact-rank")
    p.set_defaults(func=cmd_check_min)

    p = add_parser("check-sufficient", "one-sided minimality certificate")
    p.add_argument("model")
    p.set_defaults(func=cmd_check_sufficient)

    p = add_parser("simulate", "exact output trace for a hybrid word")
    p.add_argument("model")
    p.add_argument("word")
    p.add_argument("--compare-lss", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = add_parser("to-lss", "emit the switched state-space realization")
    p.add_argument("model")
    p.set_defaults(func=cmd_to_lss)

    p = add_parser("iso", "classify intertwining maps between two systems")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_iso)

    p = add_parser("param-analyze", "identifiable sub-parametrization region")
    p.add_argument("param")
    p.set_defaults(func=cmd_param_analyze)

    p = add_parser("param-generic", "sample a strongly minimal witness")
    p.add_argument("param")
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_param_generic)

    p = add_parser("param-injective", "probe injectivity of a parametrization")
    p.add_argument("param")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_param_injective)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report, positive = args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(_render_text(report, [])))
    return 0 if positive else 1
