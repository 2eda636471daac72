"""Command-line front end.

Subcommands: dyadic, build, eval, verify, classify, demo. Formula codes and
recipes may be passed as one quoted argument or as bare tokens; they are
joined with spaces before parsing. Output is deterministic for identical
invocations and seeds.
"""

import argparse
import os
import sys

from .builders import BuildError, dyadic_numeral, parse_recipe
from .dyadics import natural, parse_dyadic
from .engine import Engine, EngineError, TruncationSchedule
from .formulas import FormulaError, classify, parse
from .sexpr import SexprError, quote
from .spaces import (SpaceFormatError, SpaceValidationError, builtin_suite,
                     load_space_file, random_repaired_space)

# ValueError covers reals.RealSourceError, so this module need not load reals
_USAGE_ERRORS = (BuildError, FormulaError, SpaceFormatError,
                 SpaceValidationError, SexprError, EngineError, ValueError,
                 OSError)


def _positive(text):
    value = natural(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _seed(text):
    """An integer in ASCII decimal digits, with an optional leading minus."""
    return -natural(text[1:]) if text.startswith("-") else natural(text)


def _parser():
    top = argparse.ArgumentParser(
        prog="numerals",
        description="Build and verify infinitary sentences that name reals.")
    sub = top.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dyadic", help="print the numeral of a dyadic rational")
    d.add_argument("value", help="dyadic rational, e.g. 3/4 or 0.75")
    d.add_argument("flavor", choices=("exists", "forall"))

    b = sub.add_parser("build", help="build a numeral from a recipe")
    b.add_argument("recipe", nargs="+", help="(numeral SIDE LEVEL SOURCE)")

    e = sub.add_parser("eval", help="evaluate a formula code to an enclosure")
    e.add_argument("code", nargs="+",
                   help="formula code, optionally followed by a structure file"
                        " (default structure: the one-point space)")
    e.add_argument("--depth", type=_positive, default=256)
    e.add_argument("--format", choices=("text", "structured"), default="text")

    v = sub.add_parser("verify", help="run the full verification harness")
    v.add_argument("recipe", nargs="+")
    v.add_argument("--depth", type=_positive, default=256)
    v.add_argument("--tol", type=_positive, default=6,
                   help="tolerance exponent k, target accuracy 2^-k")
    v.add_argument("--seed", type=_seed, default=2026,
                   help="seed for the extra randomized suite space")
    v.add_argument("--suite", nargs="+", default=None, metavar="PATH",
                   help="structure files replacing the builtin suite")
    v.add_argument("--format", choices=("text", "structured"), default="text")

    c = sub.add_parser("classify", help="print the rank of a formula code")
    c.add_argument("code", nargs="+")
    c.add_argument("--format", choices=("text", "structured"), default="text")

    m = sub.add_parser("demo", help="run the acceptance corpus")
    m.add_argument("--format", choices=("text", "structured"), default="text")
    return top


def _pf(flag):
    return "pass" if flag else "fail"


def _enclosure_text(enc, fmt):
    if fmt == "structured":
        return "(enclosure %s %s)" % (enc.lo, enc.hi)
    return "[%s, %s] width %s" % (enc.lo, enc.hi, enc.width)


def _cmd_dyadic(args):
    phi = dyadic_numeral(parse_dyadic(args.value), args.flavor)
    print(phi.code)
    return 0


def _cmd_build(args):
    recipe = parse_recipe(" ".join(args.recipe))
    print(recipe.build().code)
    return 0


def _cmd_eval(args):
    tokens = list(args.code)
    space = builtin_suite()[0]
    if len(tokens) > 1 and os.path.exists(tokens[-1]):
        space = load_space_file(tokens.pop())
    phi = parse(" ".join(tokens))
    enc = Engine().eval_enclosure(phi, space,
                                  TruncationSchedule.default(args.depth))
    print(_enclosure_text(enc, args.format))
    return 0


def _cmd_classify(args):
    rank = classify(parse(" ".join(args.code)))
    if args.format == "structured":
        print("(rank %s)" % quote(str(rank)))
    else:
        print(rank)
    return 0


def _suite_for(args):
    if args.suite:
        return tuple(load_space_file(path) for path in args.suite)
    extra = random_repaired_space(args.seed, 6, name="seeded6")
    return builtin_suite() + (extra,)


def _print_report(report, fmt):
    if fmt == "structured":
        entries = " ".join("(%s %s)" % (name, _enclosure_text(enc, fmt))
                           for name, enc in report.entries)
        rows = " ".join("(depth %d %s %s)" % (r.depth,
                                              _enclosure_text(r.enclosure, fmt),
                                              r.estimate)
                        for r in report.convergence)
        print("(report (independence %s %s) (convergence %s %s %s) "
              "(classification %s %s %s))"
              % (_pf(report.agreement_ok), entries, _pf(report.monotone_ok),
                 _pf(report.tolerance_ok), rows, _pf(report.classification_ok),
                 quote(str(report.classification_expected)),
                 quote(str(report.classification_actual))))
        return
    for name, enc in report.entries:
        print("structure %-10s %s" % (name, _enclosure_text(enc, fmt)))
    print("independence: %s" % _pf(report.agreement_ok))
    for row in report.convergence:
        print("depth %-5d %s estimate %s" % (row.depth,
                                             _enclosure_text(row.enclosure, fmt),
                                             row.estimate))
    print("convergence: monotone %s, estimate within tolerance %s"
          % (_pf(report.monotone_ok), _pf(report.tolerance_ok)))
    print("classification: %s expected %s: %s"
          % (report.classification_actual, report.classification_expected,
             _pf(report.classification_ok)))
    print("verdict: %s" % _pf(report.ok))


def _cmd_verify(args):
    recipe = parse_recipe(" ".join(args.recipe))
    report = Engine().verify_recipe(recipe, _suite_for(args), args.depth,
                                    args.tol)
    _print_report(report, args.format)
    return 0 if report.ok else 1


def _cmd_demo(args):
    from . import acceptance  # the demo corpus: no other command needs it
    results = acceptance.run_all()
    for res in results:
        if args.format == "structured":
            print("(criterion %d %s %s %s)"
                  % (res.index, _pf(res.passed), quote(res.title),
                     quote(res.detail)))
        else:
            print(res.line())
    return 0 if all(res.passed for res in results) else 1


_COMMANDS = {
    "dyadic": _cmd_dyadic,
    "build": _cmd_build,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "demo": _cmd_demo,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _USAGE_ERRORS as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except Exception as err:
        print("internal error: %s: %s" % (type(err).__name__, err),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
