"""Infinitary continuous-logic sentences that name real numbers.

A numeral is a sentence over the bare metric language whose value is the
same real in every structure. This package builds numerals from
descriptions of a real (dyadic rationals, cut enumerators, staged
predicates, leveled families), classifies them by the ordinal depth of
their countable inf/sup nesting, and certifies their values by dyadic
interval evaluation over finite metric spaces.

`import numerals` loads `builders`, whose import registers the builtin
generators, and what it imports: `formulas`, `dyadics`, `ordinals`, `sexpr`
and `records`. The real sources `reals`, the evaluator `engine`, the metric
spaces `spaces` and the names this package exports from them load on first
access, so a process that only builds or parses never compiles the
evaluator, and one that reads no real source, cut target or staged index
never compiles `reals`.
"""

from .builders import (EXISTS, FORALL, BuildError, NumeralRecipe,
                       build_numeral, dyadic_numeral, parse_recipe)
from .dyadics import Dyadic, Enclosure, parse_dyadic
from .formulas import (Atomic, CInf, CSup, DotMinus, ExplicitFamily,
                       FormulaError, GeneratedFamily, Half, InfQ, Neg, Rank,
                       SupQ, classify, parse, register_generator)
from .ordinals import OMEGA, OrdinalCNF, parse_ordinal

__all__ = [
    "EXISTS", "FORALL", "BuildError", "NumeralRecipe", "build_numeral",
    "dyadic_numeral", "parse_recipe",
    "Dyadic", "Enclosure", "parse_dyadic",
    "Engine", "EngineError", "SandwichError", "TruncationSchedule",
    "VerificationReport",
    "Atomic", "CInf", "CSup", "DotMinus", "ExplicitFamily", "FormulaError",
    "GeneratedFamily", "Half", "InfQ", "Neg", "Rank", "SupQ", "classify",
    "parse", "register_generator",
    "OMEGA", "OrdinalCNF", "parse_ordinal",
    "LEFT", "RIGHT", "RealSourceError", "parse_target", "sigma2_predicate",
    "FiniteMetricSpace", "builtin_suite", "load_space_file", "make_space",
    "serialize_space", "validate",
]

# Each name loaded on first access -> the submodule that defines it; each
# such submodule maps to itself
_HOME = {name: home for home, names in (
    ("engine", ("Engine", "EngineError", "SandwichError",
                "TruncationSchedule", "VerificationReport")),
    ("reals", ("LEFT", "RIGHT", "RealSourceError", "parse_target",
               "sigma2_predicate")),
    ("spaces", ("FiniteMetricSpace", "builtin_suite", "load_space_file",
                "make_space", "serialize_space", "validate")),
) for name in (home,) + names}


def __getattr__(name):
    """Import the home module of a reals, engine or spaces name (PEP 562)
    and bind the name here, so later reads do not come back."""
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    home = _HOME[name]
    # __import__, unlike importlib.import_module, shows in -X importtime
    module = getattr(__import__(__name__ + "." + home), home)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
