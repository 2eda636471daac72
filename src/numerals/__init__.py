"""Infinitary continuous-logic sentences that name real numbers.

A numeral is a sentence over the bare metric language whose value is the
same real in every structure. This package builds numerals from
descriptions of a real (dyadic rationals, cut enumerators, staged
predicates, leveled families), classifies them by the ordinal depth of
their countable inf/sup nesting, and certifies their values by dyadic
interval evaluation over finite metric spaces.
"""

from .builders import (EXISTS, FORALL, BuildError, NumeralRecipe,
                       build_numeral, dyadic_numeral, parse_recipe)
from .dyadics import Dyadic, Enclosure, parse_dyadic
from .engine import (Engine, EngineError, SandwichError, TruncationSchedule,
                     VerificationReport)
from .formulas import (Atomic, CInf, CSup, DotMinus, ExplicitFamily,
                       FormulaError, GeneratedFamily, Half, InfQ, Neg, Rank,
                       SupQ, classify, parse, register_generator)
from .ordinals import OMEGA, OrdinalCNF, parse_ordinal
from .reals import (LEFT, RIGHT, RealSourceError, parse_target,
                    sigma2_predicate)
from .spaces import (FiniteMetricSpace, builtin_suite, load_space_file,
                     make_space, serialize_space, validate)

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
