import importlib
import pkgutil
from dataclasses import make_dataclass
from fractions import Fraction

import pytest

import numerals
from numerals.acceptance import CriterionResult
from numerals.builders import NumeralRecipe
from numerals.dyadics import Dyadic, Enclosure, HALF, ZERO
from numerals.engine import (ConvergenceRow, IndependenceReport,
                             TruncationSchedule, VerificationReport)
from numerals.formulas import (SIGMA, Atomic, CInf, CSup, DotMinus,
                               ExplicitFamily, Half, InfQ, Neg, Rank, SupQ,
                               parse)
from numerals.ordinals import OMEGA, OrdinalCNF, from_int
from numerals.reals import (RIGHT, CutEnumerator, RationalSource,
                            RationalTarget, SequenceExtraction,
                            SqrtHalfTarget, StagedChildSource)
from numerals.records import record
from numerals.spaces import FiniteMetricSpace, ValidationReport

ATOM = Atomic(0, 1)
FAMILY = parse('(cinf (gen dyadic-upper-cut "1/3"))').family
PRED = SequenceExtraction("geometric-above", "1/3")
THIRD = RationalTarget(Fraction(1, 3), "1/3")
GEOMETRIC = RationalSource(RIGHT, from_int(3), "geometric", Fraction(1, 3))
ENCLOSURE = Enclosure(ZERO, HALF)
RANK = Rank(SIGMA, from_int(1))

# one value of every record class in numerals
EXAMPLES = [
    CriterionResult(1, "title", True, 0.5, "detail"),
    NumeralRecipe(RIGHT, from_int(3), GEOMETRIC),
    Dyadic(3, 3),
    ENCLOSURE,
    TruncationSchedule((4, 16)),
    ConvergenceRow(4, ENCLOSURE, HALF),
    IndependenceReport((("point", ENCLOSURE),), (), True),
    VerificationReport((("point", ENCLOSURE),), (), True, (), True, False,
                       RANK, "no rank", False),
    ATOM,
    Neg(ATOM),
    DotMinus(ATOM, Atomic(1, 0)),
    Half(ATOM),
    InfQ(0, ATOM),
    SupQ(1, ATOM),
    ExplicitFamily((ATOM, Neg(ATOM))),
    FAMILY,
    CInf(FAMILY),
    CSup(FAMILY),
    RANK,
    OrdinalCNF(((1, 1), (0, 2))),
    THIRD,
    SqrtHalfTarget(),
    CutEnumerator(THIRD, RIGHT),
    PRED,
    GEOMETRIC,
    StagedChildSource(PRED, 3),
    ValidationReport((("range", (0, 1), "d = 2"),)),
]

OWN_REPR = (Dyadic, OrdinalCNF)
# made through formulas.NODES: one object per class and fields
HASH_CONSED = (Atomic, Neg, DotMinus, Half, InfQ, SupQ, ExplicitFamily,
               type(FAMILY), CInf, CSup)


def _fields(value):
    return tuple(getattr(value, name) for name in type(value)._fields)


def test_examples_cover_every_record_class():
    found = set()
    for info in pkgutil.iter_modules(numerals.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module("numerals." + info.name)
        found |= {cls for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == module.__name__
                  and "_fields" in vars(cls)}
    assert found == {type(value) for value in EXAMPLES}


@pytest.mark.parametrize("value", EXAMPLES, ids=lambda v: type(v).__name__)
def test_record_semantics(value):
    cls = type(value)
    fields = _fields(value)
    twin = cls(*fields)
    if cls in HASH_CONSED:
        # equal is identical, and the hash is the identity's
        assert twin is value and hash(twin) == object.__hash__(value)
    else:
        assert twin == value and twin is not value
        assert hash(twin) == hash(value) == hash(fields)
    assert not twin != value
    # a class with the same fields is another record
    other = record(type(cls.__name__, (),
                        {"__annotations__": dict.fromkeys(cls._fields, object)}))
    assert other(*fields) != value and value != other(*fields)
    # frozen: no field or other attribute can be set or deleted
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert _fields(value) == fields
    # hashed (if not hash-consed) and shown as a frozen dataclass of the
    # same fields is
    dc = make_dataclass(cls.__name__, cls._fields, frozen=True)(*fields)
    if cls not in HASH_CONSED:
        assert hash(value) == hash(dc)
    if cls not in OWN_REPR:
        assert repr(value) == repr(dc)


def test_classes_with_equal_fields_differ():
    assert Neg(ATOM) != Half(ATOM)
    assert InfQ(0, ATOM) != SupQ(0, ATOM)
    assert CInf(FAMILY) != CSup(FAMILY)
    assert len({Neg(ATOM), Half(ATOM), Neg(ATOM)}) == 2


def test_record_defaults_and_own_methods():
    assert OrdinalCNF() == OrdinalCNF(()) and OrdinalCNF().is_zero()
    assert Dyadic(6, 2) == Dyadic(3, 1) and Dyadic(4) == Dyadic(1, -2)
    assert repr(Dyadic(3, 3)) == "Dyadic(3/8)"
    assert repr(OMEGA) == "OrdinalCNF(w)"
    assert from_int(2) < OMEGA <= OMEGA < OMEGA + from_int(1)
    assert OMEGA > from_int(7) >= from_int(7)


def test_spaces_are_equal_by_identity():
    a = FiniteMetricSpace("point", 1, 0, ((0,),))
    b = FiniteMetricSpace("point", 1, 0, ((0,),))
    assert a == a and a != b
    assert len({a: 1, b: 2}) == 2
    assert str(a) == "point(1 points)"
