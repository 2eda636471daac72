from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from numerals.dyadics import (Dyadic, Enclosure, HALF, ONE, ZERO, dotminus,
                              from_fraction, half, neg, parse_dyadic)

units = st.integers(0, 10).flatmap(
    lambda e: st.integers(0, 2 ** e).map(lambda n: Dyadic(n, e)))


def test_canonical_form():
    assert Dyadic(4, 4) == Dyadic(1, 2)
    assert Dyadic(6, 3) == Dyadic(3, 2)
    assert Dyadic(0, 7) == ZERO
    assert str(Dyadic(3, 1)) == "3/2"
    assert str(Dyadic(2, 1)) == "1"
    # hundreds of trailing zero bits, fewer, as many as or more than exp;
    # zero at a large exponent is (0, 0)
    for num, exp in ((3 << 500, 600), (-5 << 300, 300), (3 << 700, 600),
                     (7 << 64, 65), (0, 600)):
        f = Fraction(num, 1 << exp)
        d = Dyadic(num, exp)
        assert (d.num, 1 << d.exp) == (f.numerator, f.denominator)


def test_parse_forms():
    assert parse_dyadic("3/8") == Dyadic(3, 3)
    assert parse_dyadic("1") == ONE
    assert parse_dyadic("0.75") == Dyadic(3, 2)
    with pytest.raises(ValueError):
        parse_dyadic("1/3")
    # only ASCII without underscores: int() and Fraction() alone would read
    # 1_1/2^4 as 11/16 and \u0663/8 as 3/8
    for text in ["spam", "1_1/2^4", "1/2^1_0", "\u0663/8", "3/2^\u0663",
                 "0.7_5"]:
        with pytest.raises(ValueError):
            parse_dyadic(text)


def test_fraction_bridge():
    assert from_fraction(Fraction(5, 16)) == Dyadic(5, 4)
    with pytest.raises(ValueError):
        from_fraction(Fraction(1, 6))


@given(units, units)
def test_ordering_matches_fractions(a, b):
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a == b) == (a.as_fraction() == b.as_fraction())


@given(units, units)
def test_arithmetic_matches_fractions(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()


@given(units)
def test_connectives(d):
    assert neg(d) == ONE - d
    assert neg(neg(d)) == d
    assert half(d).as_fraction() == d.as_fraction() / 2
    assert dotminus(d, ZERO) == d
    assert dotminus(ZERO, d) == ZERO


@given(units, units)
def test_dotminus_truncates(a, b):
    got = dotminus(a, b)
    assert got.as_fraction() == max(Fraction(0), a.as_fraction() - b.as_fraction())


def test_enclosure_validation():
    assert Enclosure(ZERO, HALF).width == HALF
    assert Enclosure(HALF, HALF).width == ZERO
    assert Enclosure(ZERO, ONE).width == ONE
    with pytest.raises(ValueError):
        Enclosure(ONE, ZERO)
    with pytest.raises(ValueError):
        Enclosure(ZERO, Dyadic(3, 1))
