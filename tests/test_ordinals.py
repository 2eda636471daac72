import pytest
from hypothesis import given, strategies as st

from numerals.ordinals import (OMEGA, OrdinalCNF, ZERO_ORD, from_int,
                               parse_ordinal)

ordinals = st.lists(
    st.tuples(st.integers(0, 4), st.integers(1, 5)), max_size=4,
    unique_by=lambda t: t[0]).map(
    lambda ts: OrdinalCNF(tuple(sorted(ts, reverse=True))))


def test_parse_and_str_round_trip():
    for text in ["0", "7", "w", "w+1", "w*2", "w*2+5", "w^2", "w^2*3+w*2+5",
                 "w^3+1"]:
        assert str(parse_ordinal(text)) == text


# a number past Python's limit on int() of a digit string, where it has one
BIG = "9" * 5000
try:
    BIG_VALUE = int(BIG)
except ValueError:
    BIG_VALUE = None


def test_parse_values():
    # leading zeros are read, and w^0 is the finite part
    for text, terms in [("00", ()), ("07", ((0, 7),)), ("w^0*3", ((0, 3),)),
                        ("w^02*03", ((2, 3),)), (" w^2 + 1 ", ((2, 1), (0, 1)))]:
        assert parse_ordinal(text) == OrdinalCNF(terms), text


def test_parse_rejects_junk():
    # only ASCII digits: int() alone would read w*\u0663 as w*3
    junk = ["w^", "2*w", "w+0", "-1", "w**2", "w*\u0663", "\u0663", "w^\u00b2",
            "w*+3", "1_0", "0+1", "w*", "ww", "w*1_0"]
    messages = [("", "empty ordinal"), ("w+ +1", "empty term in ordinal 'w+ +1'"),
                ("w+w^2", "CNF exponents must strictly decrease"),
                ("w^1+w^2", "CNF exponents must strictly decrease"),
                ("w*0", "bad CNF term w^1*0")]
    for text, message in [(t, "cannot parse ordinal %r" % t) for t in junk] \
            + messages:
        with pytest.raises(ValueError) as err:
            parse_ordinal(text)
        assert str(err.value) == message, text


@pytest.mark.parametrize("text, terms", [
    (BIG, ((0, BIG_VALUE),)), ("w*" + BIG, ((1, BIG_VALUE),)),
    ("w^%s*2" % BIG, ((BIG_VALUE, 2),))], ids=["natural", "coefficient",
                                              "exponent"])
def test_parse_past_int_digit_limit(text, terms):
    # int() raises ValueError past the limit, read as an unparsable term
    if BIG_VALUE is None:
        with pytest.raises(ValueError) as err:
            parse_ordinal(text)
        assert str(err.value) == "cannot parse ordinal %r" % text
    else:
        assert parse_ordinal(text) == OrdinalCNF(terms)


def test_basic_order():
    chain = ["0", "1", "2", "w", "w+1", "w+2", "w*2", "w*2+1", "w^2",
             "w^2+w", "w^2*2", "w^3"]
    parsed = [parse_ordinal(t) for t in chain]
    for a, b in zip(parsed, parsed[1:]):
        assert a < b
        assert b > a


def test_addition_absorbs_small_left_terms():
    w = OMEGA
    assert from_int(1) + w == w
    assert w + from_int(1) == parse_ordinal("w+1")
    assert w + w == parse_ordinal("w*2")
    assert parse_ordinal("w^2+w*3") + parse_ordinal("w*2") == \
        parse_ordinal("w^2+w*5")
    assert parse_ordinal("w*5+3") + parse_ordinal("w^2") == parse_ordinal("w^2")


@given(ordinals, ordinals)
def test_order_matches_base_n_value(a, b):
    # with N above every coefficient, sum c * N^e reads a CNF ordinal as a
    # base-N numeral, whose order does not depend on how terms compare
    n = 1 + max((c for _, c in a.terms + b.terms), default=0)

    def value(x):
        return sum(c * n ** e for e, c in x.terms)

    assert (a < b, a <= b, a > b, a >= b) == (
        value(a) < value(b), value(a) <= value(b),
        value(a) > value(b), value(a) >= value(b))


@given(ordinals, ordinals, ordinals)
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(ordinals, ordinals)
def test_addition_right_monotone(a, b):
    assert a + b >= b
    assert a + b >= a


def test_successor_predecessor():
    assert ZERO_ORD + from_int(1) == from_int(1)
    assert parse_ordinal("w+3").predecessor() == parse_ordinal("w+2")
    assert (from_int(9) + from_int(1)).predecessor() == from_int(9)
    with pytest.raises(ValueError):
        OMEGA.predecessor()
    with pytest.raises(ValueError):
        ZERO_ORD.predecessor()


def test_limit_classification():
    assert OMEGA.is_limit()
    assert parse_ordinal("w^2").is_limit()
    assert parse_ordinal("w*4").is_limit()
    assert not parse_ordinal("w+1").is_limit()
    assert not from_int(3).is_limit()
    assert not ZERO_ORD.is_limit()
    assert parse_ordinal("w+1").is_successor()
    assert ZERO_ORD.is_zero()


def test_fundamental_sequences():
    assert [str(OMEGA.fundamental(n)) for n in (0, 1, 3)] == ["0", "1", "3"]
    assert str(parse_ordinal("w*2").fundamental(4)) == "w+4"
    assert str(parse_ordinal("w^2").fundamental(3)) == "w*3"
    assert str(parse_ordinal("w^2*2+w*3").fundamental(2)) == "w^2*2+w*2+2"
    with pytest.raises(ValueError):
        parse_ordinal("w+1").fundamental(0)
    with pytest.raises(ValueError, match="negative index"):
        OMEGA.fundamental(-1)


@given(st.integers(0, 30))
def test_fundamental_increasing_and_below(n):
    for text in ["w", "w*2", "w^2", "w^3+w^2"]:
        alpha = parse_ordinal(text)
        here, after = alpha.fundamental(n), alpha.fundamental(n + 1)
        assert here < after < alpha


def test_finite_value():
    # a finite ordinal is its one w^0 term, and zero has no terms
    assert from_int(12).terms == ((0, 12),)
    assert ZERO_ORD.terms == ()
    assert OMEGA.terms == ((1, 1),)
    with pytest.raises(ValueError, match="nonnegative"):
        from_int(-1)
