import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from numerals import formulas
from numerals.builders import build_numeral, dyadic_numeral, parse_recipe
from numerals.dyadics import Dyadic
from numerals.formulas import (Atomic, CInf, CSup, ClassificationError,
                               DotMinus, ExplicitFamily, ExhaustedFamilyError,
                               FINITARY, FormulaSyntaxError, GeneratedFamily,
                               Half, InfQ, Neg, PI, Rank, SIGMA, SupQ,
                               UnknownGeneratorError, classify, free_vars,
                               get_generator, level_as, parse,
                               register_generator)
from numerals.ordinals import from_int, parse_ordinal
from numerals.reals import (LEFT, RIGHT, CutEnumerator, RationalSource,
                            StagedChildSource, parse_target, sigma2_predicate)

CODES = [
    "(dist x0 x1)",
    "(neg (dist x0 x0))",
    "(dotminus (dist x0 x1) (half (dist x1 x1)))",
    "(inf x0 (sup x1 (dist x0 x1)))",
    "(neg (half (half (neg (inf x0 (dist x0 x0))))))",
    "(cinf (list (dist x0 x0) (neg (dist x0 x0))))",
    "(csup (gen dyadic-lower-cut \"1/3\"))",
    "(cinf (gen dyadic-upper-cut \"0.5\"))",
    "(csup (gen staged-approx \"(stage lagged-above \\\"2/7\\\" 5)\"))",
    "(cinf (gen successor-members "
    "\"(succ right 2 (real constant \\\"1/2\\\" 2))\"))",
]

# a recipe of each side at each level of the benchmark ladder
RECIPES = [
    '(numeral right 1 (real builtin "sqrt-half"))',
    '(numeral left 1 (real builtin "1/3"))',
    '(numeral right 2 (real sigma2-right geometric-above "1/3"))',
    '(numeral left 2 (real sigma2-left lagged-below "2/3"))',
    '(numeral right 3 (real geometric right 3 "1/3"))',
    '(numeral right w (real leveled right w (members constant "1/2")))',
    '(numeral left w+1 (real constant "1/2" w+1))',
    '(numeral right w*2 (real leveled right w*2 (members constant "1/2")))',
    '(numeral left w^2 (real leveled left w^2 (members geometric "1/3")))',
]


def test_parse_serialize_identity():
    for code in CODES:
        assert parse(code).code == code


fractions = st.integers(1, 12).flatmap(
    lambda d: st.integers(0, d).map(lambda n: Fraction(n, d)))


def _step_family(side, level, scheme, value):
    """The successor- or limit-members family of a rational source."""
    level = parse_ordinal(level)
    source = RationalSource(None if scheme == "constant" else side, level,
                            scheme, value)
    return build_numeral(side, level, source).family


# a family of each builtin generator name, with params drawn as values
generated = st.one_of(
    st.builds(lambda side, value: GeneratedFamily(
        "dyadic-upper-cut" if side == RIGHT else "dyadic-lower-cut",
        CutEnumerator(parse_target(value), side)),
        st.sampled_from([LEFT, RIGHT]),
        fractions.map(str) | st.just("sqrt-half")),
    st.builds(lambda name, value, index: GeneratedFamily(
        "staged-approx", StagedChildSource(sigma2_predicate(name, value), index)),
        st.sampled_from(["geometric-above", "lagged-above", "geometric-below",
                         "lagged-below"]),
        fractions.map(str), st.integers(0, 10 ** 6)),
    st.builds(_step_family, st.sampled_from([LEFT, RIGHT]),
              st.sampled_from(["2", "3", "w", "w+1", "w*2"]),
              st.sampled_from(["constant", "geometric"]), fractions))

variables = st.integers(0, 12)


def _wrap(sub):
    family = st.lists(sub, min_size=1, max_size=3).map(
        lambda members: ExplicitFamily(tuple(members)))
    return st.one_of(st.builds(Neg, sub), st.builds(Half, sub),
                     st.builds(DotMinus, sub, sub),
                     st.builds(InfQ, variables, sub),
                     st.builds(SupQ, variables, sub),
                     st.builds(CInf, family), st.builds(CSup, family))


formula_trees = st.recursive(
    st.builds(Atomic, variables, variables)
    | st.builds(CInf, generated) | st.builds(CSup, generated),
    _wrap, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(formula_trees)
def test_parse_round_trips_every_head(phi):
    # every head, explicit families and each builtin generator's params:
    # parse reads back the node its code came from
    back = parse(phi.code)
    assert back.code == phi.code
    assert back == phi


def test_deep_hand_built_chain_has_a_code():
    # the printer keeps an explicit stack, so a chain built by hand, not
    # parsed, prints without recursing
    phi = InfQ(0, Atomic(0, 0))
    for _ in range(5000):
        phi = Neg(phi)
    assert phi.code == "(neg " * 5000 + "(inf x0 (dist x0 x0))" + ")" * 5000
    assert len(phi.code) == 30021
    assert str(phi) == phi.code and phi.finitary


def test_deep_chain_holds_no_codes(monkeypatch):
    # no node stores its code: a chain n deep takes O(n) memory, where one
    # code per node took O(n^2), 75.8 MB at this depth; a fresh node table,
    # so that the chain is made here and not found from an earlier test
    monkeypatch.setattr(formulas, "NODES", {})
    tracemalloc.start()
    try:
        phi = InfQ(0, Atomic(0, 0))
        for _ in range(5000):
            phi = Neg(phi)
        code = phi.code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == "(neg " * 5000 + "(inf x0 (dist x0 x0))" + ")" * 5000
    assert len(code) == 30021
    assert peak < 5 << 20


def test_equal_nodes_are_one_object():
    x = Atomic(0, 1)
    assert Neg(x) is Neg(x)
    for code in CODES:
        assert parse(code) is parse(code)
    for text in RECIPES:
        recipe = parse_recipe(text)
        assert parse(recipe.build().code) is recipe.build()


def test_parse_builds_expected_tree():
    phi = parse("(inf x2 (dotminus (dist x2 x0) (dist x0 x0)))")
    assert isinstance(phi, InfQ)
    assert phi.var == 2
    assert isinstance(phi.body, DotMinus)
    assert phi.body.left == Atomic(2, 0)


def test_syntax_errors_carry_position():
    for bad in ["(dist x0)", "(neg)", "(inf y0 (dist x0 x0))", "(halve x0)",
                "(cinf (list))", "(dist x0 x1) junk", "(inf x0)"]:
        with pytest.raises(FormulaSyntaxError):
            parse(bad)
    # a variable index is ASCII digits: int() fails on "\u00b2" and reads
    # "\u0663" as 3, which would not round-trip
    for bad, offset in [("(inf x\u00b2 (dist x\u00b2 x\u00b2))", 5),
                        ("(dist x0 x\u0663)", 9)]:
        with pytest.raises(FormulaSyntaxError) as err:
            parse(bad)
        assert err.value.position == offset


# (code, message, offset) of each FormulaSyntaxError parse raises, frozen as
# printed: every head with an argument too few and too many, bad heads, forms
# and variables, and malformed families
SYNTAX_ERRORS = [
    ("(dist x0)", "dist takes two variables", 0),
    ("(dist x0 x1 x2)", "dist takes two variables", 0),
    ("(neg)", "neg takes one formula", 0),
    ("(neg (dist x0 x0) (dist x0 x0))", "neg takes one formula", 0),
    ("(half)", "half takes one formula", 0),
    ("(half (dist x0 x0) (dist x0 x0))", "half takes one formula", 0),
    ("(dotminus (dist x0 x0))", "dotminus takes two formulas", 0),
    ("(dotminus (dist x0 x0) (dist x0 x0) (dist x0 x0))",
     "dotminus takes two formulas", 0),
    ("(inf x0)", "inf takes a variable and a body", 0),
    ("(inf x0 (dist x0 x0) (dist x0 x0))", "inf takes a variable and a body", 0),
    ("(sup x0)", "sup takes a variable and a body", 0),
    ("(sup x0 (dist x0 x0) (dist x0 x0))", "sup takes a variable and a body", 0),
    ("(cinf)", "cinf takes one family", 0),
    ("(cinf (list (dist x0 x0)) (list (dist x0 x0)))", "cinf takes one family", 0),
    ("(csup)", "csup takes one family", 0),
    ("(csup (list (dist x0 x0)) (list (dist x0 x0)))", "csup takes one family", 0),
    ("(neg (dist x0) (dist x0 x0))", "neg takes one formula", 0),
    ("(neg (dotminus (dist x0 x0)))", "dotminus takes two formulas", 5),
    ("((dist x0 x0))", "formula head must be a symbol", 0),
    ('("dist" x0 x0)', "formula head must be a symbol", 0),
    ("(halve x0)", "unknown formula head 'halve'", 0),
    ("(half (halve x0))", "unknown formula head 'halve'", 6),
    ("dist", "expected a parenthesized formula", 0),
    ("()", "expected a parenthesized formula", 0),
    ('"x"', "expected a parenthesized formula", 0),
    ("(neg x0)", "expected a parenthesized formula", 5),
    ("(dist y0 x0)", "expected a variable like x0, got 'y0'", 6),
    ("(dist x0 x)", "expected a variable like x0, got 'x'", 9),
    ("(inf x\u00b2 (dist x0 x0))", "expected a variable like x0, got 'x\u00b2'", 5),
    ("(dist x0 x\u0663)", "expected a variable like x0, got 'x\u0663'", 9),
    ("(dist (x0) x1)", "expected a variable like x0, got \"['x0']\"", 6),
    ('(dist x0 "x1")', "expected a variable like x0, got 'x1'", 9),
    ("(inf (x0) (dist x0 x0))", "expected a variable like x0, got \"['x0']\"", 5),
    ("(inf y0 (halve))", "expected a variable like x0, got 'y0'", 5),
    ("(cinf (list))", "(list ...) needs at least one member", 6),
    ("(cinf (list (dist x0)))", "dist takes two variables", 12),
    ("(cinf x0)", "expected (list ...) or (gen ...)", 6),
    ("(cinf ())", "expected (list ...) or (gen ...)", 6),
    ("(cinf (gen dyadic-upper-cut))",
     '(gen ...) takes a name and a "param" string', 6),
    ('(cinf (gen dyadic-upper-cut "1/3" "1/2"))',
     '(gen ...) takes a name and a "param" string', 6),
    ("(cinf (gen dyadic-upper-cut 1/3))",
     '(gen ...) takes a name and a "param" string', 6),
    ('(cinf (gen "dyadic-upper-cut" "1/3"))',
     '(gen ...) takes a name and a "param" string', 6),
    ('(csup (gen (x) "1/3"))', '(gen ...) takes a name and a "param" string', 6),
    ("(cinf (set (dist x0 x0)))", "unknown family form 'set'", 6),
    ("(csup ((list) (dist x0 x0)))", "unknown family form \"['list']\"", 6),
    ("(neg (dist x0 x1)", "unclosed '('", 0),
    ("(dist x0 x1) junk", "trailing input after expression", 13),
]


@pytest.mark.parametrize("code, message, offset", SYNTAX_ERRORS)
def test_syntax_error_messages_are_frozen(code, message, offset):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(code)
    assert type(err.value) is FormulaSyntaxError
    assert str(err.value) == "%s (at offset %d)" % (message, offset)
    assert err.value.position == offset


def test_unknown_generator_rejected_at_parse():
    with pytest.raises(UnknownGeneratorError) as err:
        parse('(cinf (gen no-such-thing "p"))')
    assert type(err.value) is UnknownGeneratorError
    assert str(err.value) == "unknown generator 'no-such-thing'"


def test_reregistering_keeps_the_reader():
    # a wrapper registered in a generator's place (as a tracer does) still
    # gets the params the generator's reader makes
    gen = get_generator("dyadic-upper-cut")
    register_generator("dyadic-upper-cut", object())
    try:
        fam = parse('(cinf (gen dyadic-upper-cut "1/3"))').family
    finally:
        register_generator("dyadic-upper-cut", gen)
    assert fam.params == CutEnumerator(parse_target("1/3"), RIGHT)
    assert get_generator("dyadic-upper-cut") is gen


def test_free_vars():
    assert free_vars(parse("(dist x0 x1)")) == {0, 1}
    assert free_vars(parse("(inf x0 (dist x0 x1))")) == {1}
    assert free_vars(parse("(inf x0 (sup x1 (dist x0 x1)))")) == set()
    assert free_vars(parse('(csup (gen dyadic-lower-cut "1/3"))')) == set()


def test_explicit_family_members():
    fam = ExplicitFamily((Atomic(0, 0), Neg(Atomic(0, 0))))
    assert fam.member(1) == Neg(Atomic(0, 0))
    assert fam.known_size == 2
    with pytest.raises(ExhaustedFamilyError):
        fam.member(2)
    with pytest.raises(ValueError):
        ExplicitFamily(())
    # a generated family has no end, but no member before 0 either
    gen = parse('(cinf (gen dyadic-upper-cut "1/3"))').family
    with pytest.raises(ValueError, match="negative family index"):
        gen.member(-1)


def test_rank_str_and_duality():
    assert str(Rank(FINITARY, from_int(0))) == "Finitary"
    assert str(Rank(SIGMA, parse_ordinal("w+1"))) == "Sigma w+1"
    fin = Rank(FINITARY, from_int(0))
    assert level_as(fin, PI) == from_int(0)
    assert level_as(fin, SIGMA) == from_int(0)
    assert level_as(Rank(PI, from_int(2)), PI) == from_int(2)
    assert level_as(Rank(SIGMA, from_int(2)), PI) == from_int(3)
    assert level_as(Rank(SIGMA, from_int(2)), SIGMA) == from_int(2)
    assert level_as(Rank(PI, parse_ordinal("w")), SIGMA) == parse_ordinal("w+1")
    with pytest.raises(ValueError):
        Rank(FINITARY, from_int(1))


def test_classify_finitary():
    assert classify(parse("(inf x0 (dist x0 x0))")) == Rank(FINITARY, from_int(0))
    assert classify(parse("(dotminus (dist x0 x1) (dist x1 x0))")).flavor == FINITARY


def test_classify_explicit_families():
    finitary = [dyadic_numeral(Dyadic(k, 2), "exists") for k in range(3)]
    sigma1 = CInf(ExplicitFamily(tuple(finitary)))
    assert classify(sigma1) == Rank(SIGMA, from_int(1))
    pi1 = CSup(ExplicitFamily(tuple(finitary)))
    assert classify(pi1) == Rank(PI, from_int(1))
    pi2 = CSup(ExplicitFamily((sigma1,)))
    assert classify(pi2) == Rank(PI, from_int(2))
    sigma3 = CInf(ExplicitFamily((pi2, sigma1)))
    assert classify(sigma3) == Rank(SIGMA, from_int(3))


def test_classify_neg_swaps_half_preserves():
    finitary = (dyadic_numeral(Dyadic(1, 2), "exists"),)
    sigma1 = CInf(ExplicitFamily(finitary))
    assert classify(Neg(sigma1)) == Rank(PI, from_int(1))
    assert classify(Half(sigma1)) == Rank(SIGMA, from_int(1))
    assert classify(InfQ(0, sigma1)) == Rank(SIGMA, from_int(1))


def test_classify_rejects_infinitary_dotminus():
    sigma1 = CInf(ExplicitFamily((Atomic(0, 0),)))
    with pytest.raises(ClassificationError):
        classify(DotMinus(sigma1, Atomic(0, 0)))
    with pytest.raises(ClassificationError):
        classify(DotMinus(Atomic(0, 0), sigma1))


class _LyingGenerator:
    """Claims level 1 but emits a level-1 member, which needs level 2."""

    def member(self, params, n):
        return CInf(ExplicitFamily((Atomic(0, 0),)))

    def level_bound(self, params):
        return from_int(1)

    def monotone(self, params):
        return None


def test_generated_family_spot_check_catches_lies():
    register_generator("test-liar", _LyingGenerator())
    phi = CInf(GeneratedFamily("test-liar", ""))
    with pytest.raises(ClassificationError):
        classify(phi)


def test_classify_built_generated_family():
    phi = parse('(cinf (gen dyadic-upper-cut "1/3"))')
    assert classify(phi) == Rank(SIGMA, from_int(1))
