import pytest

from numerals.builders import dyadic_numeral
from numerals.dyadics import Dyadic
from numerals.formulas import (Atomic, CInf, CSup, ClassificationError,
                               DotMinus, ExplicitFamily, ExhaustedFamilyError,
                               FINITARY, FormulaSyntaxError, GeneratedFamily,
                               Half, InfQ, Neg, PI, Rank, SIGMA,
                               UnknownGeneratorError, classify, free_vars,
                               get_generator, parse, pi_level,
                               register_generator, sigma_level)
from numerals.ordinals import from_int, parse_ordinal
from numerals.reals import parse_target

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


def test_parse_serialize_identity():
    for code in CODES:
        assert parse(code).code == code


def test_deep_hand_built_chain_has_a_code():
    # a node takes its code from its children's as it is made, so a chain
    # built by hand, not parsed, prints without recursing
    phi = InfQ(0, Atomic(0, 0))
    for _ in range(5000):
        phi = Neg(phi)
    assert phi.code == "(neg " * 5000 + "(inf x0 (dist x0 x0))" + ")" * 5000
    assert len(phi.code) == 30021
    assert str(phi) == phi.code and phi.finitary


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


def test_unknown_generator_rejected_at_parse():
    with pytest.raises(UnknownGeneratorError):
        parse('(cinf (gen no-such-thing "p"))')


def test_reregistering_keeps_the_reader():
    # a wrapper registered in a generator's place (as a tracer does) still
    # gets the params the generator's reader makes
    gen = get_generator("dyadic-upper-cut")
    register_generator("dyadic-upper-cut", object())
    try:
        fam = parse('(cinf (gen dyadic-upper-cut "1/3"))').family
    finally:
        register_generator("dyadic-upper-cut", gen)
    assert fam.params == parse_target("1/3")
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


def test_rank_str_and_duality():
    assert str(Rank(FINITARY, from_int(0))) == "Finitary"
    assert str(Rank(SIGMA, parse_ordinal("w+1"))) == "Sigma w+1"
    fin = Rank(FINITARY, from_int(0))
    assert pi_level(fin) == from_int(0)
    assert sigma_level(fin) == from_int(0)
    assert pi_level(Rank(PI, from_int(2))) == from_int(2)
    assert pi_level(Rank(SIGMA, from_int(2))) == from_int(3)
    assert sigma_level(Rank(SIGMA, from_int(2))) == from_int(2)
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
