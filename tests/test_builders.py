from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from numerals import builders, reals, sexpr
from numerals.acceptance import LEFT_CORPUS, RIGHT_CORPUS
from numerals.builders import (EXISTS, FORALL, BuildError, StepGenerator,
                               StepParams, build_numeral, dyadic_numeral,
                               other_flavor, other_side, parse_recipe)
from numerals.dyadics import Dyadic, HALF, MAX_EXP, ONE, ZERO
from numerals.engine import Engine, TruncationSchedule
from numerals.formulas import (Atomic, CInf, CSup, Half, InfQ, Neg, SupQ,
                               classify, free_vars, parse)
from numerals.ordinals import OMEGA, from_int, parse_ordinal
from numerals.reals import (LEFT, LEVEL_ONE, RIGHT, CutEnumerator,
                            RationalSource, RationalTarget, RealSourceError,
                            parse_target, sigma2_predicate)
from numerals.spaces import builtin_suite

F = Fraction
NU_E0 = "(inf x0 (dist x0 x0))"
NU_A0 = "(sup x0 (dist x0 x0))"

def constant(value, level):
    """The source of (real constant "value" level)."""
    return RationalSource(None, level, "constant", value)


def get_cut(text, side):
    return CutEnumerator(parse_target(text), side)


def strip_double_neg(phi):
    while isinstance(phi, Neg) and isinstance(phi.body, Neg):
        phi = phi.body.body
    return phi


units = st.integers(0, 8).flatmap(
    lambda e: st.integers(0, 2 ** e).map(lambda n: Dyadic(n, e)))


def code(r, flavor):
    return dyadic_numeral(r, flavor).code


def test_dyadic_numeral_base_shapes():
    assert code(ZERO, EXISTS) == NU_E0
    assert code(ZERO, FORALL) == NU_A0
    assert code(ONE, EXISTS) == "(neg %s)" % NU_A0
    assert code(ONE, FORALL) == "(neg %s)" % NU_E0
    assert code(Dyadic(1, 1), EXISTS) == "(half (neg %s))" % NU_A0
    assert code(Dyadic(3, 2), EXISTS) == \
        "(neg (half (half (neg %s))))" % NU_E0


def recursive_numeral(r, flavor):
    """The defining recursion of dyadic numerals, building a fresh tree top
    down: the oracle for the shared bottom-up table."""
    if r == ZERO:
        body = Atomic(0, 0)
        return InfQ(0, body) if flavor == EXISTS else SupQ(0, body)
    if r > HALF:
        return Neg(recursive_numeral(ONE - r, other_flavor(flavor)))
    return Half(recursive_numeral(r + r, flavor))


def test_dyadic_numeral_matches_recursive_definition():
    for m in range(2 ** 10 + 1):
        r = Dyadic(m, 10)
        for flavor in (EXISTS, FORALL):
            assert code(r, flavor) == recursive_numeral(r, flavor).code


def test_dyadic_numerals_are_shared():
    r = Dyadic(5, 9)
    for flavor in (EXISTS, FORALL):
        assert dyadic_numeral(r, flavor) is dyadic_numeral(r, flavor)
    eighth = dyadic_numeral(Dyadic(1, 3), EXISTS)
    assert eighth.body is dyadic_numeral(Dyadic(1, 2), EXISTS)


def test_dyadic_numeral_rejects():
    with pytest.raises(BuildError):
        dyadic_numeral(Dyadic(3, 1), EXISTS)
    with pytest.raises(BuildError):
        dyadic_numeral(F(1, 2), EXISTS)
    with pytest.raises(BuildError):
        dyadic_numeral(ZERO, "some")


def test_dyadic_numeral_exponent_bound():
    # each node of the chain holds its whole code, so the numeral of 1/2^k
    # holds about k^2 characters: past MAX_EXP none is built at all
    size = len(builders._DYADICS)
    with pytest.raises(BuildError) as err:
        dyadic_numeral(Dyadic(1, MAX_EXP + 1), EXISTS)
    assert str(err.value) == "dyadic exponent 1025 is above 1024"
    assert len(builders._DYADICS) == size


@settings(max_examples=60, deadline=None)
@given(units, st.sampled_from([EXISTS, FORALL]))
def test_dyadic_numeral_value(r, flavor):
    eng = Engine()
    phi = dyadic_numeral(r, flavor)
    assert not free_vars(phi)
    for space in builtin_suite()[:3]:
        assert eng.eval_exact(phi, space) == r


@settings(max_examples=60, deadline=None)
@given(units)
def test_dyadic_numeral_duality(r):
    mirror = strip_double_neg(Neg(dyadic_numeral(ONE - r, FORALL)))
    if r != Dyadic(1, 1):
        assert mirror.code == code(r, EXISTS)
    else:
        eng = Engine()
        point = builtin_suite()[0]
        assert eng.eval_exact(mirror, point) == \
            eng.eval_exact(dyadic_numeral(r, EXISTS), point) == r


def test_helpers():
    assert other_side(RIGHT) == LEFT and other_side(LEFT) == RIGHT
    assert other_flavor(EXISTS) == FORALL and other_flavor(FORALL) == EXISTS


def test_upper_cut_family_members():
    # members 2k and 2k+1 are the numeral of the least of hits 0..k
    fam = parse('(cinf (gen dyadic-upper-cut "1/3"))').family
    hits = [Dyadic(1, 1), Dyadic(3, 2), Dyadic(3, 3)]
    assert [get_cut("1/3", RIGHT).hit(k) for k in range(3)] == hits
    for n, best in enumerate([Dyadic(1, 1), Dyadic(1, 1), Dyadic(1, 1),
                              Dyadic(1, 1), Dyadic(3, 3), Dyadic(3, 3)]):
        assert fam.member(n).code == code(best, EXISTS)


def test_lower_cut_family_members():
    # members 2k and 2k+1 are the numeral of the greatest of hits 0..k
    fam = parse('(csup (gen dyadic-lower-cut "1/3"))').family
    hits = [Dyadic(1, 2), Dyadic(1, 3), Dyadic(1, 4), Dyadic(3, 4),
            Dyadic(5, 4)]
    assert [get_cut("1/3", LEFT).hit(k) for k in range(5)] == hits
    for n, best in enumerate([Dyadic(1, 2)] * 8 + [Dyadic(5, 4)] * 2):
        assert fam.member(n).code == code(best, FORALL)


def test_trivial_cuts_use_endpoints_only():
    upper_one = parse('(cinf (gen dyadic-upper-cut "1"))').family
    lower_zero = parse('(csup (gen dyadic-lower-cut "0"))').family
    for n in range(8):
        assert upper_one.member(n).code == code(ONE, EXISTS)
        assert lower_zero.member(n).code == NU_A0


def test_base_numeral_shapes():
    phi = build_numeral(RIGHT, LEVEL_ONE, parse_target("1/3"))
    assert phi.code == '(cinf (gen dyadic-upper-cut "1/3"))'
    psi = build_numeral(LEFT, LEVEL_ONE, parse_target("sqrt-half"))
    assert psi.code == '(csup (gen dyadic-lower-cut "sqrt-half"))'


def test_level_one_recipe_sources_are_cut_targets():
    # a builtin recipe's source is the target its cut family reads, and a
    # level-1 constant's is the target of its value; both read back whole
    recipes = map(parse_recipe, RIGHT_CORPUS + LEFT_CORPUS)
    level_one = [recipe for recipe in recipes if recipe.level == LEVEL_ONE]
    assert len(level_one) == 10
    for recipe in level_one:
        phi = recipe.build()
        source = recipe.source
        if isinstance(source, RationalSource):
            source = RationalTarget(source.value, str(source.value))
        assert phi.family.params == CutEnumerator(source, recipe.side)
        assert str(phi.family.params) == str(source)
        assert parse_recipe(recipe.descriptor) == recipe
        assert parse(phi.code).code == phi.code


def test_staged_child_numeral_members():
    pred = sigma2_predicate("geometric-above", "1/3")
    phi = build_numeral(LEFT, LEVEL_ONE, pred.child(11))
    assert phi.code == \
        '(csup (gen staged-approx "(stage geometric-above \\"1/3\\" 11)"))'
    for t in (1, 16, 64):
        member = phi.family.member(t)
        assert member.code == code(pred.r_approx(11, t), FORALL)


def test_successor_members_requested_once(monkeypatch):
    # building a successor member must not build members of its own family,
    # and classify must spot-check each family once: either would make the
    # member requests grow as 3^k at nesting depth k
    calls = []
    member = StepGenerator.member

    def counting(self, params, n):
        calls.append((params, n))
        return member(self, params, n)

    monkeypatch.setattr(StepGenerator, "member", counting)
    phi = parse_recipe('(numeral right w+1 (real constant "1/2" w+1))').build()
    sched = TruncationSchedule.default(2)
    eng = Engine()
    eng.eval_enclosure(phi, builtin_suite()[0], sched)
    eng.truncation_value(phi, builtin_suite()[0], sched)
    assert calls and len(calls) <= 2 * len(set(calls))
    calls.clear()
    assert str(classify(phi)) == "Sigma w+1"
    assert calls and len(calls) == len(set(calls))


def test_limit_member_reads_one_member_value(monkeypatch):
    # member_value is monotone in n, so a limit member needs only its own
    # value, not a running extremum over members 0..n; a successor member
    # reads its own value too, through the same child(n)
    calls = {"value": 0, "member": 0}
    value = RationalSource.member_value

    def counting_value(self, n):
        calls["value"] += 1
        return value(self, n)

    def counting_member(self, params, n, _member=StepGenerator.member):
        calls["member"] += 1
        return _member(self, params, n)

    monkeypatch.setattr(RationalSource, "member_value", counting_value)
    monkeypatch.setattr(StepGenerator, "member", counting_member)
    phi = parse_recipe('(numeral right w^2 (real leveled right w^2 '
                       '(members constant "1/2")))').build()
    Engine().eval_enclosure(phi, builtin_suite()[0], TruncationSchedule.default(8))
    assert calls["member"] > 0
    assert calls["value"] == calls["member"]


def _rational_recipe(side, level, form, value):
    """A recipe of one rational-source form at a level: the unsided
    constant, or the sided geometric (successor) or leveled (limit) form."""
    value = sexpr.quote(str(value))
    if form == "constant":
        source = "(real constant %s %s)" % (value, level)
    elif parse_ordinal(level).is_limit():
        source = "(real leveled %s %s (members %s %s))" % (side, level, form, value)
    else:
        source = "(real geometric %s %s %s)" % (side, level, value)
    return "(numeral %s %s %s)" % (side, level, source)


@seed(27)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from([LEFT, RIGHT]),
       st.sampled_from(["2", "3", "w", "w+1", "w*2"]),
       st.sampled_from(["constant", "geometric"]),
       st.integers(1, 12).flatmap(
           lambda d: st.integers(0, d).map(lambda n: F(n, d))),
       st.integers(1, 16))
def test_rational_source_bounds_contain_the_real(side, level, form, value, depth):
    # every suite space's enclosure holds the real, and all spaces agree;
    # on the first space the sound endpoint (hi of a right numeral, of Sigma
    # rank, lo of a left one) is no worse at twice the depth
    recipe = parse_recipe(_rational_recipe(side, level, form, value))
    phi, eng = recipe.build(), Engine()
    report = eng.independence_check(phi, builtin_suite(),
                                    TruncationSchedule.default(depth))
    assert report.agreement_ok
    for _, enc in report.entries:
        assert recipe.source.cmp_to(enc.lo.as_fraction()) >= 0
        assert recipe.source.cmp_to(enc.hi.as_fraction()) <= 0
    first = report.entries[0][1]
    deeper = eng.eval_enclosure(phi, builtin_suite()[0],
                                TruncationSchedule.default(2 * depth))
    if side == RIGHT:
        assert deeper.hi <= first.hi
    else:
        assert deeper.lo >= first.lo


# verify of geometric leveled recipes whose verdicts once flipped with depth:
# limit-members families declared the successor order, so the shortcut
# could skip a tighter member between its three samples. The right w cell
# failed the monotone check at depths 8 and 32, its sound endpoint rising
# with depth; the left cells at 8 took the end member's estimate and missed
# the tolerance
@pytest.mark.parametrize("side, level, depth", [
    (RIGHT, "w", 8), (RIGHT, "w", 32), (LEFT, "w", 8), (LEFT, "w*2", 8)])
def test_geometric_leveled_verdicts_hold_at_every_depth(side, level, depth):
    recipe = parse_recipe(_rational_recipe(side, level, "geometric", F(1, 3)))
    assert Engine().verify_recipe(recipe, builtin_suite(), depth, 6).ok


def test_fundamental_sequence_map():
    assert OMEGA.fundamental(5) == from_int(5)
    assert parse_ordinal("w^2").fundamental(3) == parse_ordinal("w*3")
    assert not from_int(3).is_limit()
    with pytest.raises(ValueError):
        from_int(3).fundamental(0)


def test_build_level_one():
    phi = build_numeral(RIGHT, from_int(1), constant(F(1, 2), from_int(1)))
    assert phi.code == '(cinf (gen dyadic-upper-cut "1/2"))'


def test_build_level_one_left_half_value():
    phi = build_numeral(LEFT, from_int(1), constant(F(1, 2), from_int(1)))
    eng = Engine()
    tv = eng.truncation_value(phi, builtin_suite()[0],
                              TruncationSchedule.uniform(64))
    assert tv == Dyadic(31, 6)


def test_build_level_two():
    src = sigma2_predicate("geometric-above", "1/3")
    phi = build_numeral(RIGHT, from_int(2), src)
    assert isinstance(phi, CInf)
    assert phi.family.generator == "successor-members"
    child = phi.family.member(0)
    assert isinstance(child, CSup)
    assert child.family.generator == "staged-approx"


def test_build_limit_level():
    phi = build_numeral(RIGHT, OMEGA, constant(F(1, 2), OMEGA))
    assert isinstance(phi, CInf)
    assert phi.family.generator == "limit-members"
    first = phi.family.member(0)
    assert first.code == '(cinf (gen dyadic-upper-cut "1/2"))'
    third = phi.family.member(3)
    assert isinstance(third, CInf)
    assert third.family.generator == "successor-members"


def test_build_guards():
    src = sigma2_predicate("geometric-above", "1/3")
    with pytest.raises(BuildError):
        build_numeral(LEFT, from_int(2), src)
    with pytest.raises(BuildError):
        build_numeral(RIGHT, from_int(3), src)
    with pytest.raises(BuildError):
        build_numeral(RIGHT, from_int(0), constant(F(0), from_int(0)))
    with pytest.raises(BuildError):
        build_numeral("up", from_int(1), constant(F(0), from_int(1)))


def test_recipe_round_trip():
    texts = ['(numeral right 1 (real builtin "1/3"))',
             '(numeral left 2 (real sigma2-left geometric-below "2/3"))',
             '(numeral right w (real leveled right w (members constant "1/2")))']
    for text in texts:
        recipe = parse_recipe(text)
        assert recipe.descriptor == text
        assert not free_vars(recipe.build())


def test_recipe_build_matches_driver():
    recipe = parse_recipe('(numeral right 1 (real builtin "1/3"))')
    assert recipe.build().code == '(cinf (gen dyadic-upper-cut "1/3"))'


def test_recipe_rejects():
    for text in ['(recipe right 1 (real builtin "1/3"))',
                 '(numeral up 1 (real builtin "1/3"))',
                 '(numeral right spam (real builtin "1/3"))',
                 '(numeral right 1)',
                 'numeral']:
        with pytest.raises(BuildError):
            parse_recipe(text)
    with pytest.raises(RealSourceError):
        parse_recipe('(numeral right 1 (real mystery "1/3"))')
    with pytest.raises(BuildError):
        parse_recipe('(numeral right 2 (real builtin "1/3"))').build()


def test_incoherent_step_rejected_when_built():
    # build_numeral checks a step as it makes it, as parse does, instead of
    # leaving the error to the family's first member; it refuses each
    # RationalSource whose descriptor does not read it back
    def read_back(source):
        try:
            return reals._source_from(sexpr.read(source.descriptor))
        except RealSourceError:
            return None

    level_one = "cannot build a level-1 numeral from RationalSource"
    for level, side, scheme, error, message in (
            (from_int(3), RIGHT, "constant", RealSourceError,
             "cannot lift RationalSource at level 3"),
            (LEVEL_ONE, RIGHT, "constant", BuildError, level_one),
            (LEVEL_ONE, RIGHT, "geometric", BuildError, level_one),
            (LEVEL_ONE, None, "geometric", BuildError, level_one),
            (from_int(3), None, "geometric", RealSourceError,
             "cannot lift RationalSource at level 3"),
            (OMEGA, None, "geometric", RealSourceError,
             "limit decomposition needs a leveled source"),
            (from_int(0), None, "constant", BuildError,
             "numerals start at level 1")):
        source = RationalSource(side, level, scheme, F(1, 3))
        assert read_back(source) != source
        with pytest.raises(error) as err:
            build_numeral(RIGHT, level, source)
        assert str(err.value) == message


def test_step_params_text():
    succ = StepParams(RIGHT, RationalSource(RIGHT, from_int(3), "geometric", F(1, 3)))
    assert str(succ) == '(succ right 3 (real geometric right 3 "1/3"))'
    lim = StepParams(LEFT, RationalSource(LEFT, OMEGA, "constant", F(1, 2)))
    assert str(lim) == \
        '(limit left w (real leveled left w (members constant "1/2")))'
    # successor members declare their order; limit members declare none
    assert StepGenerator().monotone(succ) == "nonincreasing"
    assert StepGenerator().monotone(lim) is None


# the recipes of the benchmark ladder (perfbench/spec.json), then the corpus
LADDER_RECIPES = (
    '(numeral right 1 (real builtin "sqrt-half"))',
    '(numeral right 1 (real builtin "1/3"))',
    '(numeral right 2 (real sigma2-right geometric-above "1/3"))',
    '(numeral left 2 (real sigma2-left lagged-below "2/3"))',
    '(numeral right 3 (real geometric right 3 "1/3"))',
    '(numeral right w (real leveled right w (members constant "1/2")))',
    '(numeral right w+1 (real constant "1/2" w+1))',
    '(numeral right w*2 (real leveled right w*2 (members constant "1/2")))',
    '(numeral right w^2 (real leveled right w^2 (members constant "1/2")))',
)
CORPUS_RECIPES = RIGHT_CORPUS + LEFT_CORPUS + (
    '(numeral left 3 (real geometric left 3 "2/3"))',
    '(numeral left w (real leveled left w (members constant "1/2")))',
    '(numeral left w+1 (real constant "1/2" w+1))',
)


def test_sigma2_recipe_sources_are_what_staged_children_read():
    # a sigma-2 recipe's source is the one value its step family holds and
    # each staged child's params read their extraction from
    sigma2 = [parse_recipe(text) for text in CORPUS_RECIPES + LADDER_RECIPES
              if "(real sigma2-" in text]
    assert len(sigma2) == 10
    for recipe in sigma2:
        phi = recipe.build()
        assert parse_recipe(recipe.descriptor) == recipe
        assert parse(phi.code).code == phi.code
        assert phi.family.params.source == recipe.source
        for n in (0, 5):
            assert phi.family.member(n).family.params.pred == recipe.source


def _family_tree(phi, levels):
    """phi, then members 0-3 of its family, `levels` families down."""
    out = [phi]
    if levels and isinstance(phi, (CInf, CSup)):
        for n in range(4):
            out += _family_tree(phi.family.member(n), levels - 1)
    return out


def test_codes_round_trip():
    # parse makes the params a builder hands over from the code's text alone
    for text in LADDER_RECIPES + CORPUS_RECIPES:
        for m in _family_tree(parse_recipe(text).build(), 2):
            back = parse(m.code)
            assert back == m, m.code
            assert back.code == m.code
            assert classify(back) == classify(m)


MALFORMED_PARAMS = (
    ('(cinf (gen successor-members "(succ right 2)"))',
     "successor params must be (succ side level descriptor)"),
    ('(csup (gen limit-members '
     '"(limit right 3 (real geometric right 3 \\"1/3\\"))"))',
     "limit decomposition needs a leveled source"),
    ('(csup (gen staged-approx "(stage nope \\"1/3\\" 1)"))',
     "unknown predicate 'nope'"),
    ('(cinf (gen dyadic-upper-cut "7/3"))', "builtin real 7/3 outside [0,1]"),
    ('(cinf (gen staged-approx "(stage geometric-above \\"1/3\\" -1)"))',
     "stage index must be a nonnegative integer, got '-1'"),
    ('(cinf (gen dyadic-upper-cut "\u0663/8"))',
     "unknown builtin real '\u0663/8'"),
    ('(csup (gen staged-approx "(stage geometric-above \\"1_1/16\\" 1)"))',
     "predicate parameter '1_1/16' is not rational"),
)
MALFORMED_IDS = ("succ", "limit", "stage", "cut", "stage-index",
                 "cut-non-ascii", "stage-underscore")


@pytest.mark.parametrize("code, message", MALFORMED_PARAMS, ids=MALFORMED_IDS)
def test_malformed_params_rejected_at_parse(code, message):
    with pytest.raises((BuildError, RealSourceError)) as err:
        parse(code)
    assert str(err.value) == message


def test_members_read_no_text(monkeypatch):
    # members are built from the family's params, never from text: the only
    # text read is the recipe, and no target is parsed at all, since level-1
    # constants make their cut target from the value
    calls = {}
    for module, name in ((sexpr, "read"), (reals, "parse_target")):
        def counting(text, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(text)
        monkeypatch.setattr(module, name, counting)
    space = builtin_suite()[0]
    for depth in (4, 8, 16):
        calls.update(read=0, parse_target=0)
        phi = parse_recipe('(numeral right 3 (real geometric right 3 "1/3"))')
        Engine().eval_enclosure(phi.build(), space,
                                TruncationSchedule.default(depth))
        assert calls == {"read": 1, "parse_target": 0}


def test_padded_target_shares_its_cut():
    # the recipe's target text and the family's params text name one cut,
    # so padding round the target changes neither the code nor the values
    space = builtin_suite()[0]
    for side, code in ((RIGHT, '(cinf (gen dyadic-upper-cut "1/3"))'),
                       (LEFT, '(csup (gen dyadic-lower-cut "1/3"))')):
        padded, plain = (
            parse_recipe('(numeral %s 1 (real builtin "%s"))' % (side, text)).build()
            for text in (" 1/3", "1/3"))
        assert padded.code == plain.code == code
        sched = TruncationSchedule.uniform(64)
        assert Engine().eval_enclosure(padded, space, sched) == \
            Engine().eval_enclosure(plain, space, sched)
