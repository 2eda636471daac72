"""Independence by structure: a walk of one space that reads only the
diagonal gives every space's result, and each family member is built once
per verify; any other formula is walked on each space."""

import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, seed, settings, strategies as st

from numerals import formulas
from numerals.builders import EXISTS, FORALL, dyadic_numeral, parse_recipe
from numerals.cli import main
from numerals.dyadics import Dyadic, Enclosure
from numerals.engine import MAX_SPREAD, Engine, TruncationSchedule
from numerals.formulas import (Atomic, CInf, CSup, DotMinus, ExplicitFamily,
                               GeneratedFamily, Half, InfQ, Neg, SupQ,
                               free_vars, get_generator, parse,
                               register_generator)
from numerals.ordinals import from_int
from numerals.reals import SequenceExtraction
from numerals.spaces import builtin_suite, from_entries, random_repaired_space

SUITE = builtin_suite() + (random_repaired_space(2026, 6, name="seeded6"),)
GENERATORS = ("dyadic-upper-cut", "dyadic-lower-cut", "staged-approx",
              "successor-members", "limit-members")


class _Counting:
    """Stands in for a registered generator and counts its member requests."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = 0

    def member(self, params, n):
        self.requests += 1
        return self.inner.member(params, n)

    def level_bound(self, params):
        return self.inner.level_bound(params)

    def monotone(self, params):
        return self.inner.monotone(params)


@pytest.fixture
def counted():
    """{generator name: _Counting} registered for the test, then restored."""
    wrapped = {name: _Counting(get_generator(name)) for name in GENERATORS}
    for name, gen in wrapped.items():
        register_generator(name, gen)
    try:
        yield wrapped
    finally:
        for name, gen in wrapped.items():
            register_generator(name, gen.inner)


def test_verify_builds_each_member_once_for_the_suite(counted, capsys):
    # the walk of the first space, whose enclosure every space shares,
    # requests 7,929 members here; a walk per space requested 46,082, each of
    # the six spaces asking for every member again
    recipe = ('(numeral right w^2 (real leveled right w^2 '
              '(members constant "1/2")))')
    assert main(["verify", recipe, "--depth", "16"]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    requests = sum(gen.requests for gen in counted.values())
    assert 0 < requests <= 46082 // 4, requests


def test_staged_family_scans_its_rows_once(counted, monkeypatch):
    scans = []
    rows = SequenceExtraction.rows

    def counting(self, n):
        scans.append(n)
        return rows(self, n)

    monkeypatch.setattr(SequenceExtraction, "rows", counting)
    # a fresh node table, so no family an earlier test made holds the scan
    monkeypatch.setattr(formulas, "NODES", {})
    phi = parse('(csup (gen staged-approx '
                '"(stage geometric-above \\"1/3\\" 11)"))')
    report = Engine().independence_check(phi, SUITE,
                                         TruncationSchedule.uniform(16))
    assert report.agreement_ok
    # the shortcut's three picks on the first space, whose result every
    # space shares, from one row scan
    assert counted["staged-approx"].requests == 3
    assert scans == [11]


RECIPE_LEVELS = ("1", "2", "3", "w", "w+1", "w*2")
VALUES = ("0", "1/3", "1/2", "2/3", "1/8", "1")


@st.composite
def recipes(draw):
    """A recipe at one of RECIPE_LEVELS, on either side, of any source kind
    that level takes."""
    side = draw(st.sampled_from(("right", "left")))
    level = draw(st.sampled_from(RECIPE_LEVELS))
    value = draw(st.sampled_from(VALUES))
    kinds = ["constant"]
    if level == "1":
        kinds.append("builtin")
    elif level == "2":
        kinds.append("sigma2")
    if level in ("2", "3", "w+1"):
        kinds.append("geometric")
    if level in ("w", "w*2"):
        kinds.append("leveled")
    kind = draw(st.sampled_from(kinds))
    if kind == "builtin":
        source = '(real builtin "%s")' % draw(
            st.sampled_from(VALUES + ("sqrt-half",)))
    elif kind == "sigma2":
        name = draw(st.sampled_from(("geometric", "lagged")))
        name += "-above" if side == "right" else "-below"
        source = '(real sigma2-%s %s "%s")' % (side, name, value)
    elif kind == "constant":
        source = '(real constant "%s" %s)' % (value, level)
    elif kind == "geometric":
        source = '(real geometric %s %s "%s")' % (side, level, value)
    else:
        scheme = draw(st.sampled_from(("constant", "geometric")))
        source = '(real leveled %s %s (members %s "%s"))' % (
            side, level, scheme, value)
    return parse_recipe("(numeral %s %s %s)" % (side, level, source)).build()


def _dyadic(k):
    return dyadic_numeral(Dyadic(k, 3), EXISTS if k % 2 else FORALL)


def _closed(phi):
    for var in sorted(free_vars(phi)):
        phi = SupQ(var, phi)
    return phi


@dataclass(frozen=True)
class _Declared:
    """Params of the test-declared generator: a declared direction and the
    members, the last repeating past the end."""

    direction: str
    members: tuple

    def __str__(self):
        return " ".join((self.direction,) + tuple(m.code for m in self.members))


class _DeclaredGenerator:
    def member(self, params, n):
        return params.members[min(n, len(params.members) - 1)]

    def level_bound(self, params):
        return from_int(3)

    def monotone(self, params):
        return params.direction


register_generator("test-declared", _DeclaredGenerator())


def _declared(node, direction, members):
    return node(GeneratedFamily("test-declared", _Declared(direction,
                                                           tuple(members))))


# closed formulas over x0 and x1 with explicit families under quantifiers, so
# that spaces of different sizes take their own walks below a quantifier,
# and declared families of closed members whose values differ by space, so
# that the shortcut's order check fails on some spaces only
variables = st.integers(0, 1)
explicit = st.recursive(
    st.builds(Atomic, variables, variables)
    | st.builds(_dyadic, st.integers(0, 8)),
    lambda kids: st.one_of(
        st.builds(Neg, kids), st.builds(Half, kids),
        st.builds(DotMinus, kids, kids),
        st.builds(InfQ, variables, kids), st.builds(SupQ, variables, kids),
        st.builds(lambda ms: CInf(ExplicitFamily(tuple(ms))),
                  st.lists(kids, min_size=1, max_size=4)),
        st.builds(lambda ms: CSup(ExplicitFamily(tuple(ms))),
                  st.lists(kids, min_size=1, max_size=4)),
        st.builds(_declared, st.sampled_from((CInf, CSup)),
                  st.sampled_from(("nonincreasing", "nondecreasing")),
                  st.lists(kids.map(_closed), min_size=4, max_size=6))),
    max_leaves=8).map(_closed)
declared = st.builds(_declared, st.sampled_from((CInf, CSup)),
                     st.sampled_from(("nonincreasing", "nondecreasing")),
                     st.lists(explicit, min_size=4, max_size=6))


# random spaces of every size up to 8, placed before or after the suite, so
# that the walked first space varies, down to one point
extra_spaces = st.lists(st.builds(random_repaired_space, st.integers(0, 999),
                                  st.integers(1, 8)), max_size=3)


@seed(29)
@settings(max_examples=200, deadline=None)
@given(recipes() | explicit | declared, st.integers(1, 16),
       st.sampled_from((TruncationSchedule.uniform,
                        TruncationSchedule.default)),
       st.sets(st.sampled_from(range(len(SUITE)))), extra_spaces,
       st.booleans())
def test_independence_check_matches_walks_per_space(phi, depth, schedule,
                                                    first, extra, lead):
    # a numeral reads only d(x, x), so the walk of the first space gives
    # every space's enclosure; the other sentences, such as declared
    # families whose members differ by space, are walked on each space.
    # Either way each entry is that space's own walk. The spaces in first
    # are walked alone beforehand, so the check finds them in the memo
    spaces = tuple(extra) + SUITE if lead else SUITE + tuple(extra)
    sched = schedule(depth)
    eng = Engine()
    for i in sorted(first):
        eng.eval_enclosure(phi, SUITE[i], sched)
    report = eng.independence_check(phi, spaces, sched)
    for space, (name, enc) in zip(spaces, report.entries):
        lo, hi, est, _ = eng._walk(phi, space, (), sched.depths)
        fresh = Engine()
        assert (name, enc, est) == (
            space.name, fresh.eval_enclosure(phi, space, sched),
            fresh.truncation_value(phi, space, sched))
        assert enc == Enclosure(lo, hi)


@seed(30)
@settings(max_examples=50, deadline=None)
@given(recipes(), st.integers(1, 16))
def test_numerals_read_only_the_diagonal(phi, depth):
    # every sentence that builders makes has d(x0, x0) as its only atom, so
    # the check walks one space for it and shares the enclosure
    sched = TruncationSchedule.default(depth)
    assert not Engine()._walk(phi, SUITE[3], (), sched.depths)[3]


def test_off_diagonal_dyadic_base_fails_independence(monkeypatch, capsys):
    # zero numerals over d(x0, x1), the radius and the diameter, take a value
    # per space, and so does every numeral built on them: verify must walk
    # each space and see them disagree
    monkeypatch.setattr(formulas, "NODES", {
        (0, 0, EXISTS): InfQ(0, SupQ(1, Atomic(0, 1))),
        (0, 0, FORALL): SupQ(0, SupQ(1, Atomic(0, 1)))})
    assert main(["verify", '(numeral right 1 (real builtin "1/3"))']) == 1
    assert "independence: fail" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    "(sup x0 (sup x1 (dist x0 x1)))",
    "(csup (list (sup x0 (sup x1 (dist x0 x1))) (inf x0 (dist x0 x0))))"])
def test_memoized_off_diagonal_part_walks_each_space(text):
    # the diameter, tabulated or walked on the first space beforehand, is a
    # memo hit in the check's walk of that space; the hit still reports an
    # atom off the diagonal, so every space is walked on its own
    part = parse(text)
    phi = Neg(part)
    sched = TruncationSchedule.uniform(4)
    eng = Engine()
    eng.eval_enclosure(part, SUITE[0], sched)
    report = eng.independence_check(phi, SUITE, sched)
    assert not report.agreement_ok
    assert report.entries == tuple(
        (space.name, Engine().eval_enclosure(phi, space, sched))
        for space in SUITE)


def test_space_off_the_zero_diagonal_walks_on_its_own():
    # the lemma holds on metric spaces: an unvalidated point at distance 1/2
    # from itself gives the numeral another enclosure, so no space shares
    bad = from_entries("bad", 1, [Dyadic(1, 1)])
    phi = parse_recipe('(numeral right 1 (real builtin "1/3"))').build()
    sched = TruncationSchedule.default(8)
    report = Engine().independence_check(phi, SUITE + (bad,), sched)
    assert not report.agreement_ok
    assert report.entries[-1] == ("bad",
                                  Engine().eval_enclosure(phi, bad, sched))


def test_engine_keeps_no_long_spread_index():
    # five nested sups over grid16: the dotminus spreads each child onto
    # five variables, 16^5 entries, used once; the engine keeps none of
    # those index lists
    grid16 = builtin_suite()[3]
    phi = parse("(sup x0 (sup x1 (sup x2 (sup x3 (sup x4 (dotminus "
                "(dotminus (dist x0 x1) (dist x2 x3)) (dist x4 x0)))))))")
    tracemalloc.start()
    try:
        eng = Engine()
        assert eng.eval_exact(phi, grid16) == Dyadic(1)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(len(index) <= MAX_SPREAD for index in eng._spreads.values())
    assert retained < 15 * 2 ** 20, retained
