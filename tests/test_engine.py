import importlib
import json
import os
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from numerals import formulas
from numerals.builders import (EXISTS, FORALL, build_numeral, dyadic_numeral,
                               parse_recipe)
from numerals.cli import main
from numerals.dyadics import (Dyadic, Enclosure, ONE, ZERO, dotminus,
                              from_fraction, neg)
from numerals.engine import (Engine, EngineError, SandwichError,
                             TruncationSchedule)
from numerals.formulas import (Atomic, CInf, CSup, DotMinus, ExplicitFamily,
                               GeneratedFamily, Half, InfQ, Neg, PI, Rank,
                               SIGMA, SupQ, parse, register_generator)
from numerals.ordinals import from_int
from numerals.reals import LEFT, LEVEL_ONE, RIGHT, CutEnumerator, parse_target
from numerals.spaces import builtin_suite, from_entries, load_space

F = Fraction
TESTS = os.path.dirname(os.path.abspath(__file__))
POINT, PAIR, PATH5 = builtin_suite()[:3]


def get_cut(text, side):
    return CutEnumerator(parse_target(text), side)


def dn(num, exp, flavor=EXISTS):
    return dyadic_numeral(Dyadic(num, exp), flavor)


def test_schedule_forms():
    assert TruncationSchedule.uniform(8).depths == (8,)
    assert TruncationSchedule.default(8).depths == (8, 32)
    assert TruncationSchedule([3, 7]).depths == (3, 7)


def test_schedule_rejects():
    with pytest.raises(ValueError):
        TruncationSchedule(())
    with pytest.raises(ValueError):
        TruncationSchedule((4, 0))
    with pytest.raises(ValueError):
        TruncationSchedule((-2,))


def test_eval_exact_constants():
    eng = Engine()
    for space in builtin_suite():
        assert eng.eval_exact(dn(0, 0), space) == ZERO
        assert eng.eval_exact(dn(3, 2), space) == Dyadic(3, 2)
        assert eng.eval_exact(dn(1, 0, FORALL), space) == ONE


def test_eval_exact_quantifiers():
    eng = Engine()
    diameter = parse("(sup x0 (sup x1 (dist x0 x1)))")
    assert eng.eval_exact(diameter, POINT) == ZERO
    assert eng.eval_exact(diameter, PAIR) == Dyadic(1, 1)
    assert eng.eval_exact(diameter, PATH5) == ONE
    radius = parse("(inf x0 (sup x1 (dist x0 x1)))")
    assert eng.eval_exact(radius, PATH5) == Dyadic(1, 1)


def test_eval_exact_partial_env():
    eng = Engine()
    body = parse("(sup x1 (dist x0 x1))")
    assert eng.eval_exact(body, PAIR, {0: 0}) == Dyadic(1, 1)
    assert eng.eval_exact(body, PATH5, {0: 2}) == Dyadic(1, 1)


def test_eval_exact_unbound():
    eng = Engine()
    with pytest.raises(EngineError, match="unbound variable x1"):
        eng.eval_exact(parse("(dist x0 x1)"), PAIR, {0: 0})


def test_eval_exact_rejects_infinitary():
    eng = Engine()
    phi = CInf(ExplicitFamily((dn(1, 1),)))
    for psi in (phi, Neg(phi)):
        with pytest.raises(EngineError, match="finitary formula, got CInf"):
            eng.eval_exact(psi, POINT)


def test_atomic_eval_count():
    eng = Engine()
    diameter = parse("(sup x0 (sup x1 (dist x0 x1)))")
    eng.eval_exact(diameter, PATH5)
    assert eng.atomic_evals == 25
    eng.eval_exact(diameter, PATH5)
    assert eng.atomic_evals == 25  # memoized


def test_memo_keys_keep_their_spaces_alive():
    # each space is dropped before the next is made, so a key on id(space)
    # alone could meet a new space at the freed address and read its table
    eng = Engine()
    diameter = parse("(sup x0 (sup x1 (dist x0 x1)))")
    for d in [Dyadic(num, 3) for num in range(1, 9)]:
        space = from_entries("pair", 2, [ZERO, d, ZERO])
        assert eng.eval_exact(diameter, space) == d
        del space


def test_tables_read_only_free_variables():
    # each finitary node is tabulated once per space over its own free
    # variables: the atomic's table is the 16 x 16 matrix, read once, not
    # once per binding of x0 above it; one memo entry per node
    eng = Engine()
    grid16 = builtin_suite()[3]
    phi = parse("(sup x0 (sup x1 (inf x2 (dist x1 x2))))")
    value = eng.eval_exact(phi, grid16)
    assert eng.atomic_evals == 256
    assert len(eng._memo) == 4
    assert eng.eval_exact(phi.body, grid16, {0: 3}) == value
    assert (eng.atomic_evals, len(eng._memo)) == (256, 4)


def test_open_formula_at_an_assignment_reads_its_atoms():
    # a finitary dotminus at a caller's environment is tabulated at the
    # points it reads: one entry, from one entry of each atom; over its five
    # free variables its table had 16^5 entries on grid16, about 0.25 s and
    # 52 MB, for the one entry the caller reads
    grid16 = builtin_suite()[3]
    phi = parse("(dotminus (dotminus (dist x0 x1) (dist x2 x3)) (dist x4 x0))")
    env = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
    eng = Engine()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        value = eng.eval_exact(phi, grid16, env)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = grid16.dist
    assert value == dotminus(dotminus(d[1][2], d[3][4]), d[5][1])
    assert eng.atomic_evals == 3
    assert elapsed < 0.01 and peak < 1 << 20


def test_quantifier_at_an_assignment_tabulates_its_open_variable():
    # the inf's body is tabulated over x4 alone, the one variable the
    # caller leaves open: 1 + 1 + 16 atom reads, where a table over all
    # five free variables read 768 and built 16^5 entries, about 0.2 s
    grid16 = builtin_suite()[3]
    phi = parse("(inf x4 (dotminus (dotminus (dist x0 x1) (dist x2 x3))"
                " (dist x4 x0)))")
    env = {0: 1, 1: 2, 2: 3, 3: 4}
    eng = Engine()
    start = time.perf_counter()
    value = eng.eval_exact(phi, grid16, env)
    elapsed = time.perf_counter() - start
    rows = [[d.as_fraction() for d in row] for row in grid16.dist]
    assert value.as_fraction() == _reference(phi, rows, env)
    assert eng.atomic_evals <= 18 and elapsed < 0.01


def test_finitary_member_keys_only_the_bindings_it_reads():
    # under x0 and x1 the member's (half (dist x1 x1)) reads x1 alone, so
    # it keys one table per point of x1, where one per binding of both
    # kept 256 memo entries
    grid16 = builtin_suite()[3]
    phi = parse("(inf x0 (sup x1 (cinf (list (dotminus (dist x0 x1)"
                " (half (dist x1 x1))) (neg (dist x0 x0))))))")
    eng = Engine()
    assert eng.eval_enclosure(phi, grid16, TruncationSchedule.default(4)) \
        == Enclosure(ZERO, Dyadic(3, 2))
    node = parse("(half (dist x1 x1))")
    assert sum(key[0] is node for key in eng._memo) <= 16


def test_closed_finitary_node_is_read_from_its_table_at_any_binding():
    # each member of the cut family is a closed dyadic numeral: under the
    # point quantifier it is read from its one-entry table at every binding
    # of x1, where walking it node by node left 196 memo entries
    eng = Engine()
    grid16 = builtin_suite()[3]
    phi = parse('(sup x1 (cinf (gen dyadic-upper-cut "1/3")))')
    assert eng.eval_enclosure(phi, grid16, TruncationSchedule.default(64)) \
        == Enclosure(ZERO, Dyadic(11, 5))
    assert len(eng._memo) <= 31


# one recipe per level of the benchmark ladder, at a depth with a frozen row
LADDER = [
    ('(numeral right 1 (real builtin "sqrt-half"))', "256"),
    ('(numeral right 2 (real sigma2-right geometric-above "1/3"))', "16"),
    ('(numeral right 3 (real geometric right 3 "1/3"))', "8"),
    ('(numeral right w (real leveled right w (members constant "1/2")))', "4"),
    ('(numeral right w+1 (real constant "1/2" w+1))', "1"),
    ('(numeral right w*2 (real leveled right w*2 (members constant "1/2")))',
     "1"),
    ('(numeral right w^2 (real leveled right w^2 (members constant "1/2")))',
     "1"),
]


def test_walks_print_no_code(monkeypatch, capsys):
    # memo keys are nodes, so with the code printer raising, verify of each
    # ladder level prints its frozen structured report, and random-eval
    # items (24 formulas) give the values of the bench's exact oracle
    def refuse(term):
        raise AssertionError("a code was printed")

    with open(os.path.join(TESTS, "verify_surface.json"),
              encoding="ascii") as table:
        frozen = {tuple(argv): (code, out)
                  for argv, code, out, _ in json.load(table)}
    monkeypatch.setattr(formulas, "code_of", refuse)
    for recipe, depth in LADDER:
        argv = ("verify", recipe, "--depth", depth, "--format", "structured")
        code = main(list(argv))
        assert (code, capsys.readouterr().out) == frozen[argv]
    monkeypatch.syspath_prepend(os.path.join(TESTS, os.pardir, "perfbench"))
    randomeval = importlib.import_module("randomeval")
    eng = Engine()
    for item in randomeval.items(1, 4):
        values = []
        for space in map(load_space, item["spaces"]):
            for form in item["formulas"]:
                phi = parse(form["code"])
                if form["depths"] is None:
                    values.append(str(eng.eval_exact(phi, space)))
                    continue
                for depth in form["depths"]:
                    sched = TruncationSchedule.uniform(depth)
                    enc = eng.eval_enclosure(phi, space, sched)
                    values.append("%s %s" % (enc.lo, enc.hi))
                    values.append(str(eng.truncation_value(phi, space, sched)))
        assert values == item["expected"]


class _OutOfRange(Exception):
    pass


def _reference(phi, rows, env, k=None):
    """phi's value at one assignment, over Fractions, walking in code order:
    the first free occurrence without a point raises. A CInf / CSup takes
    the inf / sup of its family's first k members."""
    def point(var):
        if var not in env:
            raise EngineError("unbound variable x%d" % var)
        if not 0 <= env[var] < len(rows):
            raise _OutOfRange(var)
        return env[var]
    if isinstance(phi, Atomic):
        i = point(phi.left)
        return rows[i][point(phi.right)]
    if isinstance(phi, Neg):
        return 1 - _reference(phi.body, rows, env, k)
    if isinstance(phi, Half):
        return _reference(phi.body, rows, env, k) / 2
    if isinstance(phi, DotMinus):
        a = _reference(phi.left, rows, env, k)
        return max(a - _reference(phi.right, rows, env, k), 0)
    if isinstance(phi, (CInf, CSup)):
        op = min if isinstance(phi, CInf) else max
        return op(_reference(m, rows, env, k) for m in phi.family.members[:k])
    op = min if isinstance(phi, InfQ) else max
    return op(_reference(phi.body, rows, {**env, phi.var: p}, k)
              for p in range(len(rows)))


def _finitary(depth):
    var = st.integers(0, 2)
    atom = st.builds(Atomic, var, var)
    if depth == 0:
        return atom
    sub = _finitary(depth - 1)
    return st.one_of(atom, st.builds(Neg, sub), st.builds(Half, sub),
                     st.builds(DotMinus, sub, sub), st.builds(InfQ, var, sub),
                     st.builds(SupQ, var, sub))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tables_match_reference(data):
    # full, possibly asymmetric matrices with nonzero diagonals, so that a
    # transposed or mis-strided table reads a wrong entry; entries at
    # exponents 0..6, so that dotminus meets tables at different exponents
    # and half chains raise a table's exponent
    n = data.draw(st.integers(1, 4))
    entry = st.integers(0, 6).flatmap(
        lambda e: st.builds(Dyadic, st.integers(0, 1 << e), st.just(e)))
    grid = data.draw(st.lists(entry, min_size=n * n, max_size=n * n))
    space = from_entries("m", n, grid)
    rows = [[grid[i * n + j].as_fraction() for j in range(n)]
            for i in range(n)]
    phi = data.draw(_finitary(5))
    eng = Engine()  # shared by the environments, so its tables are reused
    for _ in range(data.draw(st.integers(1, 3))):
        env = dict(enumerate(data.draw(st.lists(st.integers(0, n - 1),
                                                min_size=3, max_size=3))))
        for var in data.draw(st.sets(st.integers(0, 2))):
            del env[var]  # partial environments
        stray = data.draw(st.none() | st.integers(0, 2))
        if stray is not None:
            env[stray] = data.draw(st.sampled_from((-1, n, n + 5)))
        try:
            want = _reference(phi, rows, env)
        except EngineError as err:
            with pytest.raises(EngineError) as got:
                eng.eval_exact(phi, space, env)
            assert str(got.value) == str(err)
        except _OutOfRange:
            with pytest.raises(EngineError, match="is not a point of"):
                eng.eval_exact(phi, space, env)
        else:
            assert eng.eval_exact(phi, space, env).as_fraction() == want


def test_enclosure_of_finitary_is_point():
    eng = Engine()
    enc = eng.eval_enclosure(dn(3, 2), PAIR, TruncationSchedule.uniform(4))
    assert enc.lo == enc.hi == Dyadic(3, 2)
    # A finitary sentence has one value whatever the schedule, and one memo
    # entry per node: after the exact pass no reading evaluates an atomic.
    phi = parse("(dotminus (sup x0 (sup x1 (dist x0 x1)))"
                " (half (inf x0 (sup x1 (dist x0 x1)))))")
    val = eng.eval_exact(phi, PATH5)
    assert val == Dyadic(3, 2)
    evals = eng.atomic_evals
    only = CInf(ExplicitFamily((phi,)))
    for sched in (TruncationSchedule.uniform(1), TruncationSchedule.uniform(8),
                  TruncationSchedule.default(4)):
        assert eng.eval_enclosure(phi, PATH5, sched) == Enclosure(val, val)
        assert eng.truncation_value(phi, PATH5, sched) == val
        assert eng.eval_enclosure(only, PATH5, sched) == Enclosure(ZERO, val)
        assert eng.truncation_value(only, PATH5, sched) == val
    assert eng.atomic_evals == evals


def test_explicit_cinf_one_sided():
    eng = Engine()
    fam = ExplicitFamily((dn(1, 1), dn(1, 2), dn(3, 2)))
    full = eng.eval_enclosure(CInf(fam), POINT, TruncationSchedule.uniform(3))
    assert full == Enclosure(ZERO, Dyadic(1, 2))
    shallow = eng.eval_enclosure(CInf(fam), POINT, TruncationSchedule.uniform(1))
    assert shallow == Enclosure(ZERO, Dyadic(1, 1))
    capped = eng.eval_enclosure(CInf(fam), POINT, TruncationSchedule.uniform(50))
    assert capped == full


def test_explicit_csup_one_sided():
    eng = Engine()
    fam = ExplicitFamily((dn(1, 1, FORALL), dn(3, 2, FORALL)))
    enc = eng.eval_enclosure(CSup(fam), POINT, TruncationSchedule.uniform(2))
    assert enc == Enclosure(Dyadic(3, 2), ONE)


def test_cut_numeral_enclosures():
    eng = Engine()
    upper = parse('(cinf (gen dyadic-upper-cut "1/3"))')
    lower = parse('(csup (gen dyadic-lower-cut "1/3"))')
    sched = TruncationSchedule.uniform(64)
    assert eng.eval_enclosure(upper, POINT, sched) == \
        Enclosure(ZERO, Dyadic(11, 5))
    assert eng.eval_enclosure(lower, POINT, sched) == \
        Enclosure(Dyadic(21, 6), ONE)
    deep = TruncationSchedule.uniform(256)
    assert eng.eval_enclosure(upper, POINT, deep) == \
        Enclosure(ZERO, Dyadic(43, 7))
    assert eng.eval_enclosure(lower, POINT, deep) == \
        Enclosure(Dyadic(85, 8), ONE)


def test_neg_flips_enclosure():
    eng = Engine()
    upper = parse('(cinf (gen dyadic-upper-cut "1/3"))')
    sched = TruncationSchedule.uniform(64)
    enc = eng.eval_enclosure(Neg(upper), POINT, sched)
    assert enc == Enclosure(Dyadic(21, 5), ONE)


def test_monotone_shortcut_matches_full_scan(monkeypatch):
    fam = parse('(csup (gen staged-approx '
                '"(stage geometric-above \\"1/3\\" 11)"))').family
    explicit = ExplicitFamily(tuple(fam.member(t) for t in range(16)))
    eng = Engine()
    sched = TruncationSchedule.uniform(16)
    fast = eng.eval_enclosure(CSup(fam), POINT, sched)
    slow = eng.eval_enclosure(CSup(explicit), POINT, sched)
    assert fast == slow
    assert eng.truncation_value(CSup(fam), POINT, sched) == \
        eng.truncation_value(CSup(explicit), POINT, sched) == fast.lo
    # step families, whose members have interval enclosures: the root family
    # against an explicit family of the same prefix, in every structure
    calls = _count_requests(monkeypatch)
    sched = TruncationSchedule.default(8)
    for name, (recipe, shortcut) in STEP_RECIPES.items():
        phi = parse_recipe(recipe).build()
        scan = type(phi)(ExplicitFamily(tuple(phi.family.member(n)
                                              for n in range(8))))
        for space in builtin_suite():
            eng = Engine()
            calls.clear()
            fast = (eng.eval_enclosure(phi, space, sched),
                    eng.truncation_value(phi, space, sched))
            picked = {n for fam, n in calls if fam == phi.family}
            assert picked == ({0, 4, 7} if shortcut else set(range(8))), name
            assert fast == (eng.eval_enclosure(scan, space, sched),
                            eng.truncation_value(scan, space, sched)), name


# name -> (recipe, whether the shortcut takes its root family at default(8));
# the limit-members families of w leave the declared order and are scanned
STEP_RECIPES = {
    "right 2": ('(numeral right 2 (real sigma2-right geometric-above "1/3"))',
                True),
    "left 2": ('(numeral left 2 (real sigma2-left lagged-below "2/3"))', True),
    "right 3": ('(numeral right 3 (real geometric right 3 "1/3"))', True),
    "left 3": ('(numeral left 3 (real geometric left 3 "2/3"))', True),
    "right w": ('(numeral right w (real leveled right w '
                '(members constant "1/2")))', False),
    "left w": ('(numeral left w (real leveled left w '
               '(members constant "1/2")))', False),
    "right w+1": ('(numeral right w+1 (real constant "1/2" w+1))', True),
    "left w+1": ('(numeral left w+1 (real constant "1/2" w+1))', True),
}


def _count_requests(monkeypatch):
    """Records (family, n) of every generated member request from now on."""
    calls = []
    member = GeneratedFamily.member

    def counting(self, n):
        calls.append((self, n))
        return member(self, n)

    monkeypatch.setattr(GeneratedFamily, "member", counting)
    return calls


@pytest.mark.parametrize("name, depths", [
    ("right 3", (16, 32)), ("left 3", (16, 32)), ("right w", (16, 32)),
    ("left w", (16, 32)), ("right w+1", (8, 16)), ("left w+1", (8, 16))])
def test_member_requests_grow_linearly_in_depth(monkeypatch, name, depths):
    # the shortcut walks three members of each successor family, so doubling
    # the depth about doubles the member requests; a full scan of every
    # family quadruples them (d * (4d)^(k-2) at level k)
    calls = _count_requests(monkeypatch)
    counts = []
    for depth in depths:
        phi = parse_recipe(STEP_RECIPES[name][0]).build()
        sched = TruncationSchedule.default(depth)
        calls.clear()
        eng = Engine()
        eng.eval_enclosure(phi, POINT, sched)
        eng.truncation_value(phi, POINT, sched)
        counts.append(len(calls))
    assert counts[1] <= 2.5 * counts[0], counts


def _interleaved(text, side, count):
    """The first count members of a cut family in their interleaved form:
    hit k at index 2k and the endpoint constant at the odd indices, or the
    endpoint throughout for a cut with no hits."""
    cut = get_cut(text, side)
    flavor, end = (EXISTS, ONE) if side == RIGHT else (FORALL, ZERO)
    return ExplicitFamily(tuple(
        dyadic_numeral(end if n % 2 or cut.trivial else cut.hit(n // 2),
                       flavor)
        for n in range(count)))


cut_targets = st.one_of(
    st.integers(1, 64).flatmap(
        lambda d: st.integers(0, d).map(lambda n: str(F(n, d)))),
    st.sampled_from(["sqrt-half", "0", "1"]))


@settings(max_examples=100, deadline=None)
@given(cut_targets, st.sampled_from([LEFT, RIGHT]), st.integers(1, 600),
       st.sampled_from([TruncationSchedule.uniform,
                        TruncationSchedule.default]),
       st.sampled_from(["point", "grid16"]))
def test_cut_running_extrema_match_interleaved_scan(text, side, count,
                                                    schedule, space_name):
    # the cut family's running extrema, walked through the monotone
    # shortcut, give the enclosure and estimate of a full scan of the
    # interleaved hits and endpoints
    space = next(sp for sp in builtin_suite() if sp.name == space_name)
    sched = schedule(count)
    phi = build_numeral(side, LEVEL_ONE, parse_target(text))
    scan = type(phi)(_interleaved(text, side, count))
    eng = Engine()
    assert (eng.eval_enclosure(phi, space, sched),
            eng.truncation_value(phi, space, sched)) == \
        (eng.eval_enclosure(scan, space, sched),
         eng.truncation_value(scan, space, sched))


def test_level_one_verify_requests_few_cut_members(monkeypatch):
    # three members per cut family and schedule, where a scan of the
    # interleaved family asks for every member on every space (87,044)
    calls = _count_requests(monkeypatch)
    recipe = parse_recipe('(numeral right 1 (real builtin "sqrt-half"))')
    assert Engine().verify_recipe(recipe, builtin_suite(), 16384, 6).ok
    cut = [n for fam, n in calls if fam.generator == "dyadic-upper-cut"]
    assert len(cut) <= 64, len(cut)


@dataclass(frozen=True)
class _Listed:
    """Params of the test-listed generator: a declared direction and the
    members, the last repeating past the end."""

    direction: str
    members: tuple

    def __str__(self):
        return " ".join((self.direction,) + tuple(m.code for m in self.members))


class _ListedGenerator:
    def member(self, params, n):
        return params.members[min(n, len(params.members) - 1)]

    def level_bound(self, params):
        return from_int(3)

    def monotone(self, params):
        return params.direction


register_generator("test-listed", _ListedGenerator())


def _capped(a, b):
    """A CInf member with enclosure [0, b] and estimate min(a, b), for a, b
    in [0, 1]: its sound endpoint and its estimate can move apart."""
    return CInf(ExplicitFamily((CSup(ExplicitFamily((_dq(a),))), _dq(b))))


def _floored(a, b):
    """The dual CSup member: enclosure [1 - b, 1], estimate 1 - min(a, b)."""
    return CSup(ExplicitFamily((CInf(ExplicitFamily((_dq(1 - a),))),
                                _dq(1 - b))))


def _dq(x):
    return dyadic_numeral(from_fraction(F(x)), EXISTS)


def _shortcut_and_scan(node, direction, members):
    """(enclosure, estimate) of node over a generated family that declares
    direction, and of node over an explicit family of the same members."""
    sched = TruncationSchedule.uniform(len(members))
    eng = Engine()
    return [(eng.eval_enclosure(phi, POINT, sched),
             eng.truncation_value(phi, POINT, sched))
            for phi in (node(GeneratedFamily("test-listed",
                                             _Listed(direction, members))),
                        node(ExplicitFamily(members)))]


# (a, b) of 8 _capped members by index, None for the rest; the shortcut
# samples 0, 4 and 7. Estimates out of order, sound endpoints in order: the
# end member's estimate is 1/2 while the prefix minimum is 0.
ESTIMATES_OUT = {0: (0, F(1, 2)), 4: (F(1, 4), F(1, 2)), 7: (F(1, 2), F(1, 2)),
                 None: (F(3, 8), F(1, 2))}
# Sound endpoints out of order, estimates in order (all 0): the end member's
# upper bound is 3/4 while the prefix minimum is 1/4.
ENDPOINTS_OUT = {0: (0, F(1, 4)), 4: (0, F(1, 2)), 7: (0, F(3, 4)),
                 None: (0, F(5, 8))}


@pytest.mark.parametrize("table", [ESTIMATES_OUT, ENDPOINTS_OUT],
                         ids=["estimates-out", "endpoints-out"])
def test_shortcut_checks_both_orders(table):
    pairs = [table.get(n, table[None]) for n in range(8)]
    low_end = from_fraction(min(b for _, b in pairs))
    low_est = from_fraction(min(min(a, b) for a, b in pairs))
    fast, scan = _shortcut_and_scan(
        CInf, "nonincreasing", tuple(_capped(a, b) for a, b in pairs))
    assert fast == scan == (Enclosure(ZERO, low_end), low_est)
    fast, scan = _shortcut_and_scan(
        CSup, "nondecreasing", tuple(_floored(a, b) for a, b in pairs))
    assert fast == scan == (Enclosure(neg(low_end), ONE), neg(low_est))


unit_grid = st.integers(0, 8).map(lambda k: F(k, 8))
listed_member = st.one_of(st.builds(_dq, unit_grid),
                          st.builds(_capped, unit_grid, unit_grid),
                          st.builds(_floored, unit_grid, unit_grid))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([CInf, CSup]),
       st.sampled_from(["nonincreasing", "nondecreasing"]),
       st.lists(listed_member, min_size=4, max_size=9), st.booleans())
def test_shortcut_encloses_full_scan(node, direction, members, ordered):
    # whatever the declaration, the shortcut's enclosure holds the full
    # scan's, and its estimate. The declared end member stands in for the
    # prefix exactly when members 0, count // 2 and count - 1 are in the
    # declared order on both the sound endpoint and the estimate; otherwise
    # the result is the full scan's
    falling = direction == "nonincreasing"
    if ordered:
        members.sort(key=lambda m: _member_key(node, m), reverse=falling)
    (enc, est), scan = _shortcut_and_scan(node, direction, tuple(members))
    assert enc.lo <= scan[0].lo and scan[0].hi <= enc.hi
    assert enc.lo <= est <= enc.hi
    count = len(members)
    keys = [_member_key(node, members[n]) for n in (0, count // 2, count - 1)]
    if all([k[i] for k in keys] == sorted((k[i] for k in keys), reverse=falling)
           for i in (0, 1)):
        end, end_est = keys[-1] if (node is CInf) == falling else keys[0]
        scan = (Enclosure(ZERO, end) if node is CInf else Enclosure(end, ONE),
                end_est)
    assert (enc, est) == scan


def _member_key(node, member):
    """(sound endpoint, estimate) of a member under a CInf / CSup node."""
    sched = TruncationSchedule.uniform(9)
    eng = Engine()
    enc = eng.eval_enclosure(member, POINT, sched)
    return (enc.hi if node is CInf else enc.lo,
            eng.truncation_value(member, POINT, sched))


def test_truncation_value_diagonal():
    eng = Engine()
    fam = ExplicitFamily((dn(1, 1), dn(1, 2), dn(3, 2)))
    sched = TruncationSchedule.uniform(2)
    assert eng.truncation_value(CInf(fam), POINT, sched) == Dyadic(1, 2)
    assert eng.truncation_value(CSup(fam), POINT, sched) == Dyadic(1, 1)
    assert eng.truncation_value(Neg(CInf(fam)), POINT, sched) == Dyadic(3, 2)


closed = st.deferred(lambda: st.one_of(
    st.builds(lambda n: dn(n, 3), st.integers(0, 8)),
    st.builds(lambda n: dn(n, 3, FORALL), st.integers(0, 8)),
    st.builds(Neg, closed),
    st.builds(Half, closed),
    st.builds(DotMinus, closed, closed),
    st.builds(lambda f: InfQ(0, f), closed),
    st.builds(lambda f: SupQ(1, f), closed),
    st.builds(lambda ms: CInf(ExplicitFamily(tuple(ms))),
              st.lists(closed, min_size=1, max_size=4)),
    st.builds(lambda ms: CSup(ExplicitFamily(tuple(ms))),
              st.lists(closed, min_size=1, max_size=4)),
))


@settings(max_examples=120, deadline=None)
@given(closed, st.integers(1, 4))
def test_truncation_value_inside_enclosure(phi, depth):
    eng = Engine()
    sched = TruncationSchedule.uniform(depth)
    enc = eng.eval_enclosure(phi, PAIR, sched)
    tv = eng.truncation_value(phi, PAIR, sched)
    assert enc.lo <= tv <= enc.hi


def _interval_tree(var):
    """neg / half / dotminus / inf / sup trees over explicit cinf / csup
    families of dyadic numerals and of atomics on the variables var draws."""
    member = st.one_of(st.builds(lambda n: dn(n, 3), st.integers(0, 8)),
                       st.builds(Atomic, var, var))
    family = st.builds(lambda node, ms: node(ExplicitFamily(tuple(ms))),
                       st.sampled_from([CInf, CSup]),
                       st.lists(member, min_size=1, max_size=4))
    return st.recursive(family, lambda sub: st.one_of(
        st.builds(Neg, sub), st.builds(Half, sub),
        st.builds(DotMinus, sub, sub),
        st.builds(InfQ, var, sub), st.builds(SupQ, var, sub)), max_leaves=5)


quantifier = st.sampled_from([InfQ, SupQ])


@settings(max_examples=150, deadline=None)
@given(_interval_tree(st.integers(0, 1)), quantifier, quantifier,
       st.sampled_from([PAIR, PATH5]))
def test_enclosure_holds_untruncated_value(body, q0, q1, space):
    # at every depth k the bounds, mapped up from the truncated families by
    # each connective, hold the value at depth 4, where every family is
    # whole; the estimate is the value of the k-truncated formula
    phi = q0(0, q1(1, body))
    rows = [[d.as_fraction() for d in row] for row in space.dist]
    eng = Engine()
    truth = eng.truncation_value(phi, space, TruncationSchedule.uniform(4))
    for k in range(1, 5):
        sched = TruncationSchedule.uniform(k)
        enc = eng.eval_enclosure(phi, space, sched)
        assert enc.lo <= truth <= enc.hi
        assert eng.truncation_value(phi, space, sched).as_fraction() == \
            _reference(phi, rows, {}, k)


def test_sandwich_certifies():
    eng = Engine()
    left = parse_recipe('(numeral left 1 (real builtin "1/3"))').build()
    right = parse_recipe('(numeral right 1 (real builtin "1/3"))').build()
    enc = eng.sandwich(left, right, POINT, TruncationSchedule.uniform(256))
    assert enc == Enclosure(Dyadic(85, 8), Dyadic(43, 7))
    assert enc.lo.as_fraction() < F(1, 3) < enc.hi.as_fraction()


def test_sandwich_rejects_mismatched_pair():
    eng = Engine()
    left = parse_recipe('(numeral left 1 (real builtin "2/3"))').build()
    right = parse_recipe('(numeral right 1 (real builtin "1/3"))').build()
    with pytest.raises(SandwichError):
        eng.sandwich(left, right, POINT, TruncationSchedule.uniform(256))


def test_independence_agreement():
    eng = Engine()
    phi = parse_recipe('(numeral right 1 (real builtin "1/3"))').build()
    report = eng.independence_check(phi, builtin_suite(),
                                    TruncationSchedule.uniform(64))
    assert report.agreement_ok
    assert len(report.entries) == 5
    assert len(report.agreement) == 10
    assert all(enc == report.entries[0][1] for _, enc in report.entries)


def test_independence_flags_value_drift():
    eng = Engine()
    diameter = parse("(sup x0 (sup x1 (dist x0 x1)))")
    report = eng.independence_check(diameter, builtin_suite()[:2],
                                    TruncationSchedule.uniform(4))
    assert not report.agreement_ok
    assert report.entries[0][1] != report.entries[1][1]


def test_classification_check():
    eng = Engine()
    recipe = parse_recipe('(numeral right 1 (real builtin "1/3"))')
    assert eng.classification_check(recipe, recipe.build())
    other = parse_recipe('(numeral left 1 (real builtin "1/3"))')
    assert not eng.classification_check(other, recipe.build())


def test_convergence_report_rows():
    eng = Engine()
    phi = parse_recipe('(numeral right 1 (real builtin "1/3"))').build()
    rows = eng.convergence_report(phi, POINT, (16, 64, 256))
    assert [r.depth for r in rows] == [16, 64, 256]
    his = [r.enclosure.hi for r in rows]
    assert his == sorted(his, reverse=True)
    assert [r.estimate for r in rows] == his
    assert F(1, 3) < rows[-1].estimate.as_fraction() \
        < rows[0].estimate.as_fraction()
    assert all(r.enclosure.width == r.enclosure.hi for r in rows)


class _BumpyGenerator:
    """Claims a falling value direction but rises between sampled prefixes."""

    values = {0: Dyadic(1, 0), 2: Dyadic(1, 1), 3: Dyadic(1, 2),
              8: Dyadic(3, 2), 15: Dyadic(1, 1)}

    def member(self, params, n):
        return dyadic_numeral(self.values.get(n, ONE), EXISTS)

    def level_bound(self, params):
        return from_int(1)

    def monotone(self, params):
        return "nonincreasing"


register_generator("test-bumpy", _BumpyGenerator())


class _BumpyLeftGenerator(_BumpyGenerator):
    """The left mirror: claims a rising value direction, and the lower
    bound taken from the sampled end member falls between prefixes."""

    values = {0: ZERO, 2: Dyadic(1, 1), 3: Dyadic(3, 2), 8: Dyadic(1, 2),
              15: Dyadic(1, 1)}

    def member(self, params, n):
        return dyadic_numeral(self.values.get(n, ZERO), FORALL)

    def monotone(self, params):
        return "nondecreasing"


register_generator("test-bumpy-left", _BumpyLeftGenerator())


def test_convergence_report_catches_false_monotonicity():
    eng = Engine()
    phi = CInf(GeneratedFamily("test-bumpy", ""))
    with pytest.raises(EngineError, match="upper bound rose"):
        eng.convergence_report(phi, POINT, (4, 16))


def test_convergence_checks_the_lower_bound_of_a_pi_sentence():
    # members 0, 2, 3 (depth 4) rise to 3/4; members 0, 8, 15 (depth 16)
    # rise to 1/2, so the end member's lower bound falls
    fell = "lower bound fell from 3/4 to 1/2 between depths 4 and 16"
    phi = CSup(GeneratedFamily("test-bumpy-left", ""))
    with pytest.raises(EngineError, match=fell):
        Engine().convergence_report(phi, POINT, (4, 16))
    rows, problem = Engine().convergence_rows(
        phi, POINT, [TruncationSchedule.uniform(n) for n in (4, 16)],
        Rank(PI, from_int(1)))
    assert problem == fell
    assert [(r.depth, r.enclosure.lo) for r in rows] == \
        [(4, Dyadic(3, 2)), (16, Dyadic(1, 1))]
    # under a Sigma rank only the upper endpoint counts, and it stays 1
    assert Engine().convergence_rows(
        phi, POINT, [TruncationSchedule.uniform(n) for n in (4, 16)],
        Rank(SIGMA, from_int(1)))[1] is None


def test_verify_recipe_level_one():
    eng = Engine()
    recipe = parse_recipe('(numeral right 1 (real builtin "1/3"))')
    report = eng.verify_recipe(recipe, builtin_suite(), 256, 6)
    assert report.ok
    assert report.agreement_ok and report.monotone_ok
    assert report.tolerance_ok and report.classification_ok
    assert report.classification_expected == Rank(SIGMA, from_int(1))
    assert report.convergence[-1].depth == 256


def test_verify_recipe_tolerance_fails_when_too_tight():
    eng = Engine()
    recipe = parse_recipe('(numeral right 1 (real builtin "1/3"))')
    report = eng.verify_recipe(recipe, builtin_suite(), 16, 10)
    assert not report.tolerance_ok
    assert not report.ok
    assert report.agreement_ok and report.classification_ok


def test_verify_recipe_level_two_estimates():
    # the monotone shortcut gives the estimates as well as the enclosures:
    # a full scan of the 1024 staged members under each of the 256 children
    # would take tens of seconds
    eng = Engine()
    recipe = parse_recipe(
        '(numeral right 2 (real sigma2-right geometric-above "1/3"))')
    report = eng.verify_recipe(recipe, builtin_suite(), 256, 6)
    assert [r.estimate for r in report.convergence] == \
        [Dyadic(15, 5), Dyadic(63, 7), Dyadic(191, 9)]


def test_engines_agree():
    sched = TruncationSchedule.default(32)
    phi = parse_recipe('(numeral left 1 (real builtin "sqrt-half"))').build()
    a = Engine().eval_enclosure(phi, PAIR, sched)
    b = Engine().eval_enclosure(phi, PAIR, sched)
    assert a == b
