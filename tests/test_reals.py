import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice

import pytest
from hypothesis import example, given, settings, strategies as st

from numerals import reals, sexpr
from numerals.dyadics import Dyadic, from_fraction
from numerals.ordinals import OMEGA, from_int, parse_ordinal
from numerals.reals import (LEFT, RIGHT, CutEnumerator, RationalSource,
                            RealSourceError, SequenceExtraction,
                            StagedChildSource, check_step, clamp01, pair,
                            parse_target, rationals, sigma2_predicate, unpair)

from test_engine import cut_targets

F = Fraction


def read_source(text):
    """The real source of a (real ...) descriptor."""
    return reals.source_from(sexpr.read(text))


def constant(value, level):
    """The source of (real constant "value" level)."""
    return RationalSource(None, level, "constant", value)


def get_cut(text, side):
    return CutEnumerator(parse_target(text), side)


def limit_s(ex, m):
    """The exact s_m of an extraction, from its defining set: with
    (e, j) = unpair(m), q_j clamped to [0,1] when no x1 refutes R(e, x1, q_j),
    else the edge (1 on the right, 0 on the left)."""
    e, j = unpair(m)
    num, den = reals.q(j)
    if ex.neg_witness(e, num, den) is None:
        return clamp01(F(num, den))
    return F(1 if ex.side == RIGHT else 0)


def q_fraction(n):
    """q_n as a Fraction; the enumeration gives (num, den) pairs."""
    return F(*reals.q(n))


def fraction_walk():
    """rationals() read through Fraction."""
    return (F(num, den) for num, den in rationals())


def is_dyadic_fraction(q):
    return q.denominator & (q.denominator - 1) == 0


# the fixed interleaving of unit dyadics, zigzag integers and signed
# Calkin-Wilf fractions, frozen as a regression anchor
PREFIX = [F(0), F(1, 2), F(1), F(1, 4), F(1, 3), F(3, 4), F(-1), F(1, 8),
          F(-1, 3), F(3, 8), F(3, 2), F(5, 8), F(2, 3), F(7, 8), F(2),
          F(1, 16), F(-2, 3), F(3, 16), F(-1, 2), F(5, 16), F(4, 3),
          F(7, 16), F(5, 4), F(9, 16), F(-4, 3)]

unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=64)

PREDICATES = ["geometric-above", "lagged-above", "geometric-below",
              "lagged-below"]


def test_enumeration_prefix():
    assert [q_fraction(n) for n in range(25)] == PREFIX
    with pytest.raises(ValueError, match="negative enumeration index"):
        reals.q(-1)


def test_enumeration_injective_prefix():
    seen = [q_fraction(n) for n in range(400)]
    assert len(set(seen)) == 400


def test_pair_examples():
    assert pair(0, 0) == 0
    assert pair(3, 1) == 11
    assert unpair(11) == (3, 1)


@given(st.integers(0, 500), st.integers(0, 500))
def test_pair_unpair_round_trip(a, b):
    assert unpair(pair(a, b)) == (a, b)


@given(st.integers(0, 10 ** 6))
def test_unpair_pair_round_trip(n):
    a, b = unpair(n)
    assert pair(a, b) == n


def test_target_signs():
    third = parse_target("1/3")
    assert third.cmp_to(F(1, 4)) == 1
    assert third.cmp_to(F(1, 3)) == 0
    assert third.cmp_to(F(1, 2)) == -1
    root = parse_target("sqrt-half")
    assert root.cmp_to(F(5, 8)) == 1
    assert root.cmp_to(F(3, 4)) == -1
    assert root.cmp_to(F(1, 2)) == 1
    assert root.cmp_to(F(0)) == 1
    assert root.cmp_to(F(1)) == -1


def raw(cut, q):
    """Stage i of a cut's full walk over the enumeration, given q = q_i:
    q_i when it is in the cut, else None."""
    c = cut.target.cmp_to(q)
    if cut.side == RIGHT:
        return q if c < 0 else None
    return q if c > 0 else None


def padded(cut, n):
    """The first n stages of a cut's total enumeration: q_i when it is in
    the cut, else the element before it, starting from a far member of
    the cut (2 on the right, -1 on the left)."""
    out, last = [], F(2) if cut.side == RIGHT else F(-1)
    for q in islice(fraction_walk(), n):
        if raw(cut, q) is not None:
            last = q
        out.append(last)
    return out


def test_target_rejects():
    for text in ["spam", "3/2", "-1/4", "1/0", "\u0663/8", "1_1/16"]:
        with pytest.raises(RealSourceError):
            parse_target(text)


def test_right_cut_of_third():
    cut = get_cut("1/3", RIGHT)
    for q in padded(cut, 100):
        assert q > F(1, 3)
    assert [cut.hit(k) for k in range(6)] == \
        [Dyadic(1, 1), Dyadic(3, 2), Dyadic(3, 3), Dyadic(5, 3),
         Dyadic(7, 3), Dyadic(7, 4)]


def test_left_cut_of_third():
    cut = get_cut("1/3", LEFT)
    for q in padded(cut, 100):
        assert q < F(1, 3)
    assert [cut.hit(k) for k in range(6)] == \
        [Dyadic(1, 2), Dyadic(1, 3), Dyadic(1, 4), Dyadic(3, 4),
         Dyadic(5, 4), Dyadic(1, 5)]


def test_left_cut_of_half_deep_hit():
    assert get_cut("1/2", LEFT).hit(30) == Dyadic(31, 6)


def test_trivial_cut_has_no_unit_hits():
    cut = get_cut("1", RIGHT)
    for q in padded(cut, 100):
        assert q > 1
    cut = get_cut("0", LEFT)
    for q in padded(cut, 100):
        assert q < 0


def no_enumeration(monkeypatch):
    """Make any read of the enumeration fail the test."""
    def unreachable(*args):
        raise AssertionError("the enumeration was read")
    monkeypatch.setattr(reals, "q", unreachable)
    monkeypatch.setattr(reals, "rationals", unreachable)


def test_trivial_cut_hit_fails_at_once(monkeypatch):
    # no dyadic of (0,1) lies in the right cut of 1 or the left cut of 0, so
    # asking for one raises before any stage reads the enumeration
    no_enumeration(monkeypatch)
    for name, side in (("1", RIGHT), ("0", LEFT)):
        with pytest.raises(RealSourceError):
            get_cut(name, side).hit(0)
    assert get_cut("1", LEFT).hit(0) == Dyadic(1, 1)
    assert get_cut("0", RIGHT).hit(0) == Dyadic(1, 1)


def test_cut_hits_follow_raw_stages():
    left, right = get_cut("sqrt-half", LEFT), get_cut("sqrt-half", RIGHT)
    assert left.side == LEFT and right.side == RIGHT
    for cut in (left, right):
        stages = [raw(cut, q) for q in islice(fraction_walk(), 400)]
        units = [from_fraction(q) for q in stages if q is not None
                 and is_dyadic_fraction(q) and 0 < q < 1]
        assert len(units) >= 10
        assert [cut.hit(k) for k in range(len(units))] == units
        better = min if cut.side == RIGHT else max
        assert [cut.best(k) for k in range(len(units))] == \
            list(accumulate(units, better))


def test_cut_hits_skip_the_enumeration_memo(monkeypatch):
    # hits come from the odd stages, computed directly: a deep hit reads no
    # q_i at all (a walk over the stages would read 62,723 of them here)
    no_enumeration(monkeypatch)
    for side in (LEFT, RIGHT):
        cut = CutEnumerator(parse_target("sqrt-half"), side)
        cut.hit(8191)
        cut.best(8191)


def walked(cut, k):
    """Hits 0..k of a cut and their running extrema, by a walk over every
    stage of its enumeration: the reference for the closed form."""
    hits, stages = [], fraction_walk()
    while len(hits) <= k:
        q = raw(cut, next(stages))
        if q is not None and is_dyadic_fraction(q) and 0 < q < 1:
            hits.append(from_fraction(q))
    return hits, list(accumulate(hits, min if cut.side == RIGHT else max))


@settings(max_examples=100, deadline=None)
@given(cut_targets | st.sampled_from(["3/8", "1/64", "63/64"]),
       st.sampled_from([LEFT, RIGHT]), st.integers(0, 2000))
@example("3/8", LEFT, 2000)    # r * 2^L is an integer from level 3 on
@example("63/64", RIGHT, 2000)  # the fewest right hits per level
@example("1/64", LEFT, 2000)    # the fewest left hits per level
def test_closed_form_cut_matches_stage_walk(text, side, k):
    cut = get_cut(text, side)
    if cut.trivial:
        for read in (cut.hit, cut.best):
            with pytest.raises(RealSourceError):
                read(k)
        return
    hits, best = walked(cut, k)
    assert (cut.hit(k), cut.best(k)) == (hits[k], best[k])


def fraction_edge(cut, level):
    """lo_L on the right, hi_L on the left, with hi_L read through a
    Fraction comparison: the definition the int edges replace."""
    f = cut.target.floor_scaled(level)
    if cut.side == RIGHT:
        return f + 1
    return f - 1 if cut.target.cmp_to(F(f, 1 << level)) == 0 else f


def fraction_trivial(cut):
    if cut.side == RIGHT:
        return cut.target.cmp_to(F(1)) >= 0
    return cut.target.cmp_to(F(0)) <= 0


# rationals in [0,1], half of them dyadic, whose left edge sits one below
# r * 2^L from some level on
cut_values = (st.fractions(0, 1, max_denominator=1 << 20)
              | st.integers(0, 64).flatmap(
                  lambda e: st.integers(0, 1 << e).map(lambda a: F(a, 1 << e))))


@settings(max_examples=200, deadline=None)
@given(cut_values.map(str) | st.just("sqrt-half"),
       st.sampled_from([LEFT, RIGHT]), st.integers(0, 64))
@example("sqrt-half", LEFT, 0)
@example("3/8", LEFT, 3)
@example("0", LEFT, 0)
@example("1", RIGHT, 0)
def test_int_cut_edges_match_fraction_definitions(text, side, level):
    cut = get_cut(text, side)
    assert cut.trivial == fraction_trivial(cut)
    assert cut._edge(level) == fraction_edge(cut, level)


def fraction_constructions(call):
    """How many Fractions call() builds, counted as the Python-level calls
    of Fraction.__new__ and, where the class has it, _from_coprime_ints."""
    codes = {F.__new__.__code__}
    if hasattr(F, "_from_coprime_ints"):
        codes.add(F._from_coprime_ints.__func__.__code__)
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code in codes:
            built += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return built


@pytest.mark.parametrize("predicate,target", [("geometric-above", "1/3"),
                                              ("lagged-below", "sqrt-half")])
def test_row_scan_and_cut_edges_build_no_fraction(predicate, target):
    # the staged row scan and the cut edges run on ints alone: the count
    # stays 0 however many rows or levels a call reads
    ex = sigma2_predicate(predicate, "1/3")
    cuts = [get_cut(target, LEFT), get_cut(target, RIGHT)]
    assert fraction_constructions(lambda: F(1, 3) + F(1, 5)) >= 2
    assert fraction_constructions(lambda: ex.limit_r(1023)) >= 1
    for n, k in ((1023, 4095), (10 ** 6, 10 ** 9)):
        assert fraction_constructions(lambda: ex.r_approx(n, 512)) == 0
        for cut in cuts:
            assert fraction_constructions(lambda: cut.best(k)) == 0


@pytest.mark.parametrize("name", ["1/3", "sqrt-half"])
def test_deep_cut_extrema_close_in(name):
    # the closed form reads hit 10^12 at level 41; a walk would step
    # through about 2 * 10^12 odd stages
    target, gap = parse_target(name), F(1, 2 ** 30)
    for side, sign in ((RIGHT, -1), (LEFT, 1)):
        best = get_cut(name, side).best(10 ** 12).as_fraction()
        assert target.cmp_to(best) == sign
        assert target.cmp_to(best + sign * gap) == -sign
def test_sqrt_half_cut_brackets():
    left, right = get_cut("sqrt-half", LEFT), get_cut("sqrt-half", RIGHT)
    lo = max(padded(left, 200))
    hi = min(padded(right, 200))
    assert lo < hi
    assert hi - lo < F(1, 32)
    assert lo * lo < F(1, 2) < hi * hi


def threshold(pred, x0):
    """c moved 2^-x0 toward the predicate's side: up on the right."""
    gap = F(1, 1 << x0)
    return pred.c + gap if pred.side == RIGHT else pred.c - gap


def R(pred, x0, x1, q):
    """The predicate's decidable relation R(x0, x1, q), as defined: the
    reference that neg_witness reads in closed form."""
    cut = threshold(pred, x0)
    if pred.name == "geometric-above":
        return q > cut
    if pred.name == "lagged-above":
        return q > cut or x1 <= x0
    if pred.name == "geometric-below":
        return q < cut
    return q < cut or x1 <= x0


def test_predicate_threshold_logic():
    pred = sigma2_predicate("geometric-above", "1/3")
    assert pred.side == RIGHT
    assert R(pred, 3, 0, F(1, 2))           # 1/2 > 1/3 + 1/8
    assert not R(pred, 3, 0, F(11, 24))     # exactly the threshold
    assert R(pred, 3, 7, F(1, 2)) == R(pred, 3, 0, F(1, 2))
    assert pred.neg_witness(3, 1, 2) is None
    assert pred.neg_witness(3, 11, 24) == 0


def test_lagged_predicate_needs_large_x1():
    pred = sigma2_predicate("lagged-above", "1/3")
    assert R(pred, 3, 3, F(0))              # small x1 always passes
    assert not R(pred, 3, 4, F(0))
    assert pred.neg_witness(3, 0, 1) == 4


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PREDICATES), st.fractions(0, 1, max_denominator=1 << 12),
       st.fractions(-3, 3, max_denominator=1 << 12), st.integers(0, 20))
@example("geometric-above", F(1, 3), F(11, 24), 3)   # exactly the threshold
@example("lagged-below", F(2, 3), F(13, 24), 3)
@example("lagged-above", F(0), F(1, 4096), 12)       # a gap of 2^-x0
@example("geometric-below", F(1), F(4095, 4096), 11)
def test_int_neg_witness_matches_brute_force(name, param, q, x0):
    # R(x0, x1, q) is the same for every x1 > x0, so a search up to 63
    # covers x0 <= 20 with room to spare
    pred = sigma2_predicate(name, str(param))
    brute = next((x1 for x1 in range(64) if not R(pred, x0, x1, q)), None)
    assert pred.neg_witness(x0, q.numerator, q.denominator) == brute


def test_predicate_rejects():
    with pytest.raises(RealSourceError):
        sigma2_predicate("exponential-above", "1/3")
    for param in ["spam", "1/0", "3/2", "\u0663/8", "1_1/16"]:
        with pytest.raises(RealSourceError):
            sigma2_predicate("geometric-above", param)


@dataclass(frozen=True)
class TransformedR1:
    """R1(x0,x1,q) <=> q_{(x0)_1} <= q and R((x0)_0, x1, q_{(x0)_1}): the
    paper's transformed predicate, whose refuting witnesses the staged
    extraction reads in closed form.

    On the right side this is closed upward in q; the left mirror flips the
    guard and is closed downward.
    """

    pred: SequenceExtraction

    def holds(self, x0, x1, q):
        e, j = unpair(x0)
        qj = q_fraction(j)
        if self.pred.side == RIGHT:
            return qj <= q and R(self.pred, e, x1, qj)
        return q <= qj and R(self.pred, e, x1, qj)

    def neg_witness(self, x0, q):
        """Least x1 refuting R1(x0, x1, q), or None."""
        e, j = unpair(x0)
        qj = q_fraction(j)
        if self.pred.side == RIGHT:
            if q < qj:
                return 0
        else:
            if qj < q:
                return 0
        return self.pred.neg_witness(e, qj.numerator, qj.denominator)


def test_transform_guard_sides():
    tr = TransformedR1(sigma2_predicate("geometric-above", "1/3"))
    # x0 = 11 decodes to e = 3, j = 1, so q_j = 1/2 and the guard is q >= 1/2
    assert tr.holds(11, 0, F(1, 2))
    assert not tr.holds(11, 0, F(1, 4))
    assert tr.neg_witness(11, F(1, 4)) == 0
    assert tr.neg_witness(11, F(1, 2)) is None
    tl = TransformedR1(sigma2_predicate("geometric-below", "2/3"))
    assert tl.holds(11, 0, F(1, 2))
    assert not tl.holds(11, 0, F(3, 4))


@pytest.mark.parametrize("name,param", [
    ("geometric-above", "1/3"), ("lagged-above", "2/7"),
    ("geometric-below", "2/3"), ("lagged-below", "5/7")])
def test_transform_witness_matches_brute_force(name, param):
    tr = TransformedR1(sigma2_predicate(name, param))
    qs = [F(0), F(1, 3), F(11, 24), F(1, 2), F(2, 3), F(1)]
    for x0 in range(40):
        for q in qs:
            brute = next((x1 for x1 in range(60)
                          if not tr.holds(x0, x1, q)), None)
            assert tr.neg_witness(x0, q) == brute


def test_transform_monotone_in_q():
    tr = TransformedR1(sigma2_predicate("geometric-above", "1/3"))
    qs = sorted([F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)])
    for x0 in range(30):
        for x1 in range(5):
            held = [tr.holds(x0, x1, q) for q in qs]
            # once true it stays true as q grows
            assert held == sorted(held)


def test_staged_values_right():
    ex = sigma2_predicate("geometric-above", "1/3")
    grid = (1, 4, 16, 64, 256, 1024)
    assert [ex.s_approx(11, t) for t in grid] == \
        [Dyadic(0, 0), Dyadic(1, 2), Dyadic(3, 3), Dyadic(15, 5),
         Dyadic(63, 7), Dyadic(255, 9)]
    for m in range(20):
        vals = [ex.s_approx(m, t) for t in grid]
        assert vals == sorted(vals)
        assert all(Dyadic(0, 0) <= v <= Dyadic(1, 0) for v in vals)
    assert limit_s(ex, 10) == F(1)
    assert limit_s(ex, 11) == F(1, 2)
    assert ex.limit_r(10) == F(1)
    assert ex.limit_r(11) == F(1, 2)
    assert ex.r_approx(32, 1024) == Dyadic(255, 9)
    # r_n's approximations rise from below
    vals = [ex.r_approx(11, t) for t in grid]
    assert vals == sorted(vals)
    assert vals[3] == Dyadic(15, 5)


def test_staged_values_left():
    ex = sigma2_predicate("geometric-below", "2/3")
    grid = (1, 4, 16, 64, 256, 1024)
    assert [ex.s_approx(11, t) for t in grid] == \
        [Dyadic(1, 0), Dyadic(1, 0), Dyadic(5, 3), Dyadic(17, 5),
         Dyadic(65, 7), Dyadic(257, 9)]
    for m in range(20):
        vals = [ex.s_approx(m, t) for t in grid]
        assert vals == sorted(vals, reverse=True)
    assert limit_s(ex, 11) == F(1, 2)
    assert ex.limit_r(10) == F(0)
    assert ex.limit_r(11) == F(1, 2)
    assert ex.r_approx(32, 1024) == Dyadic(257, 9)
    # r_n's approximations fall from above
    vals = [ex.r_approx(11, t) for t in grid]
    assert vals == sorted(vals, reverse=True)


def _entering(t):
    """The find each stage 1..t takes in: q_{s-1} as a Dyadic when it is a
    dyadic of (0,1), else None."""
    return [from_fraction(q) if is_dyadic_fraction(q) and 0 < q < 1 else None
            for q in islice(fraction_walk(), t)]


def _simulated_row(pred, m, entering):
    """s_approx(m, 0..t) by simulating witness arrivals stage by stage.

    The reference for the closed form in SequenceExtraction: at stage s the
    search takes in q_{s-1}; a dyadic find d of (0,1) whose least witness
    refuting R1(m, x1, d) is wb arrives at stage max(s, wb + 1), and never
    when R1 holds for every x1. The row is the running extremum of the
    arrivals, seeded with 0 on the right and 1 on the left.
    """
    right = pred.side == RIGHT
    e, j = unpair(m)
    qj = q_fraction(j)
    core_wb = pred.neg_witness(e, qj.numerator, qj.denominator)
    best = Dyadic(0) if right else Dyadic(1)
    row = [best]
    pending = {}  # stage -> finds arriving at it
    for stage, d in enumerate(entering, 1):
        if d is not None:
            # TransformedR1.neg_witness(m, d), with the row constant hoisted
            lhs, rhs = d.num * qj.denominator, qj.numerator << d.exp
            wb = 0 if ((lhs < rhs) if right else (lhs > rhs)) else core_wb
            if wb is not None:
                pending.setdefault(max(stage, wb + 1), []).append(d)
        for found in pending.pop(stage, ()):
            if (found > best) if right else (found < best):
                best = found
        row.append(best)
    return row


@pytest.mark.parametrize("name,param", [
    (name, param)
    for name, inner in [("geometric-above", "1/3"), ("lagged-above", "2/7"),
                        ("geometric-below", "2/3"), ("lagged-below", "5/7")]
    for param in ("0", inner, "1")])
def test_closed_form_matches_simulation(name, param):
    # t up to 520 crosses the level boundary K = 2^8 - 1 (t = 510, 511)
    # and every lagged threshold core_wb = e + 1 for m < 200
    ex = pred = sigma2_predicate(name, param)
    entering = _entering(520)
    for m in range(200):
        row = _simulated_row(pred, m, entering)
        assert [ex.s_approx(m, t) for t in range(521)] == row, m


# t = 2^L - 2 and 2^L - 1 give K = t // 2 = 2^(L-1) - 1, where a level of
# the dyadics in play completes, and t = 2^L gives one dyadic more
LEVEL_EDGES = st.integers(1, 11).flatmap(
    lambda L: st.sampled_from([(1 << L) - 2, (1 << L) - 1, 1 << L]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PREDICATES),
       st.sampled_from(["0", "1"]) | unit_rationals.map(str),
       st.integers(0, 1500),
       # a lagged row waits for wb = e + 1 <= 56 when n <= 1500
       st.integers(0, 60) | LEVEL_EDGES | st.integers(0, 1100))
@example("geometric-above", "1/3", 32, 1024)
@example("lagged-above", "1/3", 40, 4)   # a lagged row still pending at t
@example("lagged-below", "2/3", 40, 4)
def test_extremum_scan_matches_running_extrema(name, param, n, t):
    # r_n is the running extremum of s_0..s_n, at each stage and in the
    # limit; the scan reads one row per q_j instead
    ex = sigma2_predicate(name, param)
    pick = min if ex.side == RIGHT else max
    staged = list(accumulate((ex.s_approx(m, t) for m in range(n + 1)), pick))
    limits = list(accumulate((limit_s(ex, m) for m in range(n + 1)), pick))
    for k in {0, n // 3, n}:
        assert ex.r_approx(k, t) == staged[k], (k, t)
        assert ex.limit_r(k) == limits[k], k


def test_rationals_walk_matches_q():
    walk = list(islice(rationals(), 5000))
    assert walk == [reals.q(n) for n in range(5000)]
    assert [F(*x) for x in walk[:len(PREFIX)]] == PREFIX


def test_prefix_extremum_monotone_in_n():
    ex = sigma2_predicate("geometric-above", "1/3")
    vals = [ex.r_approx(n, 256) for n in range(33)]
    assert vals == sorted(vals, reverse=True)
    exl = sigma2_predicate("geometric-below", "2/3")
    vals = [exl.r_approx(n, 256) for n in range(33)]
    assert vals == sorted(vals)


def test_extraction_side_guards():
    # an extraction is a plain value of its predicate, on the predicate's side
    right = sigma2_predicate("geometric-above", "1/3")
    assert right == sigma2_predicate("geometric-above", "1/3")
    assert right.side == RIGHT
    assert sigma2_predicate("lagged-below", "5/7").side == LEFT


def test_source_round_trips():
    texts = ['(real builtin "sqrt-half")',
             '(real constant "1/2" 1)',
             '(real constant "2/7" w^2+3)',
             '(real sigma2-right geometric-above "1/3")',
             '(real sigma2-left lagged-below "5/7")',
             '(real geometric right 3 "1/3")',
             '(real leveled right w (members constant "1/2"))',
             '(real leveled left w*2 (members geometric "2/3"))']
    for text in texts:
        assert read_source(text).descriptor == text


def test_source_levels_and_sides():
    assert read_source('(real builtin "1/3")').level == from_int(1)
    assert read_source('(real builtin "1/3")').side is None
    src = read_source('(real sigma2-right geometric-above "1/3")')
    assert src.level == from_int(2)
    assert src.side == RIGHT
    lvl = read_source('(real leveled right w (members constant "1/2"))')
    assert lvl.level == OMEGA
    assert lvl.cmp_to(F(1, 4)) == 1
    assert lvl.cmp_to(F(1, 2)) == 0


def test_source_rejects():
    bad = ['(real)',
           '(real builtin "seven-ish")',
           '(real constant "3/2" 1)',
           '(real constant "1/2" 0)',
           '(real constant 1/2 1)',
           '(real constant "\u0663/8" 1)',
           '(real geometric right 2 "1_1/16")',
           '(real leveled right w (members constant "\u0663/8"))',
           '(real sigma2-left geometric-above "1/3")',
           '(real geometric right 1 "1/3")',
           '(real geometric right w "1/3")',
           '(real geometric up 3 "1/3")',
           '(real leveled right 3 (members constant "1/2"))',
           '(real leveled right w (members harmonic "1/2"))',
           '(real mystery "1/3")',
           '(dist x0 x1)']
    for text in bad:
        with pytest.raises(RealSourceError):
            read_source(text)


def test_lift_level_one_running_extrema():
    # a level-1 source has no child numerals; the running extrema of its
    # cut enumeration still close in on the real from the cut's side
    with pytest.raises(RealSourceError):
        check_step(parse_target("1/3"), LEFT, limit=False)
    right = get_cut("1/3", RIGHT)
    vals = list(accumulate(padded(right, 25), min, initial=F(1)))[1:]
    assert vals[0] == F(1)
    assert vals[1] == F(1, 2)
    assert vals[9] == F(3, 8)
    assert vals == sorted(vals, reverse=True)
    assert all(v >= F(1, 3) for v in vals)
    left = get_cut("1/3", LEFT)
    lvals = list(accumulate(padded(left, 25), max, initial=F(0)))[1:]
    assert lvals == sorted(lvals)
    assert all(F(0) <= v <= F(1, 3) for v in lvals)
    assert lvals[3] == F(1, 4)


def test_lift_successor_sigma2():
    src = sigma2_predicate("geometric-above", "1/3")
    check_step(src, RIGHT, limit=False)
    limits = [src.limit_r(src.child(n).index) for n in range(16)]
    assert limits == sorted(limits, reverse=True)  # falling to the real
    child = src.child(11)
    assert isinstance(child, StagedChildSource)
    assert child.side == LEFT
    assert child.level == from_int(1)
    assert src.limit_r(child.index) == F(1, 2)
    assert src.limit_r(src.child(10).index) > F(1, 2)
    assert child.pred.r_approx(child.index, 1024) == Dyadic(255, 9)


def test_lift_successor_geometric():
    src = read_source('(real geometric right 3 "1/3")')
    check_step(src, RIGHT, limit=False)
    assert [src.child(n).value for n in range(3)] == [F(1), F(5, 6), F(7, 12)]
    assert src.child(0).level == from_int(2)
    low = read_source('(real geometric left 3 "2/3")')
    check_step(low, LEFT, limit=False)
    assert [low.child(n).value for n in range(3)] == [F(0), F(1, 6), F(5, 12)]


def test_lift_guards():
    with pytest.raises(RealSourceError):
        check_step(sigma2_predicate("geometric-above", "1/3"),
                   LEFT, limit=False)
    with pytest.raises(RealSourceError):
        check_step(constant(F(1, 2), from_int(0)), RIGHT, limit=False)
    with pytest.raises(RealSourceError):  # level 1 has no children
        check_step(parse_target("1/3"), RIGHT, limit=False)
    with pytest.raises(RealSourceError):
        check_step(constant(F(1, 2), OMEGA), RIGHT, limit=False)


def test_limit_decomposition_geometric():
    src = read_source('(real leveled right w (members geometric "1/3"))')
    check_step(src, RIGHT, limit=True)
    assert [src.child(n).value for n in range(3)] == [F(1), F(5, 6), F(7, 12)]
    assert src.child(0).level == from_int(1)
    assert src.child(1).level == from_int(1)
    assert src.child(2).level == from_int(2)
    assert src.child(7).level == from_int(7)


def test_limit_decomposition_constant():
    src = read_source('(real leveled left w (members constant "1/2"))')
    check_step(src, LEFT, limit=True)
    for n in range(6):
        assert src.child(n).value == F(1, 2)
        assert src.child(n).level == from_int(max(1, n))


def test_limit_decomposition_above_omega():
    src = read_source('(real leveled right w^2 (members constant "1/2"))')
    check_step(src, RIGHT, limit=True)
    assert src.child(3).level == parse_ordinal("w*3")


def test_limit_decomposition_guards():
    with pytest.raises(RealSourceError):
        check_step(parse_target("1/3"), RIGHT, limit=True)
    src = read_source('(real leveled right w (members constant "1/2"))')
    with pytest.raises(RealSourceError):
        check_step(src, LEFT, limit=True)


def lifted_children(source, side):
    """The child function of the successor step as it was written before
    sources gave their own children: the oracle for child(n)."""
    down = source.level.predecessor()
    if source.side is None:
        return lambda n: constant(source.value, down)
    if side == RIGHT:
        return lambda n: constant(clamp01(source.value + F(1, 1 << n)), down)
    return lambda n: constant(clamp01(source.value - F(1, 1 << n)), down)


def decomposed_members(source, side):
    """The member function of the limit step as it was written before
    sources gave their own children, with its running extremum over
    members 0..n: the oracle for child(n)."""
    def member(n):
        vals = [source.member_value(k) for k in range(n + 1)]
        value = min(vals) if side == RIGHT else max(vals)
        level = source.level.fundamental(n)
        return constant(value, level if not level.is_zero() else from_int(1))
    return member


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([LEFT, RIGHT]), unit_rationals, st.integers(0, 40),
       st.integers(2, 6), st.sampled_from(["w", "w*2", "w^2"]),
       st.sampled_from(["constant", "geometric"]))
def test_child_matches_step_closures(side, value, n, finite, limit, scheme):
    geo = RationalSource(side, from_int(finite), "geometric", value)
    check_step(geo, side, limit=False)
    assert geo.child(n) == lifted_children(geo, side)(n)
    const = constant(value, from_int(finite))
    check_step(const, side, limit=False)
    assert const.child(n) == lifted_children(const, side)(n)
    lev = RationalSource(side, parse_ordinal(limit), scheme, value)
    check_step(lev, side, limit=True)
    assert lev.child(n) == decomposed_members(lev, side)(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60), st.sampled_from(["1/3", "2/7", "sqrt-half"]))
def test_cut_elements_stay_on_their_side(i, name):
    target = parse_target(name)
    assert target.cmp_to(padded(get_cut(name, RIGHT), i + 1)[i]) < 0
    assert target.cmp_to(padded(get_cut(name, LEFT), i + 1)[i]) > 0
