"""The demo corpus: seven end-to-end checks over the whole pipeline.

Each check is a body check(engine) -> (passed, detail), made criterion
index by one runner, _criterion(index, title, budget): criterion_N(engine=
None) makes an Engine when given none, times the body and returns a
CriterionResult with one pass/fail line, failing a pass that took budget
seconds or more. The fourth check states an accuracy clause on the staged
extraction that the frozen rational enumeration cannot meet at the stated
indices; it is implemented exactly as stated and reports its failure
honestly with the computed values."""

import functools
import time
from fractions import Fraction

from .builders import EXISTS, FORALL, dyadic_numeral, parse_recipe
from .dyadics import Dyadic
from .engine import Engine, TruncationSchedule
from .formulas import parse
from .reals import RIGHT, sigma2_predicate
from .records import record
from .spaces import builtin_suite

RIGHT_CORPUS = (
    '(numeral right 1 (real builtin "1/3"))',
    '(numeral right 1 (real builtin "2/7"))',
    '(numeral right 1 (real builtin "sqrt-half"))',
    '(numeral right 1 (real builtin "3/8"))',
    '(numeral right 1 (real constant "1/2" 1))',
    '(numeral right 2 (real sigma2-right geometric-above "1/3"))',
    '(numeral right 2 (real sigma2-right geometric-above "2/7"))',
    '(numeral right 2 (real sigma2-right lagged-above "1/3"))',
    '(numeral right 2 (real sigma2-right geometric-above "0"))',
    '(numeral right 2 (real constant "1/2" 2))',
)

LEFT_CORPUS = (
    '(numeral left 1 (real builtin "1/3"))',
    '(numeral left 1 (real builtin "2/7"))',
    '(numeral left 1 (real builtin "sqrt-half"))',
    '(numeral left 1 (real builtin "3/8"))',
    '(numeral left 1 (real constant "1/2" 1))',
    '(numeral left 2 (real sigma2-left geometric-below "2/3"))',
    '(numeral left 2 (real sigma2-left geometric-below "5/7"))',
    '(numeral left 2 (real sigma2-left lagged-below "2/3"))',
    '(numeral left 2 (real sigma2-left geometric-below "1"))',
    '(numeral left 2 (real constant "1/2" 2))',
)


@record
class CriterionResult:
    index: int
    title: str
    passed: bool
    seconds: float
    detail: str

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return "[%s] %d %s: %s" % (tag, self.index, self.title, self.detail)


def _criterion(index, title, budget):
    """The runner that makes check(engine) -> (passed, detail) criterion
    index: see the module docstring."""
    def wrap(check):
        @functools.wraps(check)
        def criterion(engine=None):
            engine = engine or Engine()
            started = time.perf_counter()
            passed, detail = check(engine)
            elapsed = time.perf_counter() - started
            if passed and elapsed >= budget:
                passed = False
                detail += " (exceeded %.0fs budget)" % budget
            return CriterionResult(index, title, passed, elapsed, detail)
        return criterion
    return wrap


@_criterion(1, "dyadic exactness", 5.0)
def criterion_1(engine):
    """Dyadic numerals evaluate exactly to their dyadic on every structure."""
    suite = builtin_suite()
    checked = 0
    for m in range(257):
        r = Dyadic(m, 8)
        for flavor in (EXISTS, FORALL):
            phi = dyadic_numeral(r, flavor)
            for sp in suite:
                got = engine.eval_exact(phi, sp)
                if got != r:
                    return False, ("%s numeral of %s evaluated to %s on %s"
                                   % (flavor, r, got, sp.name))
                checked += 1
    return True, ("%d exact evaluations across %d structures"
                  % (checked, len(suite)))


@_criterion(2, "structure independence", 30.0)
def criterion_2(engine):
    """Twenty built numerals get identical enclosures on all suite spaces."""
    suite = builtin_suite()
    sched = TruncationSchedule.default(128)
    for text in RIGHT_CORPUS + LEFT_CORPUS:
        phi = parse_recipe(text).build()
        report = engine.independence_check(phi, suite, sched)
        if not report.agreement_ok:
            a, b, _ = next(pair for pair in report.agreement if not pair[2])
            return False, "%s disagrees on %s vs %s" % (text, a, b)
    return True, "20 numerals agree bitwise across %d structures" % len(suite)


@_criterion(3, "sandwich convergence", 60.0)
def criterion_3(engine):
    """Dual level-1 pairs sandwich their real to width 2^-10 by depth 4096."""
    space = builtin_suite()[0]
    goal = Dyadic(1, 10)
    reached = []
    for text in ("1/3", "2/7", "sqrt-half"):
        lower = parse_recipe('(numeral left 1 (real builtin "%s"))' % text)
        upper = parse_recipe('(numeral right 1 (real builtin "%s"))' % text)
        low_phi, high_phi = lower.build(), upper.build()
        for depth in (64, 256, 1024, 4096):
            enc = engine.sandwich(low_phi, high_phi, space,
                                  TruncationSchedule.default(depth))
            if enc.width <= goal:
                break
        else:
            return False, ("%s never reached width 2^-10, ended at %s"
                           % (text, enc))
        cmp = upper.source.cmp_to
        if not (cmp(enc.lo.as_fraction()) >= 0 and cmp(enc.hi.as_fraction()) <= 0):
            return False, ("%s escaped its sandwich %s at depth %d"
                           % (text, enc, depth))
        reached.append("%s@%d" % (text, depth))
    return True, "certified width <= 2^-10: %s" % ", ".join(reached)


def _staged_side(name, param, target):
    ext = sigma2_predicate(name, param)
    rising = ext.side == RIGHT
    grid = (1, 4, 16, 64, 256, 1024)
    for m in range(0, 33, 4):
        vals = [ext.s_approx(m, t) for t in grid]
        if vals != sorted(vals, reverse=not rising):
            return False, "stage approximations not monotone at m=%d" % m
        if any(v < Dyadic(0, 0) or v > Dyadic(1, 0) for v in vals):
            return False, "stage approximation out of range at m=%d" % m
    limits = [ext.limit_r(n) for n in range(33)]
    if limits != sorted(limits, reverse=rising):
        return False, "limits not monotone"
    if any(v < 0 or v > 1 for v in limits):
        return False, "limit out of range"
    v = ext.r_approx(32, 1024).as_fraction()
    dist = abs(v - target)
    if dist > Fraction(1, 256):
        return False, ("approx(32,1024) = %s, distance %s from %s exceeds 2^-8"
                       % (v, dist, target))
    return True, "approx(32,1024) = %s within 2^-8" % v


@_criterion(4, "staged extraction pipeline", 60.0)
def criterion_4(engine):
    """Staged extraction: monotone in both indices, in range, and accurate."""
    ok_r, msg_r = _staged_side("geometric-above", "1/3", Fraction(1, 3))
    ok_l, msg_l = _staged_side("geometric-below", "2/3", Fraction(2, 3))
    return ok_r and ok_l, "right: %s; left: %s" % (msg_r, msg_l)


@_criterion(5, "classification mapping", 5.0)
def criterion_5(engine):
    """Recipes over five ordinal levels classify to the expected rank."""
    recipes = (
        '(numeral right 1 (real builtin "1/3"))',
        '(numeral left 1 (real builtin "1/3"))',
        '(numeral right 2 (real sigma2-right geometric-above "1/3"))',
        '(numeral left 2 (real sigma2-left geometric-below "2/3"))',
        '(numeral right 3 (real geometric right 3 "1/3"))',
        '(numeral left 3 (real geometric left 3 "2/3"))',
        '(numeral right w (real leveled right w (members constant "1/2")))',
        '(numeral left w (real leveled left w (members constant "1/2")))',
        '(numeral right w+1 (real constant "1/2" w+1))',
        '(numeral left w+1 (real constant "1/2" w+1))',
    )
    for text in recipes:
        recipe = parse_recipe(text)
        if not engine.classification_check(recipe, recipe.build()):
            return False, "wrong rank for %s" % text
    return True, "all 10 recipes ranked Sigma/Pi at their level"


@_criterion(6, "monotone truncation", 30.0)
def criterion_6(engine):
    """Sound enclosure endpoints tighten monotonically with depth."""
    space = builtin_suite()[0]
    ladder = (16, 64, 256, 1024)
    schedules = [TruncationSchedule.uniform(n) for n in ladder]
    for text in RIGHT_CORPUS + LEFT_CORPUS:
        recipe = parse_recipe(text)
        _, problem = engine.convergence_rows(recipe.build(), space, schedules,
                                             recipe.rank)
        if problem is not None:
            return False, "%s: %s" % (text, problem)
    return True, "20 numerals monotone over depths %s" % (ladder,)


@_criterion(7, "negative control", 1.0)
def criterion_7(engine):
    """The harness rejects the diameter sentence, which is no numeral."""
    phi = parse("(sup x0 (sup x1 (dist x0 x1)))")
    suite = builtin_suite()
    report = engine.independence_check(phi, suite, TruncationSchedule.uniform(8))
    values = dict(report.entries)
    gap = values["pair-half"].lo - values["point"].lo
    if report.agreement_ok:
        return False, "diameter sentence passed independence"
    if gap != Dyadic(1, 1):
        return False, ("expected gap 1/2 between point and pair-half, got %s"
                       % gap)
    return True, "diameter sentence rejected, point vs pair-half differ by 1/2"


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7)


def run_all(engine=None):
    engine = engine or Engine()
    return tuple(fn(engine) for fn in CRITERIA)
