"""The demo corpus: seven end-to-end checks over the whole pipeline.

Each check returns a CriterionResult with a single pass/fail line. The
fourth check states an accuracy clause on the staged extraction that the
frozen rational enumeration cannot meet at the stated indices; it is
implemented exactly as stated and reports its failure honestly with the
computed values.
"""

import time
from fractions import Fraction

from .builders import EXISTS, FORALL, dyadic_numeral, parse_recipe
from .dyadics import Dyadic
from .engine import Engine, TruncationSchedule
from .formulas import parse
from .reals import RIGHT, SequenceExtraction, sigma2_predicate
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


def _done(index, title, started, budget, passed, detail):
    elapsed = time.perf_counter() - started
    if passed and elapsed >= budget:
        passed = False
        detail += " (exceeded %.0fs budget)" % budget
    return CriterionResult(index, title, passed, elapsed, detail)


def criterion_1(engine=None):
    """Dyadic numerals evaluate exactly to their dyadic on every structure."""
    engine = engine or Engine()
    started = time.perf_counter()
    suite = builtin_suite()
    checked = 0
    for m in range(257):
        r = Dyadic(m, 8)
        for flavor in (EXISTS, FORALL):
            phi = dyadic_numeral(r, flavor)
            for sp in suite:
                got = engine.eval_exact(phi, sp)
                if got != r:
                    return _done(1, "dyadic exactness", started, 5.0, False,
                                 "%s numeral of %s evaluated to %s on %s"
                                 % (flavor, r, got, sp.name))
                checked += 1
    return _done(1, "dyadic exactness", started, 5.0, True,
                 "%d exact evaluations across %d structures"
                 % (checked, len(suite)))


def criterion_2(engine=None):
    """Twenty built numerals get identical enclosures on all suite spaces."""
    engine = engine or Engine()
    started = time.perf_counter()
    suite = builtin_suite()
    sched = TruncationSchedule.default(128)
    for text in RIGHT_CORPUS + LEFT_CORPUS:
        phi = parse_recipe(text).build()
        report = engine.independence_check(phi, suite, sched)
        if not report.agreement_ok:
            bad = [pair for pair in report.agreement if not pair[2]]
            return _done(2, "structure independence", started, 30.0, False,
                         "%s disagrees on %s vs %s" % (text, bad[0][0], bad[0][1]))
    return _done(2, "structure independence", started, 30.0, True,
                 "20 numerals agree bitwise across %d structures" % len(suite))


def criterion_3(engine=None):
    """Dual level-1 pairs sandwich their real to width 2^-10 by depth 4096."""
    engine = engine or Engine()
    started = time.perf_counter()
    space = builtin_suite()[0]
    goal = Dyadic(1, 10)
    reached = []
    for text in ("1/3", "2/7", "sqrt-half"):
        lower = parse_recipe('(numeral left 1 (real builtin "%s"))' % text)
        upper = parse_recipe('(numeral right 1 (real builtin "%s"))' % text)
        low_phi, high_phi = lower.build(), upper.build()
        hit = None
        for depth in (64, 256, 1024, 4096):
            enc = engine.sandwich(low_phi, high_phi, space,
                                  TruncationSchedule.default(depth))
            if enc.width <= goal:
                hit = (depth, enc)
                break
        if hit is None:
            return _done(3, "sandwich convergence", started, 60.0, False,
                         "%s never reached width 2^-10, ended at %s"
                         % (text, enc))
        depth, enc = hit
        cmp = upper.source.cmp_to
        if not (cmp(enc.lo.as_fraction()) >= 0 and cmp(enc.hi.as_fraction()) <= 0):
            return _done(3, "sandwich convergence", started, 60.0, False,
                         "%s escaped its sandwich %s at depth %d"
                         % (text, enc, depth))
        reached.append("%s@%d" % (text, depth))
    return _done(3, "sandwich convergence", started, 60.0, True,
                 "certified width <= 2^-10: %s" % ", ".join(reached))


def _staged_side(name, param, target):
    pred = sigma2_predicate(name, param)
    ext = SequenceExtraction(pred)
    rising = pred.side == RIGHT
    grid = (1, 4, 16, 64, 256, 1024)
    for m in range(0, 33, 4):
        vals = [ext.s_approx(m, t) for t in grid]
        for a, b in zip(vals, vals[1:]):
            if (a > b) if rising else (a < b):
                return False, "stage approximations not monotone at m=%d" % m
        if any(v < Dyadic(0, 0) or v > Dyadic(1, 0) for v in vals):
            return False, "stage approximation out of range at m=%d" % m
    limits = [ext.limit_r(n) for n in range(33)]
    for a, b in zip(limits, limits[1:]):
        if (b > a) if rising else (b < a):
            return False, "limits not monotone"
    if any(v < 0 or v > 1 for v in limits):
        return False, "limit out of range"
    v = ext.r_approx(32, 1024).as_fraction()
    dist = abs(v - target)
    if dist > Fraction(1, 256):
        return False, ("approx(32,1024) = %s, distance %s from %s exceeds 2^-8"
                       % (v, dist, target))
    return True, "approx(32,1024) = %s within 2^-8" % v


def criterion_4(engine=None):
    """Staged extraction: monotone in both indices, in range, and accurate."""
    started = time.perf_counter()
    ok_r, msg_r = _staged_side("geometric-above", "1/3", Fraction(1, 3))
    ok_l, msg_l = _staged_side("geometric-below", "2/3", Fraction(2, 3))
    passed = ok_r and ok_l
    detail = "right: %s; left: %s" % (msg_r, msg_l)
    return _done(4, "staged extraction pipeline", started, 60.0, passed, detail)


def criterion_5(engine=None):
    """Recipes over five ordinal levels classify to the expected rank."""
    engine = engine or Engine()
    started = time.perf_counter()
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
            return _done(5, "classification mapping", started, 5.0, False,
                         "wrong rank for %s" % text)
    return _done(5, "classification mapping", started, 5.0, True,
                 "all 10 recipes ranked Sigma/Pi at their level")


def criterion_6(engine=None):
    """Sound enclosure endpoints tighten monotonically with depth."""
    engine = engine or Engine()
    started = time.perf_counter()
    space = builtin_suite()[0]
    ladder = (16, 64, 256, 1024)
    for text in RIGHT_CORPUS:
        phi = parse_recipe(text).build()
        his = [engine.eval_enclosure(phi, space, TruncationSchedule.uniform(n)).hi
               for n in ladder]
        if any(b > a for a, b in zip(his, his[1:])):
            return _done(6, "monotone truncation", started, 30.0, False,
                         "upper bounds rose for %s: %s" % (text, his))
    for text in LEFT_CORPUS:
        phi = parse_recipe(text).build()
        los = [engine.eval_enclosure(phi, space, TruncationSchedule.uniform(n)).lo
               for n in ladder]
        if any(b < a for a, b in zip(los, los[1:])):
            return _done(6, "monotone truncation", started, 30.0, False,
                         "lower bounds fell for %s: %s" % (text, los))
    return _done(6, "monotone truncation", started, 30.0, True,
                 "20 numerals monotone over depths %s" % (ladder,))


def criterion_7(engine=None):
    """The harness rejects the diameter sentence, which is no numeral."""
    engine = engine or Engine()
    started = time.perf_counter()
    phi = parse("(sup x0 (sup x1 (dist x0 x1)))")
    suite = builtin_suite()
    report = engine.independence_check(phi, suite, TruncationSchedule.uniform(8))
    values = dict(report.entries)
    gap = values["pair-half"].lo - values["point"].lo
    if report.agreement_ok:
        return _done(7, "negative control", started, 1.0, False,
                     "diameter sentence passed independence")
    if gap != Dyadic(1, 1):
        return _done(7, "negative control", started, 1.0, False,
                     "expected gap 1/2 between point and pair-half, got %s" % gap)
    return _done(7, "negative control", started, 1.0, True,
                 "diameter sentence rejected, point vs pair-half differ by 1/2")


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7)


def run_all(engine=None):
    engine = engine or Engine()
    return tuple(fn(engine) for fn in CRITERIA)
