"""Reals in [0,1] given by cut enumerators, arithmetical predicates, and
leveled families, plus the sequence extractions that feed the numeral
builders.

Everything here is anchored to two fixed, documented constants:

* the rational enumeration q_n, which interleaves three streams:
  q_0 = 0; odd n give the dyadics of (0,1) in refinement order (1/2, 1/4,
  3/4, 1/8, 3/8, ...); n = 2 mod 4 give the dyadics outside [0,1) by
  zigzagging integer parts; n = 0 mod 4 (n >= 4) give the non-dyadic
  rationals via the Calkin-Wilf sequence with alternating signs;
* the Cantor pairing pair(a,b) = (a+b)(a+b+1)/2 + b with its inverse.

Both are part of the artifact's contract: changing either changes every
extracted sequence, so the tests freeze prefixes of both.

The odd stages list the dyadics of (0,1) level by level, so the cut
enumerators and staged extractions read their values in closed form, on
ints: q_n is a (num, den) pair, and a Fraction is built only at the public
edges. Both are plain values that keep no state between calls.
"""

import math
from fractions import Fraction
from functools import cached_property
from itertools import count, islice

from . import sexpr
from .dyadics import Dyadic, LEFT, ONE, RIGHT, ZERO, rational
from .ordinals import OrdinalCNF, from_int, parse_ordinal
from .records import record

LEVEL_ONE = from_int(1)
LEVEL_TWO = from_int(2)


class RealSourceError(ValueError):
    """A malformed or out-of-range real source, cut target or stage index.
    As a ValueError, the command line reports it as a usage error without
    importing this module."""


def _sign(d):
    return (d > 0) - (d < 0)


def clamp01(q):
    return Fraction(min(max(q, 0), 1))


# ------------------------------------------------------------ pairing codec


def pair(a, b):
    return (a + b) * (a + b + 1) // 2 + b


def unpair(n):
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


# ----------------------------------------------------- rational enumeration


def _unit_dyadic(i):
    """(num, den) of the i-th dyadic of (0,1): 1/2, 1/4, 3/4, 1/8, ..."""
    k = (i + 1).bit_length()
    t = (i + 1) - (1 << (k - 1))
    return 2 * t + 1, 1 << k


def _zigzag(a):
    # 0, 1, 2, 3, ... -> 1, -1, 2, -2, ...
    mag = a // 2 + 1
    return mag if a % 2 == 0 else -mag


def _calkin_wilf():
    """The non-dyadic positive rationals in Calkin-Wilf order, as (a, b) in
    lowest terms: x' = 1/(2*floor(x) - x + 1) is b/(2*(a//b)*b - a + b)."""
    a, b = 1, 1
    while True:
        a, b = b, 2 * (a // b) * b - a + b
        if b & (b - 1):
            yield a, b


def q(n):
    """q_n as (num, den), in lowest terms with den > 0: closed form unless
    n = 0 mod 4 (n >= 4), which walks Calkin-Wilf afresh; the walk's k-th
    find is q_{8k+4}, and its negation q_{8k+8}."""
    if n < 0:
        raise ValueError("negative enumeration index")
    if n % 2 == 1:
        return _unit_dyadic((n - 1) // 2)
    if n % 4 == 2:
        a, b = unpair((n - 2) // 4)
        num, den = _unit_dyadic(b - 1) if b else (0, 1)
        return _zigzag(a) * den + num, den
    if n == 0:
        return 0, 1
    a, b = next(islice(_calkin_wilf(), (n - 4) // 8, None))
    return (a, b) if n % 8 == 4 else (-a, b)


def rationals():
    """q_0, q_1, ... in order as (num, den), sharing one Calkin-Wilf walk."""
    walk = _calkin_wilf()
    for n in count():
        if n % 8 == 4:
            a, b = next(walk)
            yield a, b
        elif n % 8 == 0 and n:
            yield -a, b
        else:
            yield q(n)


# ------------------------------------------------------- comparison targets


class Target:
    """A builtin real: the level-1 source of the numeral of its cut, on
    either side, named by its text in codes and descriptors."""

    side = None
    level = LEVEL_ONE

    def __str__(self):
        return self.text

    @property
    def descriptor(self):
        return "(real builtin %s)" % sexpr.quote(self.text)


@record
class RationalTarget(Target):
    value: Fraction
    text: str

    def cmp_to(self, q):
        """sign(r - q), decided exactly."""
        return _sign(self.value - q)

    def floor_scaled(self, level):
        """floor(r * 2^level), exactly."""
        return (self.value.numerator << level) // self.value.denominator

    def ceil_scaled(self, level):
        """ceil(r * 2^level), exactly."""
        return -((-self.value.numerator << level) // self.value.denominator)


@record
class SqrtHalfTarget(Target):
    """The square root of 1/2, compared by cross-multiplied squaring."""

    text = "sqrt-half"

    def cmp_to(self, q):
        if q <= 0:
            return 1
        if q >= 1:
            return -1
        # sqrt(1/2) vs p/d  <=>  d^2 vs 2 p^2; equality cannot occur
        p, d = q.numerator, q.denominator
        return 1 if d * d > 2 * p * p else -1

    def floor_scaled(self, level):
        """floor(r * 2^level) = isqrt(2^(2 level - 1)), and 0 at level 0."""
        return math.isqrt((1 << 2 * level) >> 1)

    def ceil_scaled(self, level):
        """r * 2^level = 2^(level - 1/2) is never an integer."""
        return self.floor_scaled(level) + 1


_NAMED_TARGETS = {"sqrt-half": SqrtHalfTarget}


def parse_target(text):
    """A builtin-real name: a rational literal in [0,1] or a known constant."""
    text = text.strip()
    if text in _NAMED_TARGETS:
        return _NAMED_TARGETS[text]()
    try:
        value = rational(text)
    except (ValueError, ZeroDivisionError):
        raise RealSourceError("unknown builtin real %r" % text) from None
    if not 0 <= value <= 1:
        raise RealSourceError("builtin real %s outside [0,1]" % text)
    return RationalTarget(value, text)


# ------------------------------------------------------------ cut enumerators


@record
class CutEnumerator:
    """One Dedekind cut of a target real r, enumerated in closed form.

    The enumeration keeps each q_i that is a dyadic of (0,1) in the cut
    (above r on the right, below r on the left); hit k is the k-th kept.
    Only odd stages hold one: q_{2i+1} is the i-th unit dyadic, and these
    come level by level (level L >= 1 holds the odd a/2^L, 0 < a < 2^L) in
    increasing a. So all follows from floor(r * 2^L) and ceil(r * 2^L),
    which each target computes exactly on ints (floor_scaled, ceil_scaled):

    * Level L's hits are the odd a in [lo_L, 2^L) on the right, with
      lo_L = floor(r * 2^L) + 1 the least a/2^L above r, and the odd a in
      [1, hi_L] on the left, with hi_L = ceil(r * 2^L) - 1 the greatest
      a/2^L below r. Counting them level by level places hit k as the j-th
      of level L: it is ((lo_L | 1) + 2j)/2^L on the right and
      (2j + 1)/2^L on the left.
    * Right: best(k) = lo_L/2^L, the least dyadic above r with denominator
      at most 2^L. No hit up to level L is smaller, and it is a hit by
      then: the first of level L when lo_L is odd, else its reduced form,
      found at a coarser level.
    * Left: best(k) = max(hit k, hi_{L-1}/2^(L-1)). The second term is the
      greatest hit of the levels before L (0 when they have none), and the
      numerators rise within level L.

    hit(k) walks the levels up to hit k's, about log k of them, on int
    edges alone, and the enumerator holds no state. best(k) reads L from
    hit(k), whose numerator is odd, so every member is placed by hit.
    """

    target: object
    side: str

    def __str__(self):
        """The target's text: the params text of the cut's family."""
        return str(self.target)

    def value(self, n):
        """Value of member n of the cut's level-1 family: best(n // 2), which
        falls on the right and rises on the left. Each prefix has the inf
        (sup) of a prefix of the hits, the same as the interleaving of hit k
        at 2k with the endpoint constant at the odd indices, since the
        endpoint never wins. The trivial cuts, which have no dyadic members
        at all, have the endpoint (1 on the right, 0 on the left) as every
        member."""
        if self.trivial:
            return ONE if self.side == RIGHT else ZERO
        return self.best(n // 2)

    @property
    def trivial(self):
        """The right cut of 1 and the left cut of 0 hold no hit at all."""
        if self.side == RIGHT:
            return self.target.floor_scaled(0) >= 1
        return self.target.ceil_scaled(0) <= 0

    def _edge(self, level):
        """lo_L on the right, hi_L on the left."""
        if self.side == RIGHT:
            return self.target.floor_scaled(level) + 1
        return self.target.ceil_scaled(level) - 1

    def hit(self, k):
        """The k-th dyadic cut member in (0,1), in order of discovery."""
        if self.trivial:
            raise RealSourceError("the %s cut of %s has no dyadic members in (0,1)"
                                  % (self.side, self.target.text))
        level = 1
        while True:
            edge = self._edge(level)
            if self.side == RIGHT:
                count = (1 << (level - 1)) - edge // 2  # odd a in [edge, 2^L)
                first = edge | 1
            else:
                count = (edge + 1) // 2                 # odd a in [1, edge]
                first = 1
            if k < count:
                return Dyadic(first + 2 * k, level)
            k -= count
            level += 1

    def best(self, k):
        """The least (right) or greatest (left) of hits 0..k: the running
        extremum, nonincreasing on the right and nondecreasing on the left."""
        hit = self.hit(k)
        level = hit.exp  # its numerator is odd
        if self.side == RIGHT:
            return Dyadic(self._edge(level), level)
        return max(hit, Dyadic(self._edge(level - 1), level - 1))


# ------------------------------------------------- sigma-2 reals by stages
#
# Each predicate family encodes one real r as a total decidable relation
# R(x0, x1, q) with: q > r <=> exists x0 forall x1 R (right side), and
# q < r <=> exists x0 forall x1 R (left side). R holds when q lies beyond
# r = c by more than 2^-x0 (above on the right, below on the left) or, in
# the "lagged" variants, which make the x1 search nontrivial, when x1 <= x0.

_PREDICATE_SIDES = {
    "geometric-above": RIGHT,
    "lagged-above": RIGHT,
    "geometric-below": LEFT,
    "lagged-below": LEFT,
}


@record
class SequenceExtraction:
    """The sigma-2 real of one predicate, as a plain value of its name and
    parameter: the predicate itself (neg_witness), the monotone sequence
    extracted from it by stages (s_approx, r_approx, limit_r), and the
    level-2 real source of (real sigma2-... name "param"), whose child n
    is the level-1 source of r_n.

    Right side: S_n = (-inf,0) union {q < 1 : exists x1 not R1(n,x1,q)},
    s_n = sup S_n, r_n = min{s_0..s_n}; stage t bounds both searches (the
    first t rationals, witnesses x1 < t) and keeps only dyadic finds in
    (0,1), so every approximation is a Dyadic and grows toward r_n from
    below. The left side mirrors everything: infima, running maxima,
    approximations falling from above.

    The stage values have a closed form. At stage s the search takes in
    q_{s-1}, and a find d with least refuting witness wb arrives at stage
    max(s, wb + 1). The dyadics of (0,1) are exactly the q_i with odd i,
    in refinement order, so at stage t the first K = t // 2 of them are in
    play: L = bit_length(K + 1) - 1 complete levels (every a/2^L with
    0 < a < 2^L) and the first p = K - (2^L - 1) odd numerators
    1, 3, ..., 2p - 1 over 2^(L+1). With (e, j) = unpair(m), R1's guard
    refutes every d beyond q_j (d < q_j on the right, d > q_j on the left)
    with x1 = 0, so those arrive when they enter. Every other d waits for
    wb = neg_witness(e, q_j): all have arrived once wb < t, and none ever
    does when wb is None. So s_approx(m, t) = g_t(x_m), where x_m is the
    edge (1 on the right, 0 on the left) once wb < t and q_j before, and
    g_t(x) is the nearest dyadic in play strictly beyond x (below it on the
    right, above it on the left), or the base (0 right, 1 left) when there
    is none: a floor or ceiling of x on the grids 2^-L and 2^-(L+1).

    r_approx keeps no prefix of the s_m. g_t is monotone and so commutes
    with min and max: r_approx(n, t) = g_t(x*), x* the extremum of
    x_0..x_n, which is the extremum of the edge and the q_j of the rows
    m <= n with wb None or wb >= t (g_t(x) = g_t(edge) beyond the edge).
    The rows of j are m = pair(e, j) for e = 0..e_j, all with the same
    q_j, and neg_witness(e, q_j) is 0 or e + 1 until it is None for good,
    so it never falls as e grows: j contributes exactly when row (e_j, j)
    does. With (a, b) = unpair(n) and w = a + b, e_j is w - j for j <= b
    and w - 1 - j for b < j < w, so rows(n), the row scan of r_n, reads
    about sqrt(2n) values of j, on int (num, den) pairs compared by
    cross-multiplication; each stage filters the scan, which a staged
    source keeps. limit_r is the same with t = infinity, clamped.
    """

    name: str
    param: str

    level = LEVEL_TWO

    @cached_property
    def side(self):
        return _PREDICATE_SIDES[self.name]

    @cached_property
    def c(self):
        return rational(self.param)

    @cached_property
    def _rule(self):
        """(c's numerator, c's denominator, right-sided, lagged)."""
        return (self.c.numerator, self.c.denominator, self.side == RIGHT,
                self.name.startswith("lagged"))

    def neg_witness(self, x0, num, den):
        """Least x1 with not R(x0, x1, num/den), den > 0, or None when R
        holds for all x1: when q's gap beyond c, over d = den * cd, exceeds
        2^-x0, as a gap of at least 1/d does once 2^x0 > d (so the shift
        stays small)."""
        cn, cd, right, lagged = self._rule
        gap = num * cd - cn * den if right else cn * den - num * cd
        den *= cd
        if gap > 0 and (x0 >= den.bit_length() or gap << x0 > den):
            return None
        return x0 + 1 if lagged else 0

    def cmp_to(self, q):
        return _sign(self.c - q)

    def child(self, n):
        """r_n of the extraction, at level 1 on the other side: falling to
        the real on the right, rising on the left."""
        return StagedChildSource(self, n)

    @property
    def descriptor(self):
        tag = "sigma2-right" if self.side == RIGHT else "sigma2-left"
        return "(real %s %s %s)" % (tag, self.name, sexpr.quote(self.param))

    @property
    def _edge(self):
        return (1, 1) if self.side == RIGHT else (0, 1)

    def _grid(self, x, t):
        """g_t(x): the nearest dyadic in play at stage t strictly beyond x."""
        k = t // 2
        num, den = x
        lvl = (k + 1).bit_length() - 1
        odd_top = 2 * (k + 1 - (1 << lvl)) - 1  # last odd numerator in play
        scale = lvl + 1
        if self.side == RIGHT:
            # largest a/2^lvl and odd c/2^scale in play below num/den
            a = min(-((-num << lvl) // den) - 1, (1 << lvl) - 1)
            c = min(-((-num << scale) // den) - 1, odd_top)
            c -= 1 - c % 2
            return Dyadic(max(2 * a, c, 0), scale)
        # smallest a/2^lvl and odd c/2^scale in play above num/den
        top = 1 << scale
        a = max((num << lvl) // den + 1, 1)
        c = max((num << scale) // den + 1, 1)
        c += 1 - c % 2
        return Dyadic(min(2 * a, c if c <= odd_top else top, top), scale)

    def rows(self, n):
        """(wb, num, den) of row (e_j, j) for each q_j beyond the edge, the
        only ones that can be x*; wb is math.inf where it is None."""
        a, b = unpair(n)
        w = a + b
        right = self.side == RIGHT
        witness = self.neg_witness
        xn, xd = self._edge
        out = []
        for j, (num, den) in zip(range(max(b, w - 1) + 1), rationals()):
            if num * xd < xn * den if right else num * xd > xn * den:
                wb = witness(w - j if j <= b else w - 1 - j, num, den)
                out.append((math.inf if wb is None else wb, num, den))
        return out

    def _extremum(self, rows, t):
        """x*: the extremum of the edge and the q_j of the rows that have
        not fully arrived by stage t."""
        right = self.side == RIGHT
        xn, xd = self._edge
        for wb, num, den in rows:
            if wb >= t and (num * xd < xn * den if right
                            else num * xd > xn * den):
                xn, xd = num, den
        return xn, xd

    def s_approx(self, m, t):
        """Stage-t approximation of s_m, as a Dyadic (closed form above)."""
        e, j = unpair(m)
        qj = q(j)
        wb = self.neg_witness(e, *qj)
        return self._grid(self._edge if wb is not None and wb < t else qj, t)

    def r_approx(self, n, t, rows=None):
        """Stage-t approximation of r_n = prefix extremum of s_0..s_n."""
        return self._grid(self._extremum(
            self.rows(n) if rows is None else rows, t), t)

    def limit_r(self, n):
        """The exact limit r_n, by direct evaluation of the defining sets."""
        return clamp01(Fraction(*self._extremum(self.rows(n), math.inf)))


def sigma2_predicate(name, param):
    if name not in _PREDICATE_SIDES:
        raise RealSourceError("unknown predicate %r" % name)
    pred = SequenceExtraction(name, param)
    try:
        c = pred.c
    except (ValueError, ZeroDivisionError):
        raise RealSourceError("predicate parameter %r is not rational" % param) from None
    if not 0 <= c <= 1:
        raise RealSourceError("predicate value %s outside [0,1]" % param)
    return pred


# --------------------------------------------------------------- real sources
#
# A real source describes a real with a declared recursion level; one whose
# side is None fits either side of a recipe. A source that can take a step
# (see check_step) gives the real source of member n of its step family as
# child(n). (real builtin "...") reads a Target above and (real sigma2-...
# name "param") a SequenceExtraction. The constant, geometric and leveled
# forms read one RationalSource, whose child(n) is the paper's member rule
# for both kinds of step: member n is the numeral, one step down, of the
# rational member_value(n).


@record
class RationalSource:
    """A rational value at a declared level, on a side or (side None) on
    either. Scheme "constant" keeps the value in every member; "geometric"
    nears it from the side's far end as value +/- 2^-n. child(n) is the
    constant of member_value(n) at the predecessor of a successor level, or
    at h(n), the n-th of a limit's fundamental sequence floored at 1. The
    descriptor is the constant form if unsided, else leveled at a limit level
    and geometric at a successor; check_step refuses what none reads back.
    """

    side: object
    level: OrdinalCNF
    scheme: str
    value: Fraction

    def cmp_to(self, q):
        return _sign(self.value - q)

    def member_value(self, n):
        """Value of member n. It is monotone in n, falling to the value on
        the right and rising on the left, so it is already the running min
        (right) or max (left) of members 0..n that a limit step combines,
        and no prefix need be kept."""
        if self.scheme == "constant":
            return self.value
        gap = Fraction(1, 1 << n)
        return clamp01(self.value + gap if self.side == RIGHT else self.value - gap)

    def child(self, n):
        lvl = self.level
        lvl = max(lvl.fundamental(n), LEVEL_ONE) if lvl.is_limit() else lvl.predecessor()
        return RationalSource(None, lvl, "constant", self.member_value(n))

    @property
    def descriptor(self):
        value = sexpr.quote(str(self.value))
        if self.side is None:
            return "(real constant %s %s)" % (value, self.level)
        if self.level.is_limit():
            return "(real leveled %s %s (members %s %s))" % (
                self.side, self.level, self.scheme, value)
        return "(real geometric %s %s %s)" % (self.side, self.level, value)


@record
class StagedChildSource:
    """Level-1 source for r_n of an extraction, known only through stages;
    it keeps the row scan of r_n, made on first use, for all its stages."""

    pred: SequenceExtraction
    index: int

    level = LEVEL_ONE

    @cached_property
    def rows(self):
        return self.pred.rows(self.index)

    @property
    def side(self):
        # children sit on the opposite side of the parent predicate
        return LEFT if self.pred.side == RIGHT else RIGHT

    def value(self, t):
        """Value of member t of its staged-approx family: the stage-t
        approximation, rising on a right-sided predicate, whose children
        are left-sided, and falling on a left-sided one."""
        return self.pred.r_approx(self.index, t, self.rows)

    def __str__(self):
        """The text of this source as staged-approx params."""
        return "(stage %s %s %d)" % (self.pred.name, sexpr.quote(self.pred.param),
                                     self.index)


# A stage index n costs a row scan of about sqrt(2n) rationals per member.
MAX_STAGE_INDEX = 10 ** 12


def read_stage(text):
    """Staged-approx params from their text (stage pred-name "param" index),
    with an index of at most MAX_STAGE_INDEX."""
    node = sexpr.read(text)
    if not isinstance(node, sexpr.Group) or len(node) != 4 \
            or node[0] != "stage":
        raise RealSourceError('staged-approx params must be '
                              '(stage pred-name "param" index)')
    pred = sigma2_predicate(str(node[1]), str(node[2]))
    text = str(node[3])
    if not text.isascii() or not text.isdigit():
        raise RealSourceError("stage index must be a nonnegative integer, "
                              "got %r" % text)
    # refused unread when it has more digits than the bound: int() takes 4,300
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_STAGE_INDEX)):
        raise RealSourceError("stage index of %d digits is above %d"
                              % (len(digits), MAX_STAGE_INDEX))
    index = int(digits)
    if index > MAX_STAGE_INDEX:
        raise RealSourceError("stage index %d is above %d"
                              % (index, MAX_STAGE_INDEX))
    return StagedChildSource(pred, index)


def _unit_rational(node, what, name):
    if not isinstance(node, sexpr.QuotedString):
        raise RealSourceError("%s must be a quoted rational" % what)
    try:
        value = rational(str(node))
    except (ValueError, ZeroDivisionError):
        raise RealSourceError("%s %r is not rational" % (what, str(node))) from None
    if not 0 <= value <= 1:
        raise RealSourceError("%s %s outside [0,1]" % (name, value))
    return value


def _level_of(node):
    try:
        return parse_ordinal(str(node))
    except ValueError as err:
        raise RealSourceError(str(err)) from None


def source_from(node):
    """The real source of a (real ...) descriptor."""
    if not isinstance(node, sexpr.Group) or not node or node[0] != "real":
        raise RealSourceError("expected (real ...)")
    if len(node) < 2:
        raise RealSourceError("empty real descriptor")
    kind = str(node[1])
    args = node[2:]
    if kind == "builtin":
        if len(args) != 1 or not isinstance(args[0], sexpr.QuotedString):
            raise RealSourceError('(real builtin "name") takes one quoted name')
        return parse_target(str(args[0]))
    if kind in ("sigma2-right", "sigma2-left"):
        if len(args) != 2 or not isinstance(args[1], sexpr.QuotedString):
            raise RealSourceError('(real %s name "param") takes a predicate name '
                                  'and a quoted parameter' % kind)
        pred = sigma2_predicate(str(args[0]), str(args[1]))
        want = RIGHT if kind == "sigma2-right" else LEFT
        if pred.side != want:
            raise RealSourceError("predicate %s is %s-sided" % (pred.name, pred.side))
        return pred
    if kind == "constant":
        if len(args) != 2:
            raise RealSourceError('(real constant "value" level) takes two arguments')
        value = _unit_rational(args[0], "constant value", "constant")
        level = _level_of(args[1])
        if level.is_zero():
            raise RealSourceError("constant level must be at least 1")
        return RationalSource(None, level, "constant", value)
    if kind not in ("geometric", "leveled"):
        raise RealSourceError("unknown real-source kind %r" % kind)
    if kind == "geometric" and len(args) != 3:
        raise RealSourceError('(real geometric side level "value") takes three '
                              'arguments')
    if kind == "leveled" and (len(args) != 3 or not isinstance(args[2], sexpr.Group)):
        raise RealSourceError('(real leveled side level (members scheme "value")) '
                              'takes a side, a level, and a members block')
    side = str(args[0])
    if side not in (LEFT, RIGHT):
        raise RealSourceError("side must be left or right")
    level = _level_of(args[1])
    if kind == "geometric":
        if not level.is_successor() or level <= LEVEL_ONE:
            raise RealSourceError("geometric level must be a successor >= 2")
        return RationalSource(side, level, "geometric", _unit_rational(
            args[2], "geometric value", "geometric value"))
    if not level.is_limit():
        raise RealSourceError("leveled sources need a limit level, got %s" % level)
    mem = args[2]
    if len(mem) != 3 or mem[0] != "members" \
            or str(mem[1]) not in ("constant", "geometric"):
        raise RealSourceError("members block must be "
                              '(members constant|geometric "value")')
    return RationalSource(side, level, str(mem[1]), _unit_rational(
        mem[2], "member value", "leveled value"))


# ---------------------------------------------------------------- step rules


def check_step(source, side, limit):
    """Raise unless source can take a limit step (limit true) or a successor
    step on the recipe side; the step's members are then source.child(n).

    A limit step needs a leveled source: a sided RationalSource at a limit
    level. A successor step needs a source on that side (or on either) at a
    successor level >= 2: a sigma-2 predicate, an unsided constant or a sided
    geometric rational. A level-1 source has no child numerals, and no
    descriptor reads back a sided constant or an unsided geometric source.
    """
    rational = isinstance(source, RationalSource)
    if limit and not (rational and source.side is not None
                      and source.level.is_limit()):
        raise RealSourceError("limit decomposition needs a leveled source")
    if source.side is not None and source.side != side:
        raise RealSourceError("source is %s-sided, recipe says %s"
                              % (source.side, side))
    if limit:
        return
    level = source.level
    if level <= LEVEL_ONE:
        raise RealSourceError("nothing to lift at level %s" % level)
    if not level.is_successor():
        raise RealSourceError("level %s is a limit, not a successor" % level)
    if not (isinstance(source, SequenceExtraction) or rational
            and (source.side is None) == (source.scheme == "constant")):
        raise RealSourceError("cannot lift %s at level %s"
                              % (type(source).__name__, level))
