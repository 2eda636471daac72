"""Numeral builders: dyadic numerals, the level-1 base case from cut
targets and staged sources, successor and limit steps, and the recipe
driver.

A numeral here is a sentence whose value is the same real in every metric
space. The recursion is the standard one: at level 1 a right numeral is a
countable inf of existential dyadic numerals drawn from the right cut,
here the running minima of its members in enumeration order, so the
values fall as n grows (left numerals mirror this with sup and maxima); a
successor level wraps the opposite-side numerals of the source's children
one level down; a limit level wraps same-side numerals along the
fundamental sequence. Either way member n is the numeral of
source.child(n). Infinite families are realized as registered generators
so the whole construction serializes to a finite code.

Generators take typed params (a cut target, a StagedChildSource, or the
StepParams of a successor or limit step), handed over as values; the reader
registered with each makes the same value from the text of a code.
"""


from . import reals, sexpr
from .dyadics import Dyadic, MAX_EXP, ZERO, ONE, in_unit
from .formulas import (Atomic, CInf, CSup, GeneratedFamily, Half, InfQ, Neg,
                       PI, Rank, SIGMA, SupQ, register_generator)
from .ordinals import OrdinalCNF, from_int, parse_ordinal
from .reals import LEFT, RIGHT, LEVEL_ONE
from .records import record

EXISTS = "exists"
FORALL = "forall"


class BuildError(Exception):
    pass


def other_side(side):
    return LEFT if side == RIGHT else RIGHT


def other_flavor(flavor):
    return FORALL if flavor == EXISTS else EXISTS


# ------------------------------------------------------------ dyadic numerals


# (num, exp, flavor) of num/2^exp in lowest terms -> its one node; see below.
_DYADICS = {(0, 0, EXISTS): InfQ(0, Atomic(0, 0)),
            (0, 0, FORALL): SupQ(0, Atomic(0, 0))}


def dyadic_numeral(r, flavor):
    """The finitary sentence of value r, for either quantifier flavor.

    r = 0 is the defining base (inf respectively sup of d(x0,x0));
    r > 1/2 unfolds as the complement of 1-r with flipped flavor;
    0 < r <= 1/2 halves. The chain from r down to 0 has at most 2k+1
    steps for denominator 2^k.

    Numerals are hash-consed: the module table _DYADICS maps the ints
    (num, exp, flavor) of r = num/2^exp to the single node of that numeral.
    A request walks the chain r -> 2r or r -> 1-r on ints down to the first
    key already in the table, then builds back up; each new Neg or Half
    wraps the table node one step below it, so the numeral of r shares its
    body with the numeral of 2r (or of 1-r). Each node's code is computed
    as the node is made, from the code one step below, so neither building
    nor printing recurses, whatever the depth.

    The table holds one node per distinct key asked for, plus the keys on
    their chains, which have smaller denominators and are mostly asked for
    themselves. Family members repeat the same dyadics many times over: the
    whole demo asks for about 1,150 numerals and leaves 559 entries.

    A value whose exponent in lowest terms is above MAX_EXP is refused
    before any node is built: each node of the chain holds its whole code,
    so the chain of 1/2^k holds about k^2 characters.
    """
    if flavor not in (EXISTS, FORALL):
        raise BuildError("flavor must be exists or forall")
    if not isinstance(r, Dyadic):
        raise BuildError("dyadic numerals need a Dyadic value, got %r" % (r,))
    key = (r.num, r.exp, flavor)
    node = _DYADICS.get(key)
    if node is not None:
        return node
    if r.exp > MAX_EXP:
        raise BuildError("dyadic exponent %d is above %d" % (r.exp, MAX_EXP))
    if not in_unit(r):
        raise BuildError("value %s outside [0,1]" % r)
    chain = []
    while node is None:
        chain.append(key)
        num, exp, flavor = key
        # in lowest terms: 2r of an odd num/2^exp, exp >= 1, is num/2^(exp-1)
        key = ((1 << exp) - num, exp, other_flavor(flavor)) \
            if num << 1 > 1 << exp else (num, exp - 1, flavor)
        node = _DYADICS.get(key)
    for key in reversed(chain):
        node = Neg(node) if key[0] << 1 > 1 << key[1] else Half(node)
        _DYADICS[key] = node
    return node


# ----------------------------------------------------------- level-1 numerals


class DyadicCutGenerator:
    """Members of the level-1 family for one side of a cut; params are the
    target.

    Member n is the dyadic numeral of the best of the cut's hits
    0..n // 2 in (0,1), in the order the fixed enumeration finds them: the
    least on the right, the greatest on the left. These running extrema
    fall on the right and rise on the left, as declared for the monotone
    shortcut (numerals.engine). Each prefix has the inf (sup) of a prefix
    of the hits, the same as the interleaving of hit k at 2k with the
    endpoint constant at the odd indices, since the endpoint never wins.
    The degenerate cuts with no dyadic members at all (right of 1, left of
    0) have the endpoint constant (1 on the right, 0 on the left) as every
    member. A request reads the best hit in closed form from a
    CutEnumerator of the typed target, so it parses no text and keeps no
    cut state.
    """

    def __init__(self, side):
        self.side = side
        self.flavor = EXISTS if side == RIGHT else FORALL
        self.endpoint = ONE if side == RIGHT else ZERO

    def member(self, target, n):
        cut = reals.CutEnumerator(target, self.side)
        value = self.endpoint if cut.trivial else cut.best(n // 2)
        return dyadic_numeral(value, self.flavor)

    def level_bound(self, target):
        return from_int(1)

    def monotone(self, target):
        return "nonincreasing" if self.side == RIGHT else "nondecreasing"


class StagedApproxGenerator:
    """Level-1 family for one extracted limit r_n, known only by stages;
    params are the StagedChildSource of r_n.

    Member t is the dyadic numeral of the stage-t approximation; for a
    right-sided predicate these rise from below, as declared for the
    monotone shortcut (numerals.engine), and the wrapping CSup is the left
    child numeral, mirrored on the other side.
    """

    def member(self, source, t):
        value = source.pred.r_approx(source.index, t, source.rows)
        flavor = FORALL if source.pred.side == RIGHT else EXISTS
        return dyadic_numeral(value, flavor)

    def level_bound(self, source):
        return from_int(1)

    def monotone(self, source):
        return "nondecreasing" if source.pred.side == RIGHT else "nonincreasing"


# A stage index n costs a scan of about sqrt(2n) rationals per member.
MAX_STAGE_INDEX = 10 ** 12


def read_stage(text):
    """Staged-approx params from their text (stage pred-name "param" index),
    with an index of at most MAX_STAGE_INDEX."""
    node = sexpr.read(text)
    if not isinstance(node, sexpr.Group) or len(node) != 4 \
            or node[0] != "stage":
        raise BuildError('staged-approx params must be '
                         '(stage pred-name "param" index)')
    pred = reals.sigma2_predicate(str(node[1]), str(node[2]))
    text = str(node[3])
    if not text.isascii() or not text.isdigit():
        raise BuildError("stage index must be a nonnegative integer, got %r" % text)
    # refused unread when it has more digits than the bound: int() takes 4,300
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_STAGE_INDEX)):
        raise BuildError("stage index of %d digits is above %d"
                         % (len(digits), MAX_STAGE_INDEX))
    index = int(digits)
    if index > MAX_STAGE_INDEX:
        raise BuildError("stage index %d is above %d" % (index, MAX_STAGE_INDEX))
    return reals.StagedChildSource(pred, index)


# ----------------------------------------------------- successor and limit


@record
class StepParams:
    """Params of a successor- or limit-members family: the numeral's side and
    its real source, whose level is the level of the step. The builders make
    one only from a source that passes reals.check_step; member n is the
    numeral of source.child(n)."""

    side: str
    source: object

    def __str__(self):
        head = "limit" if self.source.level.is_limit() else "succ"
        return "(%s %s %s %s)" % (head, self.side, self.source.level,
                                  self.source.descriptor)


def read_step(head, text):
    """StepParams from the text (head side level descriptor), head being
    succ or limit, with the checks build_numeral makes."""
    step = "successor" if head == "succ" else "limit"
    side, level, source = _side_level_source(
        sexpr.read(text), head,
        "%s params must be (%s side level descriptor)" % (step, head))
    if source.level != level:
        raise BuildError("source declares level %s, %s step says %s"
                         % (source.level, step, level))
    reals.check_step(source, side, head == "limit")
    return StepParams(side, source)


class SuccessorMembersGenerator:
    """Members of a successor-level numeral: the child numerals one level
    down on the opposite side, values moving monotonically to the real
    (down on the right, up on the left), as declared for the monotone
    shortcut (numerals.engine)."""

    def member(self, params, n):
        child = params.source.child(n)
        return build_numeral(other_side(params.side), child.level, child)

    def level_bound(self, params):
        return params.source.level

    def monotone(self, params):
        return "nonincreasing" if params.side == RIGHT else "nondecreasing"


class LimitMembersGenerator(SuccessorMembersGenerator):
    """Members of a limit-level numeral: same-side numerals at the levels of
    the fundamental sequence, with prefix-combined values."""

    def member(self, params, n):
        child = params.source.child(n)
        return build_numeral(params.side, child.level, child)


# ------------------------------------------------------------------- driver


def build_numeral(side, level, source):
    """The transfinite-recursion driver; dispatches on the level shape."""
    if side not in (LEFT, RIGHT):
        raise BuildError("side must be left or right, got %r" % side)
    if source.side is not None and source.side != side:
        raise BuildError("source is %s-sided, recipe says %s"
                         % (source.side, side))
    if level != source.level:
        raise BuildError("source declares level %s, recipe says %s"
                         % (source.level, level))
    if level.is_zero():
        raise BuildError("numerals start at level 1")
    constant = isinstance(source, reals.RationalSource) \
        and source.side is None and source.scheme == "constant"
    if level == LEVEL_ONE:
        if constant:
            source = reals.RationalTarget(source.value, str(source.value))
        if isinstance(source, reals.Target):
            name = "dyadic-upper-cut" if side == RIGHT else "dyadic-lower-cut"
        elif isinstance(source, reals.StagedChildSource):
            name = "staged-approx"
        else:
            raise BuildError("cannot build a level-1 numeral from %s"
                             % type(source).__name__)
        family = GeneratedFamily(name, source)
    else:
        name = "successor-members" if level.is_successor() else "limit-members"
        if constant and level.is_limit():
            source = reals.RationalSource(side, level, "constant", source.value)
        reals.check_step(source, side, level.is_limit())
        family = GeneratedFamily(name, StepParams(side, source))
    return CInf(family) if side == RIGHT else CSup(family)


# ------------------------------------------------------------------ recipes


@record
class NumeralRecipe:
    side: str
    level: OrdinalCNF
    source: object

    @property
    def descriptor(self):
        return "(numeral %s %s %s)" % (self.side, self.level,
                                       self.source.descriptor)

    @property
    def rank(self):
        """Its numeral's rank: Sigma on the right, Pi on the left."""
        return Rank(SIGMA if self.side == RIGHT else PI, self.level)

    def build(self):
        return build_numeral(self.side, self.level, self.source)


def _side_level_source(node, head, usage):
    """(side, level, source) of a node (head side level real-source)."""
    if not isinstance(node, sexpr.Group) or len(node) != 4 or node[0] != head:
        raise BuildError(usage)
    side = str(node[1])
    if side not in (LEFT, RIGHT):
        raise BuildError("bad side %r" % side)
    try:
        level = parse_ordinal(str(node[2]))
    except ValueError as err:
        raise BuildError(str(err)) from None
    return side, level, reals._source_from(node[3])


def parse_recipe(text):
    try:
        node = sexpr.read(text)
    except sexpr.SexprError as err:
        raise BuildError("bad recipe: %s" % err) from None
    return NumeralRecipe(*_side_level_source(
        node, "numeral", "recipe must be (numeral side level real-source)"))


register_generator("dyadic-upper-cut", DyadicCutGenerator(RIGHT),
                   reals.parse_target)
register_generator("dyadic-lower-cut", DyadicCutGenerator(LEFT),
                   reals.parse_target)
register_generator("staged-approx", StagedApproxGenerator(), read_stage)
register_generator("successor-members", SuccessorMembersGenerator(),
                   lambda text: read_step("succ", text))
register_generator("limit-members", LimitMembersGenerator(),
                   lambda text: read_step("limit", text))
