"""Formula syntax for [0,1]-valued logic over the language with one symbol d.

The finitary layer is Atomic / Neg / DotMinus / Half / InfQ / SupQ. The two
infinitary connectives CInf and CSup take a countable family of formulas,
given either explicitly (a finite tuple, for tests and truncations) or as a
named generator plus its params. Generators live in a registry so that a
formula code is just text: `(gen dyadic-upper-cut "1/3")` names the family
without materializing it. Params are typed values (a cut target, a staged
source, a successor or limit step), frozen and compared by value; str(params)
is the quoted text of the code, and each generator has a reader that makes
the params from that text, so parse checks them before any member is built.

Grammar (whitespace-insensitive, prefix form):

    formula := (dist VAR VAR) | (neg formula) | (dotminus formula formula)
             | (half formula) | (inf VAR formula) | (sup VAR formula)
             | (cinf family) | (csup family)
    family  := (list formula+) | (gen NAME "param-text")
    VAR     := x<digits>
"""

from . import sexpr
from .dyadics import natural
from .ordinals import OrdinalCNF, ZERO_ORD, from_int
from .records import record

SIGMA = "Sigma"
PI = "Pi"
FINITARY = "Finitary"


class FormulaError(Exception):
    pass


class FormulaSyntaxError(FormulaError):
    def __init__(self, message, position):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


class UnknownGeneratorError(FormulaError):
    pass


class ExhaustedFamilyError(FormulaError):
    """Index past the end of an explicit family."""


class ClassificationError(FormulaError):
    pass


# ---------------------------------------------------------------- AST nodes
#
# Every node gets its code and whether it is finitary (no CInf or CSup below
# it) as it is made, from its children's, so reading either never recurses.
# A family gets its code as it is made too.


class _Node:
    def __str__(self):
        return self.code

    def _made(self, code, finitary):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "finitary", finitary)


@record
class Atomic(_Node):
    left: int
    right: int

    def __post_init__(self):
        self._made("(dist x%d x%d)" % (self.left, self.right), True)


@record
class Neg(_Node):
    body: "Formula"

    def __post_init__(self):
        self._made("(neg %s)" % self.body.code, self.body.finitary)


@record
class DotMinus(_Node):
    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        self._made("(dotminus %s %s)" % (self.left.code, self.right.code),
                   self.left.finitary and self.right.finitary)


@record
class Half(_Node):
    body: "Formula"

    def __post_init__(self):
        self._made("(half %s)" % self.body.code, self.body.finitary)


@record
class InfQ(_Node):
    var: int
    body: "Formula"

    def __post_init__(self):
        self._made("(inf x%d %s)" % (self.var, self.body.code), self.body.finitary)


@record
class SupQ(_Node):
    var: int
    body: "Formula"

    def __post_init__(self):
        self._made("(sup x%d %s)" % (self.var, self.body.code), self.body.finitary)


@record
class ExplicitFamily:
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError("explicit family needs at least one member")
        object.__setattr__(self, "code", "(list %s)" % " ".join(
            m.code for m in self.members))

    def member(self, n):
        if 0 <= n < len(self.members):
            return self.members[n]
        raise ExhaustedFamilyError(
            "index %d out of range for family of %d" % (n, len(self.members)))

    @property
    def known_size(self):
        return len(self.members)


@record
class GeneratedFamily:
    generator: str
    params: object  # hashable, compared by value; str(params) is its code text

    def __post_init__(self):
        object.__setattr__(self, "code", "(gen %s %s)" % (
            self.generator, sexpr.quote(str(self.params))))

    def member(self, n):
        if n < 0:
            raise ValueError("negative family index")
        return get_generator(self.generator).member(self.params, n)

    known_size = None


@record
class CInf(_Node):
    family: "FamilySpec"

    def __post_init__(self):
        self._made("(cinf %s)" % self.family.code, False)


@record
class CSup(_Node):
    family: "FamilySpec"

    def __post_init__(self):
        self._made("(csup %s)" % self.family.code, False)


Formula = Atomic | Neg | DotMinus | Half | InfQ | SupQ | CInf | CSup
FamilySpec = ExplicitFamily | GeneratedFamily


# ---------------------------------------------------------- generator registry
#
# A generator comes with a reader, read(text) -> params, which makes the
# params from the quoted text of a (gen NAME "...") code or raises; str(params)
# gives the text back. A generator is any object with three methods, each pure
# in its arguments:
#   member(params, n) -> Formula         the n-th family member
#   level_bound(params) -> OrdinalCNF    level of the wrapping infinitary node
#   monotone(params) -> str | None       "nonincreasing" / "nondecreasing"
#                                        declared value direction of members
# The level bound is trusted but spot-checked on a short prefix by classify.
# The direction feeds the engine's monotone shortcut, whose contract (what a
# wrong declaration costs, why the builtin ones hold, and why limit steps
# declare none) is stated once, in the numerals.engine docstring. One
# generator may serve several names: numerals.builders registers two, one
# for the three level-1 families and one for successor and limit steps.

_GENERATORS = {}  # name -> (generator, reader)


def register_generator(name, gen, read=None):
    """Register gen with its reader. Without one, a name keeps the reader it
    has, so a wrapper can stand in for a generator; a new name reads str."""
    _GENERATORS[name] = gen, read or _GENERATORS.get(name, (None, str))[1]


def get_generator(name):
    try:
        return _GENERATORS[name][0]
    except KeyError:
        raise UnknownGeneratorError("unknown generator %r" % name) from None


# ------------------------------------------------------------------- parsing


def _var_index(tok):
    digits = tok[1:] if isinstance(tok, sexpr.Atom) and tok[:1] == "x" else ""
    try:
        return natural(digits)
    except ValueError:
        pos = getattr(tok, "position", 0)
        raise FormulaSyntaxError("expected a variable like x0, got %r"
                                 % str(tok), pos) from None


def _family_from(node):
    if not isinstance(node, sexpr.Group) or not node:
        pos = getattr(node, "position", 0)
        raise FormulaSyntaxError("expected (list ...) or (gen ...)", pos)
    head = node[0]
    if head == "list":
        if len(node) < 2:
            raise FormulaSyntaxError("(list ...) needs at least one member", node.position)
        return ExplicitFamily(tuple(_formula_from(item) for item in node[1:]))
    if head == "gen":
        if len(node) != 3 or not isinstance(node[1], sexpr.Atom) \
                or not isinstance(node[2], sexpr.QuotedString):
            raise FormulaSyntaxError('(gen ...) takes a name and a "param" string',
                                     node.position)
        name = str(node[1])
        get_generator(name)  # unknown generator fails at parse time
        return GeneratedFamily(name, _GENERATORS[name][1](str(node[2])))
    raise FormulaSyntaxError("unknown family form %r" % str(head), node.position)


def _formula_from(node):
    if not isinstance(node, sexpr.Group) or not node:
        pos = getattr(node, "position", 0)
        raise FormulaSyntaxError("expected a parenthesized formula", pos)
    head = node[0]
    if not isinstance(head, sexpr.Atom):
        raise FormulaSyntaxError("formula head must be a symbol", node.position)
    args = node[1:]
    if head == "dist":
        if len(args) != 2:
            raise FormulaSyntaxError("dist takes two variables", node.position)
        phi = Atomic(_var_index(args[0]), _var_index(args[1]))
    elif head == "neg":
        if len(args) != 1:
            raise FormulaSyntaxError("neg takes one formula", node.position)
        phi = Neg(_formula_from(args[0]))
    elif head == "half":
        if len(args) != 1:
            raise FormulaSyntaxError("half takes one formula", node.position)
        phi = Half(_formula_from(args[0]))
    elif head == "dotminus":
        if len(args) != 2:
            raise FormulaSyntaxError("dotminus takes two formulas", node.position)
        phi = DotMinus(_formula_from(args[0]), _formula_from(args[1]))
    elif head in ("inf", "sup"):
        if len(args) != 2:
            raise FormulaSyntaxError("%s takes a variable and a body" % head,
                                     node.position)
        cls = InfQ if head == "inf" else SupQ
        phi = cls(_var_index(args[0]), _formula_from(args[1]))
    elif head in ("cinf", "csup"):
        if len(args) != 1:
            raise FormulaSyntaxError("%s takes one family" % head, node.position)
        cls = CInf if head == "cinf" else CSup
        phi = cls(_family_from(args[0]))
    else:
        raise FormulaSyntaxError("unknown formula head %r" % str(head),
                                 node.position)
    return phi


def parse(code):
    try:
        node = sexpr.read(code)
    except sexpr.SexprError as err:
        raise FormulaSyntaxError(str(err).rsplit(" (at", 1)[0], err.position) from None
    return _formula_from(node)


# -------------------------------------------------------------- free variables


def free_vars(phi):
    if isinstance(phi, Atomic):
        return {phi.left, phi.right}
    if isinstance(phi, (Neg, Half)):
        return free_vars(phi.body)
    if isinstance(phi, DotMinus):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, (InfQ, SupQ)):
        return free_vars(phi.body) - {phi.var}
    fam = phi.family
    if isinstance(fam, ExplicitFamily):
        out = set()
        for m in fam.members:
            out |= free_vars(m)
        return out
    # members of a generated family share their free variables
    return free_vars(fam.member(0))


# ------------------------------------------------------------- classification


@record
class Rank:
    flavor: str
    level: OrdinalCNF

    def __post_init__(self):
        if self.flavor not in (SIGMA, PI, FINITARY):
            raise ValueError("bad flavor %r" % self.flavor)
        if self.flavor == FINITARY and not self.level.is_zero():
            raise ValueError("finitary rank must sit at level 0")

    def __str__(self):
        if self.flavor == FINITARY:
            return FINITARY
        return "%s %s" % (self.flavor, self.level)


def pi_level(rank):
    """Least b such that the rank counts as Pi_b (the hierarchy is cumulative)."""
    if rank.flavor == FINITARY:
        return ZERO_ORD
    if rank.flavor == PI:
        return rank.level
    return rank.level + from_int(1)


def sigma_level(rank):
    if rank.flavor == FINITARY:
        return ZERO_ORD
    if rank.flavor == SIGMA:
        return rank.level
    return rank.level + from_int(1)


_SPOT_CHECK = 3


def _classify_family(family, flavor, member_level, memo):
    if isinstance(family, ExplicitFamily):
        top = ZERO_ORD
        for m in family.members:
            lvl = member_level(_classify(m, memo))
            if lvl > top:
                top = lvl
        return Rank(flavor, top + from_int(1))
    key = (family.generator, family.params, flavor)
    rank = memo.get(key)
    if rank is not None:
        return rank
    gen = get_generator(family.generator)
    alpha = gen.level_bound(family.params)
    for n in range(_SPOT_CHECK):
        lvl = member_level(_classify(family.member(n), memo))
        if not lvl < alpha:
            raise ClassificationError(
                "family %s member %d has level %s, not below declared bound %s"
                % (family.generator, n, lvl, alpha))
    rank = memo[key] = Rank(flavor, alpha)
    return rank


def classify(phi):
    """Least rank of a formula in the Sigma/Pi hierarchy.

    CInf forms Sigma levels and CSup forms Pi levels; negation swaps the
    flavor; half and the point quantifiers are rank-neutral. DotMinus is
    only supported over finitary operands.

    A generated family is spot-checked once per (generator, params,
    flavor) in one call, so the checks grow with the number of distinct
    families, not 3 per nesting level.
    """
    return _classify(phi, {})


def _classify(phi, memo):
    if isinstance(phi, Atomic):
        return Rank(FINITARY, ZERO_ORD)
    if isinstance(phi, Neg):
        r = _classify(phi.body, memo)
        if r.flavor == FINITARY:
            return r
        return Rank(PI if r.flavor == SIGMA else SIGMA, r.level)
    if isinstance(phi, (Half, InfQ, SupQ)):
        return _classify(phi.body, memo)
    if isinstance(phi, DotMinus):
        a = _classify(phi.left, memo)
        b = _classify(phi.right, memo)
        if a.flavor != FINITARY or b.flavor != FINITARY:
            raise ClassificationError("dotminus over infinitary operands")
        return Rank(FINITARY, ZERO_ORD)
    if isinstance(phi, CInf):
        return _classify_family(phi.family, SIGMA, pi_level, memo)
    if isinstance(phi, CSup):
        return _classify_family(phi.family, PI, sigma_level, memo)
    raise TypeError("not a formula: %r" % (phi,))
