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

Grammar (whitespace-insensitive, prefix form); the table _HEADS states the
formula rule as each head's node class, argument readers and usage message:

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
# Nodes and families are hash-consed (Filliatre and Conchon, "Type-safe
# modular hash-consing", 2006): each class is a record made through NODES,
# keyed (class, *fields), so equal terms are one object, compared and hashed
# by identity. numerals.builders keeps its dyadic numerals in NODES too,
# keyed (num, exp, flavor). A node stores its free variables in order of
# first free occurrence, from its children's, or None with a CInf or CSup
# at or below it; no term stores its code (code_of). NODES holds its terms
# strongly: weak values slowed the walk, and the table's lifetime is
# ROADMAP item 11's.

NODES = {}


class _HashConsed(type):
    def __init__(cls, name, bases, namespace):
        super().__init__(name, bases, namespace)
        if cls.__annotations__:
            record(cls)
            del cls.__eq__, cls.__hash__

    def __call__(cls, *fields):
        key = (cls, *fields)
        term = NODES.get(key)
        if term is None:
            term = NODES[key] = super().__call__(*fields)
        return term


class _Term(metaclass=_HashConsed):
    code = property(lambda self: code_of(self))

    def __str__(self):
        return code_of(self)


class _Node(_Term):
    def __post_init__(self):
        kind = type(self)
        if kind is Atomic:
            free = tuple(dict.fromkeys((self.left, self.right)))
        elif kind is DotMinus:
            a, b = self.left.free, self.right.free
            free = None if None in (a, b) else tuple(dict.fromkeys(a + b))
        else:
            free = None if kind is CInf or kind is CSup else self.body.free
            if free is not None and kind is not Neg and kind is not Half:
                free = tuple(v for v in free if v != self.var)
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "finitary", free is not None)


class Atomic(_Node):
    left: int
    right: int


class Neg(_Node):
    body: "Formula"


class DotMinus(_Node):
    left: "Formula"
    right: "Formula"


class Half(_Node):
    body: "Formula"


class InfQ(_Node):
    var: int
    body: "Formula"


class SupQ(_Node):
    var: int
    body: "Formula"


class ExplicitFamily(_Term):
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError("explicit family needs at least one member")

    def member(self, n):
        if 0 <= n < len(self.members):
            return self.members[n]
        raise ExhaustedFamilyError(
            "index %d out of range for family of %d" % (n, len(self.members)))

    @property
    def known_size(self):
        return len(self.members)


class GeneratedFamily(_Term):
    generator: str
    params: object  # hashable, compared by value; str(params) is its code text

    def member(self, n):
        if n < 0:
            raise ValueError("negative family index")
        return get_generator(self.generator).member(self.params, n)

    known_size = None


class CInf(_Node):
    family: "FamilySpec"


class CSup(_Node):
    family: "FamilySpec"


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
    # the readers are called directly, not from a comprehension, so each
    # nesting level takes one frame
    if not isinstance(node, sexpr.Group) or not node:
        pos = getattr(node, "position", 0)
        raise FormulaSyntaxError("expected a parenthesized formula", pos)
    head = node[0]
    if not isinstance(head, sexpr.Atom):
        raise FormulaSyntaxError("formula head must be a symbol", node.position)
    try:
        cls, readers, usage = _HEADS[head]
    except KeyError:
        raise FormulaSyntaxError("unknown formula head %r" % str(head),
                                 node.position) from None
    if len(node) != len(readers) + 1:
        raise FormulaSyntaxError(usage, node.position)
    if len(readers) == 1:
        return cls(readers[0](node[1]))
    return cls(readers[0](node[1]), readers[1](node[2]))


# head -> (node class, reader of each argument, usage message)
_HEADS = {
    "dist": (Atomic, (_var_index, _var_index), "dist takes two variables"),
    "neg": (Neg, (_formula_from,), "neg takes one formula"),
    "dotminus": (DotMinus, (_formula_from, _formula_from),
                 "dotminus takes two formulas"),
    "half": (Half, (_formula_from,), "half takes one formula"),
    "inf": (InfQ, (_var_index, _formula_from), "inf takes a variable and a body"),
    "sup": (SupQ, (_var_index, _formula_from), "sup takes a variable and a body"),
    "cinf": (CInf, (_family_from,), "cinf takes one family"),
    "csup": (CSup, (_family_from,), "csup takes one family"),
}


_HEAD_OF = {cls: head for head, (cls, _, _) in _HEADS.items()}
_HEAD_OF.update({ExplicitFamily: "list", GeneratedFamily: "gen"})


def code_of(term):
    """The code of a formula or family, printed for output from a stack of
    the parts still to write, so no depth recurses. A variable prints as
    x<digits>, a member tuple as its members, a family's params quoted."""
    parts, todo = [], [term]
    while todo:
        item = todo.pop()
        if not isinstance(item, str):
            args = [getattr(item, name) for name in item._fields]
            if type(item) is GeneratedFamily:
                args[1] = sexpr.quote(str(args[1]))
            todo.append(")")
            for arg in reversed(args[0] if type(args[0]) is tuple else args):
                todo += ("x%d" % arg if type(arg) is int else arg, " ")
            item = "(" + _HEAD_OF[type(item)]
        parts.append(item)
    return "".join(parts)


def parse(code):
    try:
        node = sexpr.read(code)
    except sexpr.SexprError as err:
        raise FormulaSyntaxError(str(err).rsplit(" (at", 1)[0], err.position) from None
    return _formula_from(node)


# -------------------------------------------------------------- free variables


def free_vars(phi):
    if phi.finitary:
        return frozenset(phi.free)
    if isinstance(phi, (Neg, Half)):
        return free_vars(phi.body)
    if isinstance(phi, DotMinus):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, (InfQ, SupQ)):
        return free_vars(phi.body) - {phi.var}
    fam = phi.family
    if isinstance(fam, ExplicitFamily):
        return set().union(*map(free_vars, fam.members))
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


def level_as(rank, flavor):
    """Least b such that the rank counts as flavor_b (the hierarchy is cumulative)."""
    if rank.flavor == FINITARY:
        return ZERO_ORD
    if rank.flavor == flavor:
        return rank.level
    return rank.level + from_int(1)


_DUAL = {SIGMA: PI, PI: SIGMA}

_SPOT_CHECK = 3


def _classify_family(family, flavor, memo):
    dual = _DUAL[flavor]
    if isinstance(family, ExplicitFamily):
        top = ZERO_ORD
        for m in family.members:
            lvl = level_as(_classify(m, memo), dual)
            if lvl > top:
                top = lvl
        return Rank(flavor, top + from_int(1))
    key = (family, flavor)
    rank = memo.get(key)
    if rank is not None:
        return rank
    gen = get_generator(family.generator)
    alpha = gen.level_bound(family.params)
    for n in range(_SPOT_CHECK):
        lvl = level_as(_classify(family.member(n), memo), dual)
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

    A generated family is spot-checked once per (family, flavor) in one
    call, so the checks grow with the number of distinct families, not 3
    per nesting level.
    """
    return _classify(phi, {})


def _classify(phi, memo):
    if phi.finitary:
        return Rank(FINITARY, ZERO_ORD)
    if isinstance(phi, Neg):
        r = _classify(phi.body, memo)
        return Rank(_DUAL[r.flavor], r.level)
    if isinstance(phi, (Half, InfQ, SupQ)):
        return _classify(phi.body, memo)
    if isinstance(phi, DotMinus):
        _classify(phi.left, memo)  # an operand's own fault is reported first
        _classify(phi.right, memo)
        raise ClassificationError("dotminus over infinitary operands")
    if isinstance(phi, CInf):
        return _classify_family(phi.family, SIGMA, memo)
    return _classify_family(phi.family, PI, memo)
