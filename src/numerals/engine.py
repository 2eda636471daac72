"""Evaluation and verification.

One memoized walk evaluates every formula on a tuple of spaces at once,
giving one triple (lo, hi, est) of dyadics per space under the truncation
schedule: certified bounds and an estimate, all three v for a finitary
node (no CInf or CSup below it) of value v, which no schedule changes, so
eval_exact is the same walk with no schedule. A truncated CInf is [0, min
of member upper bounds], a truncated CSup is [max of member lower bounds,
1]; the tail of the family is never guessed, so two-sided intervals come
only from sandwiching dual numerals. Every other connective maps the
bounds monotonically: neg swaps them, dotminus pairs each bound of its
left argument with the opposite bound of its right. The estimate is the
exact value of the truncated formula itself.

A numeral has one value in every space, so its families, members and
shortcut picks are the same on each; only its finitary leaves read the
metric, and the walk builds each member once for all its spaces. Triples
are memoized per space, on (code, space, environment, schedule tail), so
a later one-space walk (eval_exact, eval_enclosure, truncation_value)
reuses them. A walk that misses on any of its spaces walks them all; each
space's triple depends on that space alone, so the values it stores again
are the ones the memo held. A point quantifier over an infinitary body
walks each space on its own, since spaces differ in size.

The monotone shortcut: a generated family whose generator declares the
direction of its member values ("nonincreasing" or "nondecreasing" in n)
is not scanned on a space where its prefix has at least four members and
members 0, count // 2 and count - 1 are in the declared order on both
their sound endpoints (hi under CInf, lo under CSup) and their estimates.
The end member where the declared extremum sits then gives the bound and
its own estimate. The other spaces scan the prefix together.
- The bound is attained by a sampled member, so it stays certified
  whatever the declaration says, for interval members as for points: any
  member's upper bound bounds the inf from above, and dually for sup.
- A wrong declaration only costs tightness, and it makes the estimate the
  end member's rather than the prefix extremum. Tightness is what the
  harness's convergence check reads: a bound from three sampled members
  that skip a tighter one can rise with depth.
- Limit-members families declare no order, so they are always scanned in
  full: their members sit at rising levels, and the sound endpoints of
  successor-level members are trivial where level-1 members are tight, so
  the samples can be in order while a member between them is tighter.
- The builtin declarations hold: cut members are the dyadic numerals of
  running extrema of the cut's hits, the least so far on the right and
  the greatest so far on the left; staged-approx members are the dyadic
  numerals of r_approx(n, t), monotone in t, read from one row scan of
  r_n; and successor members fall on the right and rise on the left, as
  their sources do.

A finitary node is evaluated once per space, as a table over its own free
variables, of int numerators at one exponent: an atomic is the space's
stored rows (their diagonal for d(x, x)) at the space's exponent, neg and
half map the numerators or raise the exponent, dotminus zips its children
spread onto the union of their variables at the larger exponent, and inf /
sup reduce one axis; a closed node's table has one entry. The walk reads a
finitary node's Dyadic value at an environment from its table, so
bindings the node does not read cost nothing. At a non-empty environment
only atomics and point quantifiers are read from tables: a finitary
dotminus, neg or half there combines its children's values, as its table
would range over every free variable for the one entry the caller reads.
Tables are memoized on (formula code, space). Family generation is pure,
so member formulas with equal codes share results.
"""

from fractions import Fraction
from itertools import combinations, repeat

from .dyadics import Dyadic, Enclosure, ZERO, ONE, dotminus, half, neg
from .formulas import (Atomic, CInf, DotMinus, GeneratedFamily, Half, InfQ,
                       Neg, PI, Rank, SIGMA, SupQ, classify, free_vars,
                       get_generator)
from .records import record


MAX_SPREAD = 1 << 16  # longest spread index list an Engine keeps


class EngineError(Exception):
    pass


class SandwichError(EngineError):
    """The paired enclosures do not overlap: the inputs disagree on the real."""


@record
class TruncationSchedule:
    """Family prefix lengths by nesting level; the last entry repeats for
    deeper nodes. default(N) gives inner nodes a 4x budget, since inner
    families control the accuracy of each member."""

    depths: tuple

    def __post_init__(self):
        object.__setattr__(self, "depths", tuple(self.depths))
        if not self.depths:
            raise ValueError("schedule needs at least one depth")
        for d in self.depths:
            if d < 1:
                raise ValueError("depths must be positive, got %d" % d)

    @classmethod
    def uniform(cls, n):
        return cls((n,))

    @classmethod
    def default(cls, n):
        return cls((n, 4 * n))


def _freeze_env(env):
    return tuple(sorted(env.items())) if env else ()


def _bind(env, var, p):
    out = [(v, q) for (v, q) in env if v != var]
    out.append((var, p))
    out.sort()
    return tuple(out)


def _lookup(env, var):
    for v, p in env:
        if v == var:
            return p
    raise EngineError("unbound variable x%d" % var)


def _read(table, env, space):
    """A finitary node's value at env: its table's entry at env's points."""
    names, exp, values = table
    n = space.size
    index = 0
    for var in names:
        p = _lookup(env, var)
        if not 0 <= p < n:
            raise EngineError("x%d = %s is not a point of %s"
                              % (var, p, space))
        index = index * n + p
    return Dyadic(values[index], exp)


@record
class ConvergenceRow:
    depth: int
    enclosure: Enclosure
    estimate: Dyadic


@record
class IndependenceReport:
    entries: tuple           # (space name, Enclosure)
    agreement: tuple         # (name, name, bool) for every pair
    agreement_ok: bool


@record
class VerificationReport(IndependenceReport):
    convergence: tuple       # ConvergenceRow ladder
    monotone_ok: bool
    tolerance_ok: bool
    classification_expected: Rank
    classification_actual: Rank
    classification_ok: bool

    @property
    def ok(self):
        return (self.agreement_ok and self.monotone_ok and self.tolerance_ok
                and self.classification_ok)


class Engine:
    def __init__(self):
        self._memo = {}  # keys hold their spaces, so no id is reused
        self._spreads = {}  # (variables, superset, size) -> table index map
        self.atomic_evals = 0

    def eval_exact(self, phi, space, env=None):
        """The exact dyadic value of a finitary formula."""
        return self._walk(phi, (space,), _freeze_env(env), None)[0][2]

    def eval_enclosure(self, phi, space, schedule, env=None):
        """A certified enclosure of the formula's value under the schedule."""
        lo, hi, _ = self._walk(phi, (space,), _freeze_env(env),
                               schedule.depths)[0]
        return Enclosure(lo, hi)

    def truncation_value(self, phi, space, schedule, env=None):
        """Exact value of the schedule-truncated formula (the active
        estimate; not a certified bound on the untruncated value)."""
        return self._walk(phi, (space,), _freeze_env(env),
                          schedule.depths)[0][2]

    def _walk(self, phi, spaces, env, tail):
        """(lo, hi, est) per space of the formula truncated by tail: certified
        bounds on its value and the truncated formula's own value, (v, v, v)
        for a finitary node of value v. No tail makes the walk exact, and a
        CInf / CSup an error. A walk whose spaces are all in the memo reads
        them; any miss walks every space and stores what it finds, which is
        what the memo holds already for the others."""
        memo = self._memo
        code = phi.code
        if phi.finitary and (not env or isinstance(phi, (Atomic, InfQ, SupQ))):
            out = []
            for space in spaces:
                v = _read(memo.get((code, space)) or self._table(phi, space),
                          env, space)
                out.append((v, v, v))
            return out
        out = [memo.get((code, space, env, tail)) for space in spaces]
        if None not in out:
            return out
        if isinstance(phi, DotMinus):
            out = [(dotminus(a_lo, b_hi), dotminus(a_hi, b_lo), dotminus(a, b))
                   for (a_lo, a_hi, a), (b_lo, b_hi, b) in zip(
                       self._walk(phi.left, spaces, env, tail),
                       self._walk(phi.right, spaces, env, tail))]
        elif isinstance(phi, Neg):
            out = [(neg(hi), neg(lo), neg(est))
                   for lo, hi, est in self._walk(phi.body, spaces, env, tail)]
        elif isinstance(phi, Half):
            out = [tuple(map(half, t))
                   for t in self._walk(phi.body, spaces, env, tail)]
        elif isinstance(phi, (InfQ, SupQ)):
            # spaces differ in size, so each binds its own points
            op = min if isinstance(phi, InfQ) else max
            out = [tuple(map(op, zip(*[
                self._walk(phi.body, (sp,), _bind(env, phi.var, p), tail)[0]
                for p in range(sp.size)]))) for sp in spaces]
        else:  # CInf / CSup
            if tail is None:
                raise EngineError("eval_exact needs a finitary formula, got %s"
                                  % type(phi).__name__)
            out = self._family(phi.family, spaces, env, tail,
                               isinstance(phi, CInf))
        for space, triple in zip(spaces, out):
            memo[(code, space, env, tail)] = triple
        return out

    def _table(self, phi, space):
        """Tabulate a finitary node on the whole space and memoize it under
        (code, space) as (variables, exp, numerators): one int numerator
        per assignment of points to its free variables, in order of first
        free occurrence, row-major, each value numerator / 2**exp. A closed
        node's table has no variables and one entry. A memoized child is
        read with one probe, since a table is true."""
        n = space.size
        memo = self._memo
        kind = type(phi)
        if kind is Neg or kind is Half:  # most nodes: dyadic numeral chains
            names, exp, values = memo.get((phi.body.code, space)) \
                or self._table(phi.body, space)
            out = (names, exp + 1, values) if kind is Half \
                else (names, exp, [(1 << exp) - v for v in values])
        elif kind is Atomic:
            exp, rows = space.exp, space.rows
            if phi.left == phi.right:
                self.atomic_evals += n
                out = ((phi.left,), exp, [rows[i][i] for i in range(n)])
            else:
                self.atomic_evals += n * n
                out = ((phi.left, phi.right), exp,
                       [d for row in rows for d in row])
        elif kind is DotMinus:
            a = memo.get((phi.left.code, space)) \
                or self._table(phi.left, space)
            b = memo.get((phi.right.code, space)) \
                or self._table(phi.right, space)
            exp = max(a[1], b[1])
            names = a[0] + tuple(v for v in b[0] if v not in a[0])
            out = (names, exp, [x - y if x > y else 0 for x, y in zip(
                self._spread(a, exp, names, n),
                self._spread(b, exp, names, n))])
        else:  # InfQ / SupQ
            body = memo.get((phi.body.code, space)) \
                or self._table(phi.body, space)
            names, exp, values = body
            if phi.var not in names:  # vacuous
                out = body
            else:
                op = min if kind is InfQ else max
                k = names.index(phi.var)
                stride = n ** (len(names) - 1 - k)
                block = n * stride
                out = (names[:k] + names[k + 1:], exp,
                       [op(values[b + i:b + block:stride])
                        for b in range(0, len(values), block)
                        for i in range(stride)])
        memo[(phi.code, space)] = out
        return out

    def _spread(self, table, exp, names, n):
        """The numerators of a table at exponent exp, at least its own, at
        every assignment to names, a superset of its variables, in
        row-major order."""
        own, own_exp, values = table
        if exp > own_exp:
            shift = exp - own_exp
            values = [v << shift for v in values]
        if own == names:
            return values
        if not own:
            return repeat(values[0])
        key = (own, names, n)
        index = self._spreads.get(key)
        if index is None:
            weight = {v: n ** (len(own) - 1 - j) for j, v in enumerate(own)}
            index = [0]
            for v in names:
                steps = [p * weight.get(v, 0) for p in range(n)]
                index = [i + s for i in index for s in steps]
            if len(index) <= MAX_SPREAD:
                self._spreads[key] = index
        return [values[i] for i in index]

    def _family(self, family, spaces, env, tail, is_inf):
        """The truncated CInf / CSup step per space: the declared end member
        where the shortcut applies (module docstring), else the prefix."""
        count = tail[0]
        if family.known_size is not None:
            count = min(count, family.known_size)
        inner = tail[1:] or tail
        parts = {}  # space -> the member triples that give its result
        if isinstance(family, GeneratedFamily) and count >= 4:
            direction = get_generator(family.generator).monotone(family.params)
            falling = direction == "nonincreasing"
            if direction in ("nonincreasing", "nondecreasing"):
                picks = [self._walk(family.member(n), spaces, env, inner)
                         for n in (0, count // 2, count - 1)]
                for space, own in zip(spaces, zip(*picks)):
                    ends = [hi if is_inf else lo for lo, hi, _ in own]
                    ests = [est for _, _, est in own]
                    if ends == sorted(ends, reverse=falling) \
                            and ests == sorted(ests, reverse=falling):
                        parts[space] = [own[-1] if is_inf == falling else own[0]]
        rest = tuple(sp for sp in spaces if sp not in parts) if parts else spaces
        if rest:
            parts.update(zip(rest, zip(*[
                self._walk(family.member(n), rest, env, inner)
                for n in range(count)])))
        return [(ZERO, min(his), min(ests)) if is_inf
                else (max(los), ONE, max(ests))
                for los, his, ests in (zip(*parts[sp]) for sp in spaces)]

    # ------------------------------------------------------------- harness

    def sandwich(self, left_numeral, right_numeral, space, schedule):
        """Two-sided enclosure from a dual pair of numerals of one real."""
        low = self.eval_enclosure(left_numeral, space, schedule)
        high = self.eval_enclosure(right_numeral, space, schedule)
        if low.lo > high.hi:
            raise SandwichError(
                "lower bound %s exceeds upper bound %s: the two formulas are "
                "not numerals of one real" % (low.lo, high.hi))
        return Enclosure(low.lo, high.hi)

    def independence_check(self, phi, spaces, schedule):
        """Enclosures across spaces with pairwise agreement flags: one walk
        of the suite, whose memo entries each space's enclosure reads."""
        self._walk(phi, tuple(spaces), (), schedule.depths)
        entries = tuple((sp.name, self.eval_enclosure(phi, sp, schedule))
                        for sp in spaces)
        agreement = tuple((a, b, x == y)
                          for (a, x), (b, y) in combinations(entries, 2))
        return IndependenceReport(entries, agreement,
                                  all(flag for _, _, flag in agreement))

    def classification_check(self, recipe, phi):
        return classify(phi) == recipe.rank

    def convergence_report(self, phi, space, depths):
        """Enclosure ladder over depths; the sound endpoint must be monotone
        (see convergence_rows)."""
        rows, problem = self.convergence_rows(
            phi, space, [TruncationSchedule.default(n) for n in depths],
            classify(phi))
        if problem is not None:
            raise EngineError(problem)
        return rows

    def convergence_rows(self, phi, space, schedules, rank):
        """The one monotonicity check of the harness: a row per schedule, at
        its outer depth, and the first fault of the sound endpoint, or None.
        Under a Sigma rank upper endpoints must not rise, under Pi lower
        endpoints must not fall."""
        rows = tuple(ConvergenceRow(sched.depths[0],
                                    self.eval_enclosure(phi, space, sched),
                                    self.truncation_value(phi, space, sched))
                     for sched in schedules)
        for prev, cur in zip(rows, rows[1:]):
            if rank.flavor == SIGMA and cur.enclosure.hi > prev.enclosure.hi:
                return rows, (
                    "upper bound rose from %s to %s between depths %d and %d"
                    % (prev.enclosure.hi, cur.enclosure.hi, prev.depth, cur.depth))
            if rank.flavor == PI and cur.enclosure.lo < prev.enclosure.lo:
                return rows, (
                    "lower bound fell from %s to %s between depths %d and %d"
                    % (prev.enclosure.lo, cur.enclosure.lo, prev.depth, cur.depth))
        return rows, None

    def verify_recipe(self, recipe, spaces, depth, tol_exp):
        """The full harness: independence, convergence, classification."""
        phi = recipe.build()
        sched = TruncationSchedule.default(depth)
        indep = self.independence_check(phi, spaces, sched)
        ladder = sorted({max(1, depth // 16), max(1, depth // 4), depth})
        rank = classify(phi)
        rows, problem = self.convergence_rows(
            phi, spaces[0], [TruncationSchedule.default(n) for n in ladder],
            rank)
        tol = Fraction(1, 1 << tol_exp)
        est = rows[-1].estimate.as_fraction()
        tolerance_ok = (recipe.source.cmp_to(est - tol) >= 0
                        and recipe.source.cmp_to(est + tol) <= 0)
        return VerificationReport(indep.entries, indep.agreement,
                                  indep.agreement_ok, rows, problem is None,
                                  tolerance_ok, recipe.rank, rank,
                                  rank == recipe.rank and not free_vars(phi))
