"""Evaluation and verification.

One memoized walk evaluates every formula on one space, giving a triple
(lo, hi, est) of dyadics under the truncation schedule: certified bounds
and an estimate, all three v for a finitary node (no CInf or CSup below
it) of value v, which no schedule changes, so eval_exact is the same walk
with no schedule. A truncated CInf is [0, min of member upper bounds], a
truncated CSup is [max of member lower bounds, 1]; the tail of the family
is never guessed, so two-sided intervals come only from sandwiching dual
numerals. Every other connective maps the bounds monotonically: neg swaps
them, dotminus pairs each bound of its left argument with the opposite
bound of its right. The estimate is the exact value of the truncated
formula itself.

The walk records whether it read an atom d(x, y) with x != y; tables
and memoized triples carry that flag. Lemma: a walk that reads no atom
but d(x, x) gives the same triple, and takes the same shortcut picks, on
every metric space with a point. By induction on the walk:
- d(x, x) is 0 at every assignment in every metric space. Tables map or
  reduce entries, so every entry of a table made from d(x, x) alone is
  one dyadic, the same on every space.
- Neg, half and dotminus map their children's triples, which agree.
- A point quantifier takes the min / max of one walk per point, at least
  one, and each gives the same triple.
- A truncated family's members depend only on the family and the tail.
  Its three picks agree, so the order check decides alike, and the same
  end member, or the same prefix, gives the same min / max.
- A memo hit returns what such a walk stored, with its flag.
So independence_check walks its first space; if that walk read only the
diagonal and every space has a zero one, its enclosure is every space's.
Every sentence that builders makes reads d(x0, x0) alone, so its
truncations are independent on every metric space.

The monotone shortcut: a generated family whose generator declares the
direction of its member values ("nonincreasing" or "nondecreasing" in n)
is not scanned when its prefix has at least four members and members 0,
count // 2 and count - 1 are in the declared order on both their sound
endpoints (hi under CInf, lo under CSup) and their estimates. The end
member where the declared extremum sits then gives the bound and its own
estimate. Otherwise one scan of the prefix gives both.
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

A finitary node's value at an assignment depends only on the points of
its free variables. It is evaluated as a table over those the environment
leaves open, with the bound ones fixed, of int numerators at one exponent:
an atomic is the entries of the space's rows that its bound variables
select (the diagonal for d(x, x)), neg and half map the numerators or raise
the exponent, dotminus zips its children spread onto the union of their
open variables at the larger exponent, and inf / sup reduce one axis. A
child is tabulated under the bindings of its own free variables, and the
walk reads a finitary node from its one-entry table with all of them bound.
Tables are memoized on (node, space, the bindings it reads), walks of
infinitary nodes on (node, space, env, tail); nodes are hash-consed.
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
        self._memo = {}  # keys hold their nodes and spaces: no id is reused
        self._spreads = {}  # (variables, superset, size) -> table index map
        self.atomic_evals = 0

    def eval_exact(self, phi, space, env=None):
        """The exact dyadic value of a finitary formula."""
        return self._walk(phi, space, _freeze_env(env), None)[2]

    def eval_enclosure(self, phi, space, schedule, env=None):
        """A certified enclosure of the formula's value under the schedule."""
        return Enclosure(*self._walk(phi, space, _freeze_env(env),
                                     schedule.depths)[:2])

    def truncation_value(self, phi, space, schedule, env=None):
        """Exact value of the schedule-truncated formula (the active
        estimate; not a certified bound on the untruncated value)."""
        return self._walk(phi, space, _freeze_env(env), schedule.depths)[2]

    def _walk(self, phi, space, env, tail):
        """(lo, hi, est, off) of the formula truncated by tail: certified
        bounds, the truncated formula's own value ((v, v, v) for a finitary
        node of value v) and the off-diagonal flag. No tail makes the walk
        exact, and a CInf / CSup an error."""
        if phi.finitary:  # bindings are checked in order of first occurrence
            if phi.free:
                points = dict(env)
                for var in phi.free:
                    if var not in points:
                        raise EngineError("unbound variable x%d" % var)
                    if not 0 <= points[var] < space.size:
                        raise EngineError("x%d = %s is not a point of %s"
                                          % (var, points[var], space))
            _, exp, values, off = self._table(phi, space, env)
            v = Dyadic(values[0], exp)
            return v, v, v, off
        key = (phi, space, env, tail)
        out = self._memo.get(key)
        if out is not None:
            return out
        kind = type(phi)
        if kind is DotMinus:
            a_lo, a_hi, a, a_off = self._walk(phi.left, space, env, tail)
            b_lo, b_hi, b, b_off = self._walk(phi.right, space, env, tail)
            out = (dotminus(a_lo, b_hi), dotminus(a_hi, b_lo), dotminus(a, b),
                   a_off or b_off)
        elif kind is Neg or kind is Half:
            lo, hi, est, off = self._walk(phi.body, space, env, tail)
            out = (neg(hi), neg(lo), neg(est), off) if kind is Neg \
                else (half(lo), half(hi), half(est), off)
        elif kind is InfQ or kind is SupQ:
            op = min if kind is InfQ else max
            los, his, ests, offs = zip(*[
                self._walk(phi.body, space, _bind(env, phi.var, p), tail)
                for p in range(space.size)])
            out = (op(los), op(his), op(ests), True in offs)
        else:  # CInf / CSup
            if tail is None:
                raise EngineError("eval_exact needs a finitary formula, got %s"
                                  % kind.__name__)
            out = self._family(phi.family, space, env, tail, kind is CInf)
        self._memo[key] = out
        return out

    def _table(self, phi, space, bound):
        """The one read of a finitary node's table. It takes any bindings,
        sorted by variable, and keys only those of phi's free variables: the
        table is memoized under (node, space, those), tabulated on a miss, as
        (variables, exp, numerators, off): one int numerator per assignment
        of points to the free variables they leave open, in order of first
        free occurrence, row-major, each value numerator / 2**exp, and the
        off-diagonal flag. With every free variable bound it has one entry."""
        if bound:
            bound = tuple(b for b in bound if b[0] in phi.free)
        key = (phi, space, bound)
        out = self._memo.get(key)
        if out is not None:
            return out
        n = space.size
        kind = type(phi)
        if kind is Neg or kind is Half:  # most nodes: dyadic numeral chains
            names, exp, values, off = self._table(phi.body, space, bound)
            out = (names, exp + 1, values, off) if kind is Half \
                else (names, exp, [(1 << exp) - v for v in values], off)
        elif kind is Atomic:
            at, rows = dict(bound), space.rows
            left = [at[phi.left]] if phi.left in at else range(n)
            if phi.left == phi.right:
                values = [rows[i][i] for i in left]
            elif phi.right in at:
                values = [rows[i][at[phi.right]] for i in left]
            else:
                values = [d for i in left for d in rows[i]]
            self.atomic_evals += len(values)
            out = (tuple(v for v in phi.free if v not in at), space.exp,
                   values, phi.left != phi.right)
        elif kind is DotMinus:
            a = self._table(phi.left, space, bound)
            b = self._table(phi.right, space, bound)
            exp = max(a[1], b[1])
            names = a[0] + tuple(v for v in b[0] if v not in a[0])
            out = (names, exp, [x - y if x > y else 0 for x, y in zip(
                self._spread(a, exp, names, n),
                self._spread(b, exp, names, n))], a[3] or b[3])
        else:  # InfQ / SupQ
            body = self._table(phi.body, space, bound)
            names, exp, values, off = body
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
                        for i in range(stride)], off)
        self._memo[key] = out
        return out

    def _spread(self, table, exp, names, n):
        """The numerators of a table at exponent exp, at least its own, at
        every assignment to names, a superset of its variables, in
        row-major order."""
        own, own_exp, values, _ = table
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

    def _family(self, family, space, env, tail, is_inf):
        """The truncated CInf / CSup step: the declared end member where the
        shortcut applies (module docstring), else the prefix. Members are
        walked in plain loops, so a nesting level takes two frames."""
        count = tail[0]
        if family.known_size is not None:
            count = min(count, family.known_size)
        inner = tail[1:] or tail
        direction = isinstance(family, GeneratedFamily) and count >= 4 \
            and get_generator(family.generator).monotone(family.params)
        falling = direction == "nonincreasing"
        if falling or direction == "nondecreasing":
            picks = []
            for n in (0, count // 2, count - 1):
                picks.append(self._walk(family.member(n), space, env, inner))
            bounds = [hi if is_inf else lo for lo, hi, _, _ in picks]
            ests = [est for _, _, est, _ in picks]
            if bounds == sorted(bounds, reverse=falling) \
                    and ests == sorted(ests, reverse=falling):
                lo, hi, est, _ = picks[-1] if is_inf == falling else picks[0]
                off = picks[0][3] or picks[1][3] or picks[2][3]
                return (ZERO, hi, est, off) if is_inf else (lo, ONE, est, off)
        walked = []  # the prefix, the picks among it
        for n in range(count):
            walked.append(self._walk(family.member(n), space, env, inner))
        los, his, ests, offs = zip(*walked)
        return (ZERO, min(his), min(ests), True in offs) if is_inf \
            else (max(los), ONE, max(ests), True in offs)

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
        """Enclosures with pairwise agreement flags: each space is walked,
        bar where the lemma above gives it the first space's enclosure."""
        each = self._walk(phi, spaces[0], (), schedule.depths)[3] or any(
            row[i] for sp in spaces for i, row in enumerate(sp.rows))
        entries = tuple((sp.name, self.eval_enclosure(
            phi, sp if each else spaces[0], schedule)) for sp in spaces)
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
