"""Correctness oracles that do not use numerals code.

- `REALS`: the real each corpus and ladder recipe names, written out by hand
  and compared in exact rationals (sqrt(1/2) by integer squaring).
- `sound(real, lo, hi)`: every reported bound must contain the real.
- `CorpusBoundChecker`: checks each enclosure the engine returns during the
  acceptance corpus against `REALS`.
- A reader and evaluator over `Fraction`s for the closed formulas and
  explicit families of the random-eval workload.
"""

import re
from fractions import Fraction

SQRT_HALF = "sqrt(1/2)"

# Real named by each (real ...) descriptor used in the corpus or the ladder.
REALS = {
    '(real builtin "1/3")': Fraction(1, 3),
    '(real builtin "2/7")': Fraction(2, 7),
    '(real builtin "3/8")': Fraction(3, 8),
    '(real builtin "sqrt-half")': SQRT_HALF,
    '(real constant "1/2" 1)': Fraction(1, 2),
    '(real constant "1/2" 2)': Fraction(1, 2),
    '(real sigma2-right geometric-above "1/3")': Fraction(1, 3),
    '(real sigma2-right geometric-above "2/7")': Fraction(2, 7),
    '(real sigma2-right lagged-above "1/3")': Fraction(1, 3),
    '(real sigma2-right geometric-above "0")': Fraction(0),
    '(real sigma2-left geometric-below "2/3")': Fraction(2, 3),
    '(real sigma2-left geometric-below "5/7")': Fraction(5, 7),
    '(real sigma2-left lagged-below "2/3")': Fraction(2, 3),
    '(real sigma2-left geometric-below "1")': Fraction(1),
    '(real geometric right 3 "1/3")': Fraction(1, 3),
    '(real geometric left 3 "2/3")': Fraction(2, 3),
    '(real leveled right w (members constant "1/2"))': Fraction(1, 2),
    '(real leveled left w (members constant "1/2"))': Fraction(1, 2),
    '(real constant "1/2" w+1)': Fraction(1, 2),
    '(real leveled right w*2 (members constant "1/2"))': Fraction(1, 2),
    '(real leveled right w^2 (members constant "1/2"))': Fraction(1, 2),
}

_RECIPE = re.compile(r"^\(numeral (left|right) (\S+) (\(real .*\))\)$")


def recipe_real(recipe):
    """The tabled real of a recipe text; KeyError if it is not tabled."""
    match = _RECIPE.match(recipe)
    if match is None:
        raise KeyError(recipe)
    return REALS[match.group(3)]


def at_most(q, real):
    """q <= real, in exact arithmetic."""
    if real == SQRT_HALF:
        return q <= 0 or q * q <= Fraction(1, 2)
    return q <= real


def at_least(q, real):
    """q >= real, in exact arithmetic."""
    if real == SQRT_HALF:
        return q >= 0 and q * q >= Fraction(1, 2)
    return q >= real


def sound(real, lo, hi):
    """[lo, hi] contains real: u >= r for [0, u], l <= r for [l, 1]."""
    return at_most(Fraction(lo), real) and at_least(Fraction(hi), real)


# ---------------------------------------------------------------- ladder

_ENCLOSURE = re.compile(r"\[(\S+), (\S+)\] width")


def ladder_check(recipe, code, stdout):
    """Problems with one `numerals verify` output, as a list of strings."""
    problems = []
    if code not in (0, 1):
        return ["exit code %d" % code]
    real = recipe_real(recipe)
    bounds = _ENCLOSURE.findall(stdout)
    if not bounds:
        problems.append("no enclosure printed")
    for lo, hi in bounds:
        if not sound(real, lo, hi):
            problems.append("unsound bound [%s, %s]" % (lo, hi))
    verdict = "verdict: pass" if code == 0 else "verdict: fail"
    if not stdout.rstrip().endswith(verdict):
        problems.append("exit code %d disagrees with the verdict" % code)
    return problems


# ---------------------------------------------------------------- corpus


class CorpusBoundChecker:
    """Checks every enclosure the engine returns for a built recipe.

    Wraps NumeralRecipe.build to learn which formula names which recipe,
    Engine.eval_enclosure / Engine.sandwich to check their results and the
    acceptance criteria to know which criterion a bound belongs to."""

    def __init__(self, mods):
        self.acceptance = mods["acceptance"]
        self.builders = mods["builders"]
        self.engine = mods["engine"]
        self.named = {}
        self.checked = 0
        self.unsound = []   # (criterion index, problem)
        self.criterion = 0
        self._saved = []

    def _check(self, phi, enclosure):
        entry = self.named.get(id(phi))
        if entry is None or entry[0] is not phi:
            return
        self.checked += 1
        descriptor, real = entry[1], entry[2]
        if real is None:
            self.unsound.append((self.criterion,
                                 "no tabled real for %s" % descriptor))
        elif not sound(real, str(enclosure.lo), str(enclosure.hi)):
            self.unsound.append((self.criterion, "%s: [%s, %s]" % (
                descriptor, enclosure.lo, enclosure.hi)))

    def install(self):
        recipe_cls = self.builders.NumeralRecipe
        engine_cls = self.engine.Engine
        build = recipe_cls.build
        eval_enclosure = engine_cls.eval_enclosure
        sandwich = engine_cls.sandwich
        checker = self

        def checked_build(recipe):
            phi = build(recipe)
            descriptor = recipe.source.descriptor
            checker.named[id(phi)] = (phi, descriptor, REALS.get(descriptor))
            return phi

        def checked_eval_enclosure(engine, phi, space, schedule, env=None):
            out = eval_enclosure(engine, phi, space, schedule, env)
            checker._check(phi, out)
            return out

        def checked_sandwich(engine, left, right, space, schedule):
            out = sandwich(engine, left, right, space, schedule)
            checker._check(left, out)
            checker._check(right, out)
            return out

        def tracked(index, fn):
            def criterion(engine=None):
                checker.criterion = index
                return fn(engine)
            return criterion

        criteria = tuple(tracked(i, fn) for i, fn in
                         enumerate(self.acceptance.CRITERIA, 1))
        for owner, attr, value in ((self.acceptance, "CRITERIA", criteria),
                                   (recipe_cls, "build", checked_build),
                                   (engine_cls, "eval_enclosure",
                                    checked_eval_enclosure),
                                   (engine_cls, "sandwich", checked_sandwich)):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


# The corpus output frozen as correct: criterion 4 fails by design.
CRITERION_4_VALUES = ("255/512", "257/512")


def corpus_check(lines):
    """Problems with the seven criterion lines of one corpus run."""
    if len(lines) != 7:
        return ["expected 7 criterion lines, got %d" % len(lines)]
    problems = []
    for index, line in enumerate(lines, 1):
        want = "[FAIL] 4 " if index == 4 else "[PASS] %d " % index
        if not line.startswith(want):
            problems.append("criterion %d: %s" % (index, line))
    if not all(v in lines[3] for v in CRITERION_4_VALUES):
        problems.append("criterion 4 without 255/512 and 257/512: %s"
                        % lines[3])
    return problems


# ------------------------------------------------- formulas over Fractions


def read(text):
    """Nested tuples of atoms from a formula code; strings keep quotes."""
    tokens = re.findall(r'\(|\)|"[^"]*"|[^\s()"]+', text)
    pos = 0

    def node():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        out = []
        while tokens[pos] != ")":
            out.append(node())
        pos += 1
        return tuple(out)

    tree = node()
    if pos != len(tokens):
        raise ValueError("trailing tokens in %r" % text)
    return tree


def _var(tok):
    return int(tok[1:])


# Exact values as integers over 2**_SCALE: every distance is dyadic, and a
# value only ever halves, negates, subtracts or takes extrema, so this is
# exact arithmetic on the same rationals as Fraction, only faster.
_SCALE = 256
_ONE = 1 << _SCALE


def _scaled(q):
    q = Fraction(q)
    num = q.numerator << _SCALE
    if num % q.denominator:
        raise ValueError("distance %s is not dyadic" % q)
    return num // q.denominator


def evaluate(tree, dist, truncate=None, memo=None):
    """Value of a closed formula tree on the distance matrix `dist`.

    Families are explicit `(list ...)`; `truncate` keeps only the first
    `truncate` members of each family, as a truncation schedule does.
    A `memo` may be shared by calls on the same dist while the trees it
    has seen stay alive (it is keyed by node identity)."""
    size = len(dist)
    scaled = [[_scaled(d) for d in row] for row in dist]
    memo = {} if memo is None else memo
    shape = memo.setdefault("shape", {})

    def deps(t):
        """(free variables, whether a family sits below) of a node."""
        out = shape.get(id(t))
        if out is None:
            head = t[0]
            if head == "dist":
                out = ({_var(t[1]), _var(t[2])}, False)
            elif head in ("inf", "sup"):
                fv, fam = deps(t[2])
                out = (set(fv) - {_var(t[1])}, fam)
            else:
                kids = t[1][1:] if head in ("cinf", "csup") else t[1:]
                parts = [deps(c) for c in kids]
                out = (set().union(*(fv for fv, _ in parts)),
                       head in ("cinf", "csup") or any(f for _, f in parts))
            out = shape[id(t)] = (tuple(sorted(out[0])), out[1])
        return out

    def ev(t, env):
        # a value depends only on the points bound to its free variables,
        # and on the truncation only when a family sits below
        fv, fam = deps(t)
        key = (id(t), truncate if fam else None, tuple(env[v] for v in fv))
        hit = memo.get(key)
        if hit is not None:
            return hit
        head = t[0]
        if head == "dist":
            val = scaled[env[_var(t[1])]][env[_var(t[2])]]
        elif head == "neg":
            val = _ONE - ev(t[1], env)
        elif head == "half":
            val = ev(t[1], env)
            if val & 1:
                raise ValueError("formula halves more than %d times" % _SCALE)
            val >>= 1
        elif head == "dotminus":
            val = max(0, ev(t[1], env) - ev(t[2], env))
        elif head in ("inf", "sup"):
            v = _var(t[1])
            vals = [ev(t[2], _bind(env, v, p)) for p in range(size)]
            val = min(vals) if head == "inf" else max(vals)
        elif head in ("cinf", "csup"):
            family = t[1]
            if family[0] != "list":
                raise ValueError("only explicit families are evaluated")
            members = family[1:]
            if truncate is not None:
                members = members[:truncate]
            vals = [ev(m, env) for m in members]
            val = min(vals) if head == "cinf" else max(vals)
        else:
            raise ValueError("unknown head %r" % (head,))
        memo[key] = val
        return val

    return Fraction(ev(tree, ()), _ONE)


def _bind(env, var, point):
    env = list(env) + [None] * (var + 1 - len(env))
    env[var] = point
    return tuple(env)


def enclosure(tree, dist, depth, memo=None):
    """The one-sided enclosure a truncation at `depth` must report."""
    head = tree[0]
    if head in ("cinf", "csup"):
        value = evaluate(tree, dist, depth, memo)
        return (Fraction(0), value) if head == "cinf" else (value, Fraction(1))
    if head == "neg":
        lo, hi = enclosure(tree[1], dist, depth, memo)
        return 1 - hi, 1 - lo
    if head == "half":
        lo, hi = enclosure(tree[1], dist, depth, memo)
        return lo / 2, hi / 2
    value = evaluate(tree, dist, None, memo)
    return value, value
