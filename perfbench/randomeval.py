"""The seeded input stream of the random-eval workload and its expected values.

Each item is five metric spaces of 4 to 8 points, given as space-file
text, and six closed formulas evaluated on each: four finitary sentences
with two or three nested quantified variables, built from a pool of shared
subformulas, and two explicit `(cinf (list ...))` / `(csup (list ...))`
families of finitary members, evaluated at several truncation depths.
Quantifier nestings cycle through a fixed mix, each sentence's size is
capped and items are redrawn until the stream's count of evaluation keys
(see keys()) stays within half an item of its target, so that every seed
gives a stream of about the same cost and memory. Expected values come
from oracle.evaluate over exact rationals, never from numerals.
"""

import random
from fractions import Fraction

import oracle

FAMILY_DEPTHS = (1, 2, 8)
SIZES = (4, 5, 6, 7, 8)  # points of an item's spaces
MAX_NODES = 16  # cap on a sentence's size
ITEM_KEYS = 16500  # evaluation keys of an average item, see keys()
VARS = ("x0", "x1", "x2")
_STEPS = (Fraction(1, 2), Fraction(5, 8), Fraction(3, 4), Fraction(7, 8),
          Fraction(1))


def code(tree):
    if isinstance(tree, str):
        return tree
    return "(%s)" % " ".join(code(t) for t in tree)


def _free(tree):
    head = tree[0]
    if head == "dist":
        return {tree[1], tree[2]}
    if head in ("inf", "sup"):
        return _free(tree[2]) - {tree[1]}
    if head in ("cinf", "csup"):
        return set().union(*(_free(m) for m in tree[1][1:]))
    return set().union(*(_free(t) for t in tree[1:]))


def _nesting(tree):
    """Deepest chain of nested point quantifiers."""
    if tree[0] == "dist":
        return 0
    if tree[0] in ("inf", "sup"):
        return 1 + _nesting(tree[2])
    return max(_nesting(t) for t in tree[1:])


def random_space(rng, name, size):
    """A valid metric space of `size` points with dyadic distances."""
    if rng.random() < 0.5:
        # all distances in [1/2, 1]: every triangle holds
        def d(i, j):
            return rng.choice(_STEPS)
        rows = [[None] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = Fraction(0) if i == j else d(i, j)
    else:
        # points on a line at multiples of 1/8
        xs = [Fraction(rng.randint(0, 8), 8) for _ in range(size)]
        rows = [[abs(a - b) for b in xs] for a in xs]
    entries = [str(rows[i][j]) for i in range(size) for j in range(i + 1)]
    text = "name: %s\nsize: %d\ndist: %s\n" % (name, size, " ".join(entries))
    return text, rows


def _pool(rng, count=24):
    pool = [("dist", a, b) for a in VARS for b in VARS if a < b]
    pool.append(("dist", "x1", "x0"))
    while len(pool) < count:
        op = rng.choice(("neg", "half", "dotminus", "quant"))
        a = rng.choice(pool)
        if op == "dotminus":
            t = ("dotminus", a, rng.choice(pool))
        elif op == "quant":
            free = sorted(_free(a))
            if _nesting(a) >= 1 or len(free) < 2:
                continue
            t = (rng.choice(("inf", "sup")), rng.choice(free), a)
        else:
            t = (op, a)
        pool.append(t)
    return pool


def _size(tree):
    if isinstance(tree, str):
        return 0
    return 1 + sum(_size(t) for t in tree[1:])


def _sentence(rng, pool, parts, nesting):
    """A closed sentence over 1..parts pool subformulas with `nesting`
    nested quantified variables and at most MAX_NODES nodes."""
    while True:
        t = rng.choice(pool)
        for _ in range(rng.randint(0, parts - 1)):
            op = rng.choice(("neg", "half", "dotminus"))
            t = ("dotminus", t, rng.choice(pool)) if op == "dotminus" \
                else (op, t)
        free = sorted(_free(t))
        rng.shuffle(free)
        for var in free:
            t = (rng.choice(("inf", "sup")), var, t)
        if _nesting(t) == nesting and _size(t) <= MAX_NODES:
            return t


def _family(rng, pool):
    members = tuple(_sentence(rng, pool, 2, 2 + k % 2)
                    for k in range(rng.randint(2, 6)))
    t = (rng.choice(("cinf", "csup")), ("list",) + members)
    wrap = rng.choice(("none", "neg", "half"))
    return t if wrap == "none" else (wrap, t)


def keys(trees):
    """Evaluation keys of an item's formulas on its spaces: the distinct
    pairs of a subformula's text and an assignment of points to the
    variables bound above it, which an exact evaluator that memoises by
    subformula text must visit."""
    found = set()

    def walk(t, bound):
        found.add((code(t), bound))
        head = t[0]
        if head in ("inf", "sup"):
            walk(t[2], bound | {t[1]})
        elif head != "dist":
            for kid in t[1][1:] if head in ("cinf", "csup") else t[1:]:
                walk(kid, bound)

    for t in trees:
        walk(t, frozenset())
    return sum(size ** len(bound) for size in SIZES for _, bound in found)


def items(seed, count):
    """The item stream for one seed, with expected output strings.

    Each item carries one space of every size in SIZES, so that items cost
    about the same and the median item is a steady statistic."""
    rng = random.Random(seed)
    out = []
    total = 0
    for index in range(count):
        while True:
            pool = _pool(rng)  # the item's formulas share its subformulas
            trees = [_sentence(rng, pool, 3, 2 + (index + k) % 2)
                     for k in range(4)]
            families = [_family(rng, pool) for _ in range(2)]
            cost = keys(trees + families)
            if abs(total + cost - (index + 1) * ITEM_KEYS) <= ITEM_KEYS / 2:
                break
        total += cost
        texts, expected, contain = [], [], []
        for size in SIZES:
            text, rows = random_space(rng, "r%d-%d" % (index, size), size)
            texts.append(text)
            memo = {}  # shared by this space's evaluations, keyed by node id
            for t in trees:
                expected.append(str(oracle.evaluate(t, rows, None, memo)))
            for t in families:
                full = oracle.evaluate(t, rows, None, memo)
                for depth in FAMILY_DEPTHS:
                    lo, hi = oracle.enclosure(t, rows, depth, memo)
                    contain.append((len(expected), str(full)))
                    expected.append("%s %s" % (lo, hi))
                    expected.append(str(oracle.evaluate(t, rows, depth, memo)))
        formulas = [{"code": code(t), "depths": None} for t in trees]
        formulas += [{"code": code(t), "depths": list(FAMILY_DEPTHS)}
                     for t in families]
        out.append({"spaces": texts, "formulas": formulas,
                    "expected": expected, "contain": contain})
    return out


def check(item, values):
    """Problems with one item's reported values, as a list of strings."""
    problems = []
    if values != item["expected"]:
        problems.append("values %s, reference %s" % (values, item["expected"]))
    # each enclosure must contain the value of the whole family
    for pos, full in item["contain"]:
        lo, hi = (Fraction(x) for x in values[pos].split())
        if not lo <= Fraction(full) <= hi:
            problems.append("enclosure [%s, %s] misses %s" % (lo, hi, full))
    return problems
