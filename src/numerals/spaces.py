"""Finite metric spaces with dyadic distances in [0, 1].

These are the structures formulas get evaluated on. A space is a name, a
size, and a symmetric distance matrix, stored as int numerators at one
exponent: d(i, j) = rows[i][j] / 2**exp, where exp is the largest exponent
of an entry in lowest terms; `dist` is the same matrix as Dyadic values.
validate() re-checks the four axioms (zero diagonal, symmetry, triangle
inequality, range) on the numerators and reports every violation with
witnessing indices.

File format, strict, no defaults:

    name: pair-half
    size: 2
    dist: 0 1/2 0

The dist block is whitespace-separated dyadic literals, each read by
dyadics.parse_dyadic, either the row-major lower triangle (n(n+1)/2
entries, diagonal included) or a full row-major matrix (n*n entries).
Anything else is a format error, and so is an entry whose exponent in
lowest terms is above MAX_EXP: every numerator of a space carries its
largest exponent's bits. Every space read or built here, bar the two
smallest builtins, is made by from_entries from Dyadic entries.
"""

import functools
import random
from operator import add

from .dyadics import MAX_EXP, Dyadic, natural, parse_dyadic
from .records import record


class SpaceFormatError(Exception):
    pass


class SpaceValidationError(Exception):
    def __init__(self, report):
        super().__init__("invalid metric space: %s" % report.summary())
        self.report = report


class FiniteMetricSpace:
    """Equal and hashed by identity, so a memo can key on it. The builders
    here set exp to the largest exponent of an entry in lowest terms."""

    def __init__(self, name, size, exp, rows):
        self.name = name
        self.size = size
        self.exp = exp
        self.rows = rows  # size x size tuple of tuples of int over 2**exp

    @functools.cached_property
    def dist(self):
        return tuple(tuple(Dyadic(v, self.exp) for v in row)
                     for row in self.rows)

    def __str__(self):
        return "%s(%d points)" % (self.name, self.size)


@record
class ValidationReport:
    violations: tuple  # of (axiom name, witness index tuple, detail text)

    @property
    def ok(self):
        return not self.violations

    def summary(self):
        if self.ok:
            return "valid"
        return "; ".join("%s at %s: %s" % v for v in self.violations)


def validate(space):
    """Check all four axioms; dimension mismatches are structural errors."""
    n, exp, rows = space.size, space.exp, space.rows
    if n < 1:
        raise ValueError("space must have at least one point")
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError("distance matrix does not match size %d" % n)
    bad = []
    for i in range(n):
        if rows[i][i]:
            bad.append(("diagonal", (i,),
                        "d(%d,%d) = %s" % (i, i, Dyadic(rows[i][i], exp))))
    one = 1 << exp
    for i in range(n):
        for j in range(n):
            if not 0 <= rows[i][j] <= one:
                bad.append(("range", (i, j), "d = %s" % Dyadic(rows[i][j], exp)))
    cols = list(zip(*rows))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != cols[i][j]:
                bad.append(("symmetry", (i, j), "%s vs %s" % (
                    Dyadic(rows[i][j], exp), Dyadic(cols[i][j], exp))))
    for i in range(n):
        row = rows[i]
        for j in range(n):
            if row[j] <= min(map(add, row, cols[j])):
                continue
            for k in range(n):
                if row[j] > row[k] + cols[j][k]:
                    bad.append(("triangle", (i, k, j), "%s > %s + %s" % (
                        Dyadic(row[j], exp), Dyadic(row[k], exp),
                        Dyadic(cols[j][k], exp))))
    return ValidationReport(tuple(bad))


def _checked(space):
    report = validate(space)
    if not report.ok:
        raise SpaceValidationError(report)
    return space


def from_entries(name, size, entries):
    """An unvalidated space from Dyadic entries, in a lower triangle or a
    full row-major matrix."""
    tri = size * (size + 1) // 2
    if len(entries) not in (tri, size * size):
        raise SpaceFormatError(
            "dist needs %d (triangle) or %d (full) entries, got %d"
            % (tri, size * size, len(entries)))
    top = max((d.exp for d in entries), default=0)
    if top > MAX_EXP:
        raise SpaceFormatError("dist entry exponent %d is above %d"
                               % (top, MAX_EXP))
    nums = [d.num << (top - d.exp) for d in entries]
    if len(nums) == tri:
        rows = [[0] * size for _ in range(size)]
        it = iter(nums)
        for i in range(size):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = next(it)
    else:
        rows = [nums[i * size:(i + 1) * size] for i in range(size)]
    return FiniteMetricSpace(name, size, top, tuple(map(tuple, rows)))


def make_space(name, size, entries):
    """Build a space from a triangular or full entry list and validate it."""
    return _checked(from_entries(name, size, entries))


def load_space(text):
    """Parse the strict name/size/dist format, then validate."""
    tokens = text.split()
    if len(tokens) < 6 or tokens[0] != "name:" or tokens[2] != "size:" \
            or tokens[4] != "dist:":
        raise SpaceFormatError("expected 'name: N size: K dist: ...'")
    name = tokens[1]
    try:
        size = natural(tokens[3])
    except ValueError:
        raise SpaceFormatError("size must be an integer, got %r" % tokens[3]) from None
    if size < 1:
        raise SpaceFormatError("size must be positive")
    # one read per distinct token, in order, so the first bad one is reported
    try:
        entries = {t: parse_dyadic(t) for t in dict.fromkeys(tokens[5:])}
    except ValueError as err:
        raise SpaceFormatError(str(err)) from None
    return _checked(from_entries(name, size, [entries[t] for t in tokens[5:]]))


def load_space_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_space(fh.read())


def serialize_space(space):
    entries = []
    for i in range(space.size):
        for j in range(i + 1):
            entries.append(str(space.dist[i][j]))
    return "name: %s\nsize: %d\ndist: %s\n" % (space.name, space.size,
                                               " ".join(entries))


# ------------------------------------------------------------- builtin suite


def _metric_closure(rows):
    """Min-plus shortest-path repair of integer rows; preserves symmetry and
    the zero diagonal."""
    d = [list(r) for r in rows]
    for k, dk in enumerate(d):
        for di in d:
            dik = di[k]
            for j, dkj in enumerate(dk):
                via = dik + dkj
                if via < di[j]:
                    di[j] = via
    return d


def _quarters(name, size, rows):
    """An unvalidated space from int rows over 4."""
    quarters = [Dyadic(v, 2) for v in range(5)]
    return from_entries(name, size, [quarters[v] for row in rows for v in row])


_GRID_SEED = 3571


def random_repaired_space(seed, size, name=None):
    """Random symmetric matrix over {1/4, 1/2, 3/4, 1}, repaired to a metric
    on the numerators over 4."""
    rng = random.Random(seed)
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i):
            v = rng.choice((1, 2, 3, 4))
            rows[i][j] = v
            rows[j][i] = v
    name = name or ("random%d-seed%d" % (size, seed))
    return _checked(_quarters(name, size, _metric_closure(rows)))



def _ultrametric8():
    # leaves of a depth-3 binary tree: d = 2^-(shared prefix length), and
    # i ^ j has 3 - (shared prefix length) bits, so d is 2^(bits - 1) / 4
    rows = [[(1 << (i ^ j).bit_length()) >> 1 for j in range(8)]
            for i in range(8)]
    return _quarters("ultra8", 8, rows)


@functools.lru_cache(maxsize=1)
def builtin_suite():
    """Deterministic suite of five valid spaces of varied shape, each
    validated once (grid16 by random_repaired_space)."""
    singleton = FiniteMetricSpace("point", 1, 0, ((0,),))
    pair = FiniteMetricSpace("pair-half", 2, 1, ((0, 1), (1, 0)))
    path5 = _quarters("path5", 5, [[abs(i - j) for j in range(5)]
                                   for i in range(5)])
    grid16 = random_repaired_space(_GRID_SEED, 16, name="grid16")
    suite = (singleton, pair, path5, grid16, _ultrametric8())
    return tuple(space if space is grid16 else _checked(space)
                 for space in suite)
