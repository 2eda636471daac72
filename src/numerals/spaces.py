"""Finite metric spaces with dyadic distances in [0, 1].

These are the structures formulas get evaluated on. A space is a name, a
size, and a symmetric distance matrix; validate() re-checks the four axioms
(zero diagonal, symmetry, triangle inequality, range) and reports every
violation with witnessing indices.

File format, strict, no defaults:

    name: pair-half
    size: 2
    dist: 0 1/2 0

The dist block is whitespace-separated dyadic literals, either the row-major
lower triangle (n(n+1)/2 entries, diagonal included) or a full row-major
matrix (n*n entries). Anything else is a format error.
"""

import functools
import random
from operator import add

from .dyadics import Dyadic, ZERO, ONE, natural, parse_dyadic
from .records import record


class SpaceFormatError(Exception):
    pass


class SpaceValidationError(Exception):
    def __init__(self, report):
        super().__init__("invalid metric space: %s" % report.summary())
        self.report = report


class FiniteMetricSpace:
    """Equal and hashed by identity, so a memo can key on it."""

    def __init__(self, name, size, dist):
        self.name = name
        self.size = size
        self.dist = dist  # size x size tuple of tuples of Dyadic

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


def numerators(space):
    """(exp, rows): the distances as integer numerators at the space's
    largest exponent, so that d(i, j) == rows[i][j] / 2**exp."""
    top = max(d.exp for row in space.dist for d in row)
    return top, [[d.num << (top - d.exp) for d in row] for row in space.dist]


def validate(space):
    """Check all four axioms; dimension mismatches are structural errors."""
    n = space.size
    if n < 1:
        raise ValueError("space must have at least one point")
    if len(space.dist) != n or any(len(row) != n for row in space.dist):
        raise ValueError("distance matrix does not match size %d" % n)
    bad = []
    for i in range(n):
        if space.dist[i][i] != ZERO:
            bad.append(("diagonal", (i,), "d(%d,%d) = %s" % (i, i, space.dist[i][i])))
    for i in range(n):
        for j in range(n):
            dij = space.dist[i][j]
            if not (ZERO <= dij <= ONE):
                bad.append(("range", (i, j), "d = %s" % dij))
    for i in range(n):
        for j in range(i + 1, n):
            if space.dist[i][j] != space.dist[j][i]:
                bad.append(("symmetry", (i, j),
                            "%s vs %s" % (space.dist[i][j], space.dist[j][i])))
    # the triangle inequality on integer numerators at the largest exponent
    nums = numerators(space)[1]
    cols = list(zip(*nums))
    for i in range(n):
        row = nums[i]
        for j in range(n):
            if row[j] <= min(map(add, row, cols[j])):
                continue
            for k in range(n):
                if row[j] > row[k] + cols[j][k]:
                    bad.append(("triangle", (i, k, j),
                                "%s > %s + %s" % (space.dist[i][j],
                                                  space.dist[i][k],
                                                  space.dist[k][j])))
    return ValidationReport(tuple(bad))


def _checked(space):
    report = validate(space)
    if not report.ok:
        raise SpaceValidationError(report)
    return space


def _freeze(rows):
    return tuple(tuple(row) for row in rows)


def from_lower_triangle(name, size, entries):
    rows = [[ZERO] * size for _ in range(size)]
    it = iter(entries)
    for i in range(size):
        for j in range(i + 1):
            v = next(it)
            rows[i][j] = v
            rows[j][i] = v
    return FiniteMetricSpace(name, size, _freeze(rows))


def make_space(name, size, entries):
    """Build a space from a triangular or full entry list and validate it."""
    entries = list(entries)
    tri = size * (size + 1) // 2
    if len(entries) == tri:
        space = from_lower_triangle(name, size, entries)
    elif len(entries) == size * size:
        rows = [entries[i * size:(i + 1) * size] for i in range(size)]
        space = FiniteMetricSpace(name, size, _freeze(rows))
    else:
        raise SpaceFormatError(
            "dist needs %d (triangle) or %d (full) entries, got %d"
            % (tri, size * size, len(entries)))
    return _checked(space)


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
    try:
        entries = [parse_dyadic(t) for t in tokens[5:]]
    except ValueError as err:
        raise SpaceFormatError(str(err)) from None
    return make_space(name, size, entries)


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
    quarters = [Dyadic(v, 2) for v in range(5)]
    rows = [[quarters[v] for v in row] for row in _metric_closure(rows)]
    name = name or ("random%d-seed%d" % (size, seed))
    return _checked(FiniteMetricSpace(name, size, _freeze(rows)))


def _ultrametric8():
    # leaves of a depth-3 binary tree: d = 2^-(shared prefix length), and
    # i ^ j has 3 - (shared prefix length) bits
    rows = [[ZERO if i == j else Dyadic(1, 3 - (i ^ j).bit_length())
             for j in range(8)] for i in range(8)]
    return FiniteMetricSpace("ultra8", 8, _freeze(rows))


@functools.lru_cache(maxsize=1)
def builtin_suite():
    """Deterministic suite of five valid spaces of varied shape, each
    validated once (grid16 by random_repaired_space)."""
    singleton = FiniteMetricSpace("point", 1, ((ZERO,),))
    pair = from_lower_triangle("pair-half", 2, [ZERO, Dyadic(1, 1), ZERO])
    path_rows = [[Dyadic(abs(i - j), 2) for j in range(5)] for i in range(5)]
    path5 = FiniteMetricSpace("path5", 5, _freeze(path_rows))
    grid16 = random_repaired_space(_GRID_SEED, 16, name="grid16")
    suite = (singleton, pair, path5, grid16, _ultrametric8())
    return tuple(space if space is grid16 else _checked(space)
                 for space in suite)
