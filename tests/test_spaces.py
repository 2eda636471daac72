import random
import re
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from numerals.dyadics import Dyadic, ONE, ZERO, from_fraction, parse_dyadic
from numerals.spaces import (MAX_EXP, SpaceFormatError, SpaceValidationError,
                             ValidationReport, builtin_suite, from_entries,
                             FiniteMetricSpace, load_space, load_space_file,
                             make_space, random_repaired_space,
                             serialize_space, validate)

H = Dyadic(1, 1)
Q = Dyadic(1, 2)


def test_triangle_entry_list():
    sp = make_space("pair", 2, [ZERO, H, ZERO])
    assert sp.dist[0][1] == H
    assert sp.dist[1][0] == H
    assert sp.dist[1][1] == ZERO


def test_full_matrix_entry_list():
    sp = make_space("pair", 2, [ZERO, H, H, ZERO])
    assert sp.dist[0][1] == H


def test_wrong_entry_count():
    with pytest.raises(SpaceFormatError):
        make_space("bad", 3, [ZERO] * 5)


def test_symmetry_violation_reported():
    entries = [ZERO, H, Q, ZERO]  # full 2x2, asymmetric
    with pytest.raises(SpaceValidationError) as err:
        make_space("crooked", 2, entries)
    axioms = {v[0] for v in err.value.report.violations}
    assert "symmetry" in axioms


def test_triangle_violation_reported():
    # d(0,2) = 1 but d(0,1) = d(1,2) = 1/4
    entries = [ZERO, Q, ZERO, ONE, Q, ZERO]
    with pytest.raises(SpaceValidationError) as err:
        make_space("stretched", 3, entries)
    kinds = {v[0] for v in err.value.report.violations}
    assert kinds == {"triangle"}
    witnesses = {v[1] for v in err.value.report.violations
                 if v[0] == "triangle"}
    assert (0, 1, 2) in witnesses or (2, 1, 0) in witnesses


def test_diagonal_and_range_violations():
    sp = from_entries("odd", 2, [Q, H, ZERO])
    report = validate(sp)
    assert not report.ok
    assert {"diagonal"} <= {v[0] for v in report.violations}
    big = from_entries("wide", 2, [ZERO, Dyadic(3, 1), ZERO])
    assert "range" in {v[0] for v in validate(big).violations}
    # a space with no point, or rows that do not fit its size, is refused
    # before any axiom is read
    with pytest.raises(ValueError, match="at least one point"):
        validate(FiniteMetricSpace("empty", 0, 0, ()))
    with pytest.raises(ValueError, match="does not match size 2"):
        validate(FiniteMetricSpace("short", 2, 0, ((0, 0), (0,))))


def test_load_space_round_trip():
    text = "name: pair-half\nsize: 2\ndist: 0 1/2 0\n"
    sp = load_space(text)
    assert sp.name == "pair-half"
    assert sp.dist[0][1] == H
    assert load_space(serialize_space(sp)).dist == sp.dist


def test_load_space_rejects_malformed():
    for text in ["", "name: x\nsize: 2\ndist: 0", "size: 2\ndist: 0 0 0",
                 "name: x\nsize: two\ndist: 0", "name: x\nsize: 1\ndist: 1/3",
                 "name: x\nsize: \u0662\ndist: 0 1/2 0",
                 "name: x\nsize: 2\ndist: 0 1_1/2^4 0"]:
        with pytest.raises((SpaceFormatError, SpaceValidationError)):
            load_space(text)


def test_load_space_file(tmp_path):
    path = tmp_path / "sp.txt"
    path.write_text("name: pair-half\nsize: 2\ndist: 0 1/2 0\n")
    assert load_space_file(str(path)).dist[0][1] == H


def _dyadic_repair(seed, size):
    """The random matrix of random_repaired_space, repaired by min-plus
    closure over Dyadic entries."""
    rng = random.Random(seed)
    choices = [Q, H, Dyadic(3, 2), ONE]
    d = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        for j in range(i):
            d[i][j] = d[j][i] = rng.choice(choices)
    for k in range(size):
        for i in range(size):
            for j in range(size):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return tuple(tuple(row) for row in d)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 7))
def test_random_repair_always_valid(seed, size):
    sp = random_repaired_space(seed, size)
    assert validate(sp).ok
    assert sp.dist == _dyadic_repair(seed, size)


def test_grid16_is_the_dyadic_repair():
    assert builtin_suite()[3].dist == _dyadic_repair(3571, 16)


def test_builtin_suite_shape_and_determinism():
    suite = builtin_suite()
    names = [sp.name for sp in suite]
    assert names == ["point", "pair-half", "path5", "grid16", "ultra8"]
    assert [sp.size for sp in suite] == [1, 2, 5, 16, 8]
    assert suite[1].dist[0][1] == H
    assert suite[2].dist[0][4] == ONE
    again = builtin_suite()
    assert [sp.dist for sp in again] == [sp.dist for sp in suite]


def test_ultra8_is_ultrametric():
    ultra = builtin_suite()[4]
    n = ultra.size
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert ultra.dist[i][j] <= max(ultra.dist[i][k], ultra.dist[k][j])


def _reference_validate(space):
    """The four axioms checked by Dyadic comparisons on space.dist, in
    validate's order: diagonal, range, symmetry, triangle (i, k, j)."""
    d, n = space.dist, space.size
    bad = []
    for i in range(n):
        if d[i][i] != ZERO:
            bad.append(("diagonal", (i,), "d(%d,%d) = %s" % (i, i, d[i][i])))
    for i in range(n):
        for j in range(n):
            if not ZERO <= d[i][j] <= ONE:
                bad.append(("range", (i, j), "d = %s" % d[i][j]))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                bad.append(("symmetry", (i, j), "%s vs %s" % (d[i][j], d[j][i])))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][j] > d[i][k] + d[k][j]:
                    bad.append(("triangle", (i, k, j),
                                "%s > %s + %s" % (d[i][j], d[i][k], d[k][j])))
    return ValidationReport(tuple(bad))


def _dyadic(max_exp, low, high):
    """Dyadics num / 2**e, e in 0..max_exp, with num / 2**e in [low, high]."""
    return st.integers(0, max_exp).flatmap(lambda e: st.builds(
        Dyadic, st.integers(low << e, high << e), st.just(e)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_matches_dyadic_reference(data):
    # a symmetric matrix with a zero diagonal and entries in [0, 1] at mixed
    # exponents (so triangles fail often), then injected diagonal, range
    # and symmetry faults
    n = data.draw(st.integers(1, 6))
    d = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i] = data.draw(_dyadic(6, 0, 1))
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)))
        d[i][j] = data.draw(_dyadic(6, -1, 2))
    space = from_entries("m", n, [v for row in d for v in row])
    assert space.dist == tuple(map(tuple, d))
    assert validate(space) == _reference_validate(space)


def _reads_as_parse_dyadic(token):
    # the same entry, or the same error text, as parse_dyadic gives
    plain = re.fullmatch(r"([0-9]{1,4300})/([0-9]{1,4300})", token)
    if plain and int(plain[2]) and not int(plain[2]) & (int(plain[2]) - 1):
        assert parse_dyadic(token) == from_fraction(Fraction(token))
    text = "name: t size: 2 dist: 0 %s 0" % token
    try:
        sp = from_entries("t", 2, [ZERO, parse_dyadic(token), ZERO])
    except (ValueError, SpaceFormatError) as err:
        with pytest.raises(SpaceFormatError) as got:
            load_space(text)
        assert str(got.value) == str(err)
        return
    try:
        loaded = load_space(text)
    except SpaceValidationError as err:
        assert err.report == validate(sp)
        return
    assert loaded.dist == sp.dist and (loaded.exp, loaded.rows) == (sp.exp, sp.rows)


@pytest.mark.parametrize("token", [
    "0", "1", "3/8", "6/16", "08/16", "3/2^3", "0.75", "+1/2", "-1/2",
    "1e-1", "2/6", "1/3", "3/0", "\u0663/8", "1_1/2", "9" * 5000,
    "1/" + "9" * 5000, "1/2^-3", "0/2^-5", "5e-1", "1e-3"],
    ids=lambda t: t if len(t) < 20 else "%d chars" % len(t))
def test_load_space_reads_entries_as_parse_dyadic(token):
    _reads_as_parse_dyadic(token)


_DIGITS = st.builds("{}{}".format, st.sampled_from(("", "0", "00")),
                    st.integers(0, 10 ** 12))
_NOT_POWER = st.integers(3, 10 ** 6).filter(lambda b: b & (b - 1))
_LONG = st.builds(lambda n, body: (body * n)[:n], st.integers(4290, 4310),
                  st.integers(1, 10 ** 12).map(str))
ENTRY_TOKENS = st.one_of(
    _DIGITS,
    st.builds("{}/{}{}".format, _DIGITS, st.sampled_from(("", "0", "00")),
              st.one_of(st.integers(0, 1100).map(lambda k: 1 << k),
                        _NOT_POWER, st.just(0))),
    st.builds("{}/2^{}".format, _DIGITS, st.integers(-5000, 5000)),
    st.builds("{}.{}e{}".format, _DIGITS, _DIGITS, st.integers(-5000, 5000)),
    _LONG, _LONG.map("1/".__add__))


@seed(2211)
@settings(max_examples=300, deadline=timedelta(seconds=1))
@given(ENTRY_TOKENS)
def test_load_space_reads_any_entry_as_parse_dyadic(token):
    _reads_as_parse_dyadic(token)


def test_entry_exponent_bound():
    at = load_space("name: a size: 2 dist: 0 1/2^%d 0" % MAX_EXP)
    assert at.dist[0][1] == Dyadic(1, MAX_EXP) and at.exp == MAX_EXP
    # written finer than the bound, but at it in lowest terms
    assert load_space("name: a size: 2 dist: 0 2/2^%d 0"
                      % (MAX_EXP + 1)).exp == MAX_EXP
    assert load_space("name: a size: 2 dist: 0 %d/%d 0"
                      % (1 << 10, 1 << (MAX_EXP + 10))).exp == MAX_EXP
    for entry in ["1/2^%d" % (MAX_EXP + 1), "3/%d" % (1 << (MAX_EXP + 1)),
                  "1/2^99999999999"]:
        with pytest.raises(SpaceFormatError, match="exponent"):
            load_space("name: a size: 2 dist: 0 %s 0" % entry)
    with pytest.raises(SpaceFormatError, match="exponent"):
        make_space("a", 1, [Dyadic(1, MAX_EXP + 1)])
