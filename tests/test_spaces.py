import random

import pytest
from hypothesis import given, settings, strategies as st

from numerals.dyadics import Dyadic, ONE, ZERO
from numerals.spaces import (SpaceFormatError, SpaceValidationError,
                             builtin_suite, from_lower_triangle, load_space,
                             load_space_file, make_space,
                             random_repaired_space, serialize_space, validate)

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
    sp = from_lower_triangle("odd", 2, [Q, H, ZERO])
    report = validate(sp)
    assert not report.ok
    assert {"diagonal"} <= {v[0] for v in report.violations}
    big = from_lower_triangle("wide", 2, [ZERO, Dyadic(3, 1), ZERO])
    assert "range" in {v[0] for v in validate(big).violations}


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
