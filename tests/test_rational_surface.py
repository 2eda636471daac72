"""Command-line surfaces, frozen.

tests/rational_surface.json lists [argv, exit code, stdout, stderr] for
`build` and `classify` of every constant, geometric and leveled form
(levels 1, 3, w, w+1, w*2, w^2 and a few more, both sides, both member
schemes, edge values), for malformed sources, and for `eval` and
`classify` of step codes that must be refused.

tests/verify_surface.json lists the same for `verify`, in both formats,
of the 26 ladder cells of perfbench/goldens/ladder.json, of the 20 corpus
recipes at depths 16 and 256, and of the geometric leveled recipes of "1/3"
on both sides at w and w*2 (depths 8 and 16) and w^2 (depths 4 and 8),
whose verdicts once flipped with depth.

Each row runs cli.main in process and must print the same bytes.
"""

import json
import os

from numerals.acceptance import LEFT_CORPUS, RIGHT_CORPUS
from numerals.cli import main


def _rows(name):
    with open(os.path.join(os.path.dirname(__file__), name),
              encoding="ascii") as table:
        return json.load(table)


ROWS = _rows("rational_surface.json")
VERIFY_ROWS = _rows("verify_surface.json")


def test_table_covers_every_form():
    commands = {argv[0] for argv, *_ in ROWS}
    assert commands == {"build", "classify", "eval"}
    assert len(ROWS) == 341
    for kind in ("constant", "geometric", "leveled"):
        assert any(argv[0] == "build" and kind in argv[1] and code == 0
                   for argv, code, *_ in ROWS)


def test_verify_table_covers_ladder_and_corpus():
    assert {argv[0] for argv, *_ in VERIFY_ROWS} == {"verify"}
    cells = {(argv[1], argv[3]) for argv, *_ in VERIFY_ROWS}
    for recipe in RIGHT_CORPUS + LEFT_CORPUS:
        assert {(recipe, "16"), (recipe, "256")} <= cells
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "goldens", "ladder.json"), encoding="ascii") as fh:
        ladder = json.load(fh)
    assert len(ladder) == 26
    assert {tuple(key.rsplit(" @ ", 1)) for key in ladder} <= cells
    for level, depths in (("w", ("8", "16")), ("w*2", ("8", "16")),
                          ("w^2", ("4", "8"))):
        for side in ("left", "right"):
            recipe = ('(numeral %s %s (real leveled %s %s (members geometric '
                      '"1/3")))' % (side, level, side, level))
            assert {(recipe, depth) for depth in depths} <= cells
    # each cell once in each format
    rows = [(argv[1], argv[3], "--format" in argv) for argv, *_ in VERIFY_ROWS]
    assert len(rows) == len(set(rows)) == 2 * len(cells)


def _changed(table, capsys):
    changed = []
    for argv, code, out, err in table:
        got = main(list(argv))
        captured = capsys.readouterr()
        if (got, captured.out, captured.err) != (code, out, err):
            changed.append((argv, got, captured.out, captured.err))
    return changed


def test_surface_rows(capsys):
    assert _changed(ROWS, capsys) == []


def test_verify_surface_rows(capsys):
    assert _changed(VERIFY_ROWS, capsys) == []
