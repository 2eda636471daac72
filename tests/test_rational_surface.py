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

tests/cli_surface.json lists the same for the paths that read recipes,
step params, cuts and dyadic literals: `verify` of malformed recipes, of
bad --suite files (tests/suites) and of bad options, whose argparse exit is
recorded as its exit code, `eval` of cut, staged-approx and step codes at
several depths and of malformed staged-approx params, `dyadic` of 29
literal forms, `eval` over one 2-point space file per form of a dist
entry (tests/suites/entry_*.txt), and `build` of real descriptors with the
wrong arity or a member value that is not rational.

Each row runs cli.main in process, from the repository root and with
usage text wrapped at 80 columns, and must print the same bytes.
tests/freeze_surface.py rewrites the outputs of all three tables.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

from numerals.acceptance import LEFT_CORPUS, RIGHT_CORPUS
from numerals.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TABLES = ("rational_surface.json", "verify_surface.json", "cli_surface.json")


def read_rows(name):
    with open(os.path.join(HERE, name), encoding="ascii") as table:
        return json.load(table)


def run(argv):
    """[exit code, stdout, stderr] of cli.main(argv) in process; argparse's
    SystemExit gives the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
    return [code, out.getvalue(), err.getvalue()]


ROWS, VERIFY_ROWS, CLI_ROWS = map(read_rows, TABLES)


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


def test_cli_table_covers_recipes_suites_options_and_codes():
    assert len(CLI_ROWS) == 122
    for argv, code, out, err in CLI_ROWS:
        assert argv[0] in ("verify", "eval", "dyadic", "build")
        assert not any(os.path.isabs(arg) for arg in argv)
        assert ROOT not in out + err
        if "--suite" in argv:
            assert os.path.isfile(os.path.join(ROOT, argv[3]))
    # each verify row is refused: malformed recipes, suites and options
    assert {code for argv, code, *_ in CLI_ROWS if argv[0] == "verify"} == {2}
    for family in ("dyadic-upper-cut", "dyadic-lower-cut", "staged-approx",
                   "successor-members", "limit-members"):
        assert any(argv[0] == "eval" and family in argv[1] and code == 0
                   for argv, code, *_ in CLI_ROWS)


def _changed(table, monkeypatch):
    # argparse wraps its usage text at the terminal's width, and the suite
    # paths are relative to the repository root
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    changed = []
    for argv, *row in table:
        got = run(argv)
        if got != row:
            changed.append([argv] + got)
    return changed


def test_surface_rows(monkeypatch):
    assert _changed(ROWS, monkeypatch) == []


def test_verify_surface_rows(monkeypatch):
    assert _changed(VERIFY_ROWS, monkeypatch) == []


def test_cli_surface_rows(monkeypatch):
    assert _changed(CLI_ROWS, monkeypatch) == []
