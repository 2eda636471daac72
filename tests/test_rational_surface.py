"""The command-line surface of the rational real sources, frozen.

tests/rational_surface.json lists [argv, exit code, stdout, stderr] for
`build` and `classify` of every constant, geometric and leveled form
(levels 1, 3, w, w+1, w*2, w^2 and a few more, both sides, both member
schemes, edge values), for malformed sources, and for `eval` and
`classify` of step codes that must be refused. Each row runs cli.main in
process and must print the same bytes.
"""

import json
import os

from numerals.cli import main

with open(os.path.join(os.path.dirname(__file__), "rational_surface.json"),
          encoding="ascii") as _table:
    ROWS = json.load(_table)


def test_table_covers_every_form():
    commands = {argv[0] for argv, *_ in ROWS}
    assert commands == {"build", "classify", "eval"}
    assert len(ROWS) == 341
    for kind in ("constant", "geometric", "leveled"):
        assert any(argv[0] == "build" and kind in argv[1] and code == 0
                   for argv, code, *_ in ROWS)


def test_surface_rows(capsys):
    changed = []
    for argv, code, out, err in ROWS:
        got = main(list(argv))
        captured = capsys.readouterr()
        if (got, captured.out, captured.err) != (code, out, err):
            changed.append((argv, got, captured.out, captured.err))
    assert changed == []
