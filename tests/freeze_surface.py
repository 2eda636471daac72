"""Re-freeze the command-line surface tables.

Runs every row of tests/rational_surface.json, tests/verify_surface.json
and tests/cli_surface.json through cli.main in process, as the tests in
tests/test_rational_surface.py do, and rewrites each row's exit code,
stdout and stderr. The argv of each row stays as it is. Run it from
anywhere:

    PYTHONPATH=src python tests/freeze_surface.py

Only a change that alters an output on purpose runs it, and that change
lists each changed row in CHANGES.md. On a program whose outputs hold it
leaves all three files byte-identical: `git diff --exit-code tests/*.json`
passes after it.
"""

import json
import os

from test_rational_surface import HERE, ROOT, TABLES, read_rows, run


def main():
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    for name in TABLES:
        rows = [[argv] + run(argv) for argv, *_ in read_rows(name)]
        with open(os.path.join(HERE, name), "w", encoding="ascii") as table:
            table.write("[\n%s\n]\n" % ",\n".join(map(json.dumps, rows)))


if __name__ == "__main__":
    main()
