"""The README's examples run as shown.

Each `$ numerals ...` example under "Command line" runs through cli.main in
process, and its output must match the lines the README shows below it,
where a line `...` stands for any number of lines. Each recipe example
builds, and its numeral classifies to the recipe's declared rank.
"""

import os
import re
import shlex

import pytest

from numerals.builders import parse_recipe
from numerals.cli import main

with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
          encoding="utf-8") as _readme:
    README = _readme.read()
_START = README.index("## Command line")
COMMAND_LINE = README[_START:README.index("\n## ", _START)]

# the README says so in prose: the demo prints criterion 4 as FAIL
EXIT_CODES = {"demo": 1}


def _examples():
    """(argv, shown output lines) of each indented `$ numerals` block."""
    examples = []
    for block in re.findall(r"(?m)^    \$ numerals .*\n(?:    \S.*\n)*",
                           COMMAND_LINE):
        command, *shown = [line[4:] for line in block.splitlines()]
        examples.append((shlex.split(command)[2:], shown))
    return examples


def _recipes():
    block = COMMAND_LINE.split("Recipes name a side, a level, and a real source:")[1]
    return re.findall(r"(?m)^    (\(numeral .*\))$", block.split("\n\n")[1] + "\n")


EXAMPLES = _examples()


def _matches(lines, shown):
    """Whether lines match shown, where a shown `...` matches any lines."""
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line + "\n")
                      for line in shown)
    return re.fullmatch(pattern, "".join(line + "\n" for line in lines)) is not None


def test_readme_has_the_examples():
    assert [argv[0] for argv, _ in EXAMPLES] == [
        "dyadic", "build", "classify", "eval", "verify", "demo"]
    assert len(_recipes()) == 4


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[a[0] for a, _ in EXAMPLES])
def test_command_line_example(capsys, argv, shown):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CODES.get(argv[0], 0)
    assert captured.err == ""
    if shown:
        assert _matches(captured.out.splitlines(), shown), captured.out


@pytest.mark.parametrize("text", _recipes())
def test_recipe_example(capsys, text):
    assert main(["build", text]) == 0
    code = capsys.readouterr().out.strip()
    assert main(["classify", code]) == 0
    assert capsys.readouterr().out.strip() == str(parse_recipe(text).rank)
