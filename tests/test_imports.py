"""Every module of the package and of the tests reads each name it imports.

The package's __init__ is left out: its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for path in (ROOT / "src" / "numerals").glob("*.py")
               if path.name != "__init__.py") \
    + sorted((ROOT / "tests").glob("*.py"))


def unread_imports(source):
    """The names a module binds by import and never reads."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_scan_finds_unread_names():
    assert unread_imports("import os\nfrom a.b import c, d as e\nprint(c)") \
        == ["e", "os"]
    assert unread_imports("import os.path\nos.path.join('a')") == []


@pytest.mark.parametrize("path", FILES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_imported_names_are_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
