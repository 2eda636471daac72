"""Every module of the package and of the tests reads each name it imports,
and no package module reads a private name of another.

The package's __init__ is left out of the first scan: its imports are its
exports. The second holds each text format to one owner: a module reads
another's format through that module's public reader.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "numerals").glob("*.py"))
FILES = [path for path in PACKAGE if path.name != "__init__.py"] \
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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_reads(source):
    """The private names of other package modules that a package module
    reads, as module._name: through `from .module import _name`, or as
    module._name after `from . import module`."""
    tree = ast.parse(source)
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.add("%s.%s" % (node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.add("%s.%s" % (modules[node.value.id], node.attr))
    return sorted(found)


def test_scan_finds_private_reads():
    assert private_reads("from .a import _b, c\nfrom . import d as e\n"
                         "e._f(e.g, e.__doc__, c._h)\nfrom os import _exit") \
        == ["a._b", "d._f"]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_private_reads_across_modules(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []
