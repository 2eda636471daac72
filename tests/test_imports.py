"""Every module of the package and of the tests reads each name it imports,
and no package module reads a private name of another.

The package's __init__ is left out of the first scan: its imports are its
exports. The second holds each text format to one owner: a module reads
another's format through that module's public reader.

Last, each name the package exports is its home module's object, also for
the reals, engine and spaces names that the package loads on first access.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numerals

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


# Each name the package exports, by the module that defines it
HOMES = {
    "builders": ("EXISTS", "FORALL", "BuildError", "NumeralRecipe",
                 "build_numeral", "dyadic_numeral", "parse_recipe"),
    "dyadics": ("Dyadic", "Enclosure", "parse_dyadic"),
    "engine": ("Engine", "EngineError", "SandwichError", "TruncationSchedule",
               "VerificationReport"),
    "formulas": ("Atomic", "CInf", "CSup", "DotMinus", "ExplicitFamily",
                 "FormulaError", "GeneratedFamily", "Half", "InfQ", "Neg",
                 "Rank", "SupQ", "classify", "parse", "register_generator"),
    "ordinals": ("OMEGA", "OrdinalCNF", "parse_ordinal"),
    "reals": ("LEFT", "RIGHT", "RealSourceError", "parse_target",
              "sigma2_predicate"),
    "spaces": ("FiniteMetricSpace", "builtin_suite", "load_space_file",
               "make_space", "serialize_space", "validate"),
}

# Run after a bare `import numerals` in a fresh interpreter: prints reals,
# engine or spaces if the package loaded it, each lazy name or submodule the
# package does not serve as its home module's object, dir() if it leaves out
# the loaded submodules, and each export that is not its home module's
# object, that `import *` leaves unbound or that dir() leaves out
EXPORTS_PROBE = """
import importlib, sys, numerals
lazy = {"numerals.engine", "numerals.reals", "numerals.spaces"}
if lazy & set(sys.modules):
    print("loaded with the package")
if numerals.reals is not sys.modules["numerals.reals"]:
    print("submodule reals")
if numerals.RealSourceError is not numerals.reals.RealSourceError:
    print("lazy name RealSourceError")
if numerals.Engine is not sys.modules["numerals.engine"].Engine:
    print("lazy name Engine")
if numerals.engine is not sys.modules["numerals.engine"]:
    print("submodule engine")
if numerals.spaces is not sys.modules["numerals.spaces"]:
    print("submodule spaces")
if numerals.spaces.validate is not numerals.validate:
    print("lazy name validate")
submodules = {"builders", "formulas", "engine", "reals", "spaces"}
if not submodules <= set(dir(numerals)):
    print("dir submodules")
star = {}
exec("from numerals import *", star)
for home, names in %r.items():
    module = importlib.import_module("numerals." + home)
    for name in names:
        if getattr(numerals, name) is not getattr(module, name):
            print("home", name)
        if star.get(name) is not getattr(module, name):
            print("star", name)
        if name not in dir(numerals):
            print("dir", name)
"""


def test_package_exports_resolve_to_their_home_objects():
    assert sorted(numerals.__all__) \
        == sorted(name for names in HOMES.values() for name in names)
    done = subprocess.run([sys.executable, "-S", "-c", EXPORTS_PROBE % HOMES],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, check=True)
    assert done.stdout == ""


def test_package_refuses_unknown_names():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        numerals.nope
