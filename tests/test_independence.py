"""Modules compared against each other must not import each other.

Each row names a module and the package modules it may import.  The
``iso`` suite's ``delta-path`` compares ``bkinf.delta`` with
``paths.path_weight`` of ``iso.pi_correspondence``, and
``test_path_correspondence_is_bijective`` compares ``enumerate_paths`` with
that correspondence, so none of the three may reach another through an
import.  The k-subset module is a route of its own beside the geometric
actions, the path engine and the chart change, so ``fundrep`` imports none
of ``geom``, ``paths`` or ``birational``: the ``conjecture`` suite, not the
module, applies the chart change to the points whose vectors it compares.
The tropical closed forms are the second route beside ``geom``'s generic
actions, so they call nothing in ``geom``; only the degree probe does.

These rules read the import statements, so they hold only while importing
a module loads nothing else: the package root imports nothing, and each
module loads exactly the modules its imports reach.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import pathcrystal

PACKAGE = Path(pathcrystal.__file__).parent

MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

ALLOWED_IMPORTS = {
    "bkinf": {"errors", "lattice"},
    "fundrep": {"errors", "lattice"},
    "iso": {"errors", "lattice"},
    "paths": {"errors", "lattice"},
}


def package_imports(module):
    """Names of the package modules that ``module`` imports, read with ``ast``."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["pathcrystal"]:
                    continue
                parts = parts[1:]
            names.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "pathcrystal" and len(parts) > 1:
                    names.add(parts[1])
    return names


@pytest.mark.parametrize("module", sorted(ALLOWED_IMPORTS))
def test_module_imports_only_what_it_may(module):
    assert package_imports(module) <= ALLOWED_IMPORTS[module]


def test_import_reader_sees_the_package_imports():
    # suites imports modules both as names and from a module
    assert package_imports("suites") >= {"bkinf", "fundrep", "geom", "iso", "tropical", "paths"}


@pytest.mark.parametrize(
    "form",
    [
        "trop_dbar", "_dbars", "_weight", "_maxima", "_column_keys", "_region_pairs",
        "trop_wt", "trop_eps", "trop_e", "trop_weyl",
    ],
)
def test_tropical_closed_forms_do_not_read_geom(form):
    tree = ast.parse((PACKAGE / "tropical.py").read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == form]
    assert "geom" not in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def import_closure(module):
    """``module`` and every package module its imports reach, transitively."""
    reached, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(package_imports(name))
    return reached


# imports each named module (the root for "") into a fresh package state and
# prints the package modules it loaded, then whether any import loaded argparse
# or gettext
LOADED_BY_EACH = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
loaded = {}
for name in sys.argv[2:]:
    for key in [m for m in sys.modules if m.split(".")[0] == "pathcrystal"]:
        del sys.modules[key]
    importlib.import_module("pathcrystal" + ("." + name if name else ""))
    loaded[name] = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("pathcrystal."))
print(json.dumps([loaded, sorted({"argparse", "gettext"} & set(sys.modules))]))
"""


def test_importing_a_module_loads_only_what_it_imports():
    child = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_BY_EACH, str(PACKAGE.parent), "", *MODULES],
        capture_output=True, text=True, check=True, timeout=120,
    )
    loaded, slow = json.loads(child.stdout)
    # the command line parses without argparse, whose import (with gettext)
    # alone costs about 10 ms of a short call
    assert "cli" in loaded and slow == []
    assert loaded.pop("") == []
    assert {name: set(mods) for name, mods in loaded.items()} == {
        name: import_closure(name) for name in MODULES
    }
