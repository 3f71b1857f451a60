"""No module of the package imports a name it never uses, and no private
function or class or UPPER_CASE constant of the package goes unused.

No linter ships with the project, so these are the checks for imports and
helpers left behind when code is deleted. ``__init__.py`` is exempt from the
first: its imports are the package's re-exports.
"""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "interfere"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> dict:
    """Each imported name that no expression of ``source`` reads, with its line."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def test_unused_imports_are_found():
    assert unused_imports("import math\nfrom dataclasses import dataclass\nimport numpy.linalg\n") == {
        "math": 1, "dataclass": 2, "numpy": 3,
    }
    assert unused_imports("import numpy as np\nfrom os import path as p\nnp.ones(p.sep)\n") == {}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == {}


def private_name(top):
    """The name of a module-level private function or class, else None."""
    own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
    return own if own.startswith("_") and not own.startswith("__") else None


def constant_name(top):
    """The name that a module-level assignment to an UPPER_CASE name binds, else None."""
    targets = top.targets if isinstance(top, ast.Assign) else [top.target] if isinstance(top, ast.AnnAssign) else []
    names = [t.id for t in targets if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)]
    return names[0] if names else None


def unreferenced(sources: dict, definition=private_name) -> dict:
    """Each module-level name of ``sources`` (module name -> source) that
    ``definition`` picks out and that no code outside its own definition names,
    as a name read or an attribute, with its module and line."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined, named = {}, set()
    for module, tree in trees.items():
        for top in tree.body:
            own = definition(top)
            if own:
                defined[own] = (module, top.lineno)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != own:  # a recursive call does not keep a function alive
                    named.add(name)
    return {name: where for name, where in defined.items() if name not in named}


def test_unreferenced_privates_are_found():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1)\ndef _kept():\n    pass\nclass _Gone:\n    pass\n",
        "b": "from . import a\nfrom .a import _kept\ndef f():\n    return a._kept, _kept\n",
    }
    assert unreferenced(sources) == {"_dead": ("a", 1), "_Gone": ("a", 5)}


def test_every_private_function_and_class_is_used():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreferenced(sources) == {}


def test_unread_constants_are_found():
    sources = {
        "a": "DEAD = 1\nKEPT: int = 2\nlower = 3\n__all__ = []\nALIAS = KEPT\n",
        "b": "from . import a\ndef f():\n    return a.ALIAS\n",
    }
    assert unreferenced(sources, constant_name) == {"DEAD": ("a", 1)}


def test_every_constant_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreferenced(sources, constant_name) == {}


GRAM_TOLERANCES = {"HERMITICITY_TOL", "UNIT_DIAGONAL_TOL", "PSD_TOL"}


def readers(sources: dict, names) -> dict:
    """Each module of ``sources`` that reads one of ``names``, as a name or an
    attribute, with the names it reads."""
    found = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            read = node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else (
                node.attr if isinstance(node, ast.Attribute) else None)
            if read in names:
                found.setdefault(module, set()).add(read)
    return found


def test_readers_are_found():
    sources = {
        "a": "TOL = 1\ndef f(x):\n    return x < TOL\n",
        "b": "from . import a\nfrom .a import TOL\nLIMIT = a.TOL + TOL\n",
        "c": "TOL = 2\n",
    }
    assert readers(sources, {"TOL"}) == {"a": {"TOL"}, "b": {"TOL"}}


def test_only_model_reads_the_gram_tolerances():
    # the Gram tests live once, in model; every other module calls them
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert readers(sources, GRAM_TOLERANCES) == {"model.py": GRAM_TOLERANCES}
