"""No module of the package imports a name it never uses.

No linter ships with the project, so this is the check for imports left
behind when code is deleted. ``__init__.py`` is exempt: its imports are the
package's re-exports.
"""

import ast
import pathlib

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
