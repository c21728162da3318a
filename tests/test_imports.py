"""Every module of the enkit package uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "enkit"
# The package's __init__ imports names only to re-export them.
MODULES = sorted(path.name for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def _unused_imports(source):
    """Imported names the source never reads, in import order.

    `from __future__` imports and import statements marked `# noqa: F401`
    are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from math import (gcd,\n"
              "                  prod)  # noqa: F401\n"
              "from operator import add as plus, mul\n"
              "print(sys.argv, mul)\n")
    assert _unused_imports(source) == ["os", "plus"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert _unused_imports(source) == []
