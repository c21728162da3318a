"""Every module of the enkit package uses each name it imports, each
module-level private name it defines is read somewhere in the package, and
the chunk budget is read by one walker only."""

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


def _private_names(tree):
    """Module-level `_name`s the tree defines (dunders are not private)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [target.id for target in targets
                      if isinstance(target, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.endswith("__")]


def _read_names(tree):
    """Every name the tree reads, as a variable or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_unread_private_names_are_found():
    tree = ast.parse("_A = 1\n_B: int = 2\n__all__ = []\n"
                     "def _f(): return _A\nclass _C: pass\nx = y._C\n")
    assert _private_names(tree) == ["_A", "_B", "_f", "_C"]
    assert [name for name in _private_names(tree)
            if name not in _read_names(tree)] == ["_B", "_f"]


def test_every_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    unread = [f"{module}:{name}" for module, tree in trees.items()
              for name in _private_names(tree) if name not in read]
    assert unread == []


def _readers(tree, name):
    """Innermost functions reading `name`, as a variable or an attribute,
    in source order; a read outside every function is listed as None."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        elif (isinstance(node, (ast.Name, ast.Attribute))
              and isinstance(node.ctx, ast.Load)
              and (node.id if isinstance(node, ast.Name)
                   else node.attr) == name):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_readers_are_found():
    tree = ast.parse("B = 1\nx = B\ndef f():\n    def g(): return m.B\n"
                     "    return B\ndef h(): B = 2\n")
    assert _readers(tree, "B") == [None, "g", "f"]


def test_one_walker_reads_the_chunk_budget():
    # A box is walked in chunks by kernels.chunks alone: no other function
    # sizes a chunk of its own.
    readers = [f"{path.name}:{function}"
               for path in sorted(PACKAGE.glob("*.py"))
               for function in _readers(
                   ast.parse(path.read_text(encoding="utf-8")),
                   "CHUNK_VALUES")]
    assert readers == ["kernels.py:chunks"]
