"""Every function and class the package defines is used by the package.

A name counts as used when package code loads it as a name or an
attribute, or when `extrout/__init__.py` re-exports it. A helper that
only tests call, or that nothing calls, fails here: the test that needs
it should exercise the code that uses it instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "extrout"

# Called by the standard library, not by the package.
EXEMPT = {"_Parser.error"}


def _definitions(tree: ast.Module, module: str):
    """(module:qualified name, qualified name, bare name) of every
    function and class, nested ones included; methods are qualified by
    their class."""
    def visit(node, owner: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualified = f"{owner}.{child.name}" if owner else child.name
                yield f"{module}:{qualified}", qualified, child.name
                inner = child.name if isinstance(child, ast.ClassDef) else owner
                yield from visit(child, inner)
            else:
                yield from visit(child, owner)
    yield from visit(tree, "")


def _references(tree: ast.Module, reexports: bool) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif reexports and isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_definition_is_referenced_in_the_package():
    defined = []
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined += _definitions(tree, path.stem)
        used |= _references(tree, reexports=path.name == "__init__.py")
    unused = [where for where, qualified, name in defined
              if name not in used and qualified not in EXEMPT
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []
