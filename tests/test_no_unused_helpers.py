"""Every function, class and class field the package defines is used by
the package.

A name counts as used when package code loads it as a name or an
attribute, or when `extrout/__init__.py` re-exports it. A helper that
only tests call, or that nothing calls, fails here: the test that needs
it should exercise the code that uses it instead. A field of a dataclass
or NamedTuple counts as used only when package code reads it as an
attribute: a field that is stored on every instance and never read is
work for nothing.
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


def _fields(tree: ast.Module, module: str):
    """(module:Class.field, field) of every annotated class field but
    InitVar and ClassVar ones."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not {"InitVar", "ClassVar"} & _references(
                        stmt.annotation, reexports=False)):
                yield f"{module}:{node.name}.{stmt.target.id}", stmt.target.id


def test_every_class_field_is_read_in_the_package():
    fields = []
    read: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        fields += _fields(tree, path.stem)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)}
    assert fields
    assert [where for where, name in fields if name not in read] == []
