"""Every exported or re-exported package name must exist."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import extrout


def test_every_all_name_resolves():
    for info in pkgutil.iter_modules(extrout.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"extrout.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"extrout.{info.name}.{name}"


def test_every_package_import_resolves():
    tree = ast.parse(Path(extrout.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"extrout.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"extrout.{node.module}.{alias.name}"
