"""Checks of the package source itself, read with the stdlib ``ast``."""

import ast
from pathlib import Path

import pytest

import brace_forge

PACKAGE = sorted(Path(brace_forge.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def exported_names(tree: ast.Module) -> list[str]:
    """The names a module's ``__all__`` assignment lists, or []."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def unused_imports(source: str) -> list[str]:
    """The names an ``import`` or ``from ... import`` of ``source`` binds
    that no expression of it reads, sorted.  ``__future__`` imports bind
    nothing; a name listed in ``__all__`` is read."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read - set(exported_names(tree)))


def unbound_exports(source: str) -> list[str]:
    """The names in ``__all__`` of ``source`` that no top-level statement
    binds (a def, class, assignment or import), in ``__all__`` order."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [name for name in exported_names(tree) if name not in bound]


def test_unused_imports_finds_what_is_never_read():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "import xml.dom\nfrom json import dumps as d, loads\nfrom typing import *\n"
              "__all__ = ['loads']\nxml.dom.minidom\nd({})\nos = None\n")
    assert unused_imports(source) == ["os", "osp"]


def test_modules_are_found():
    assert {"core", "ideals", "verify"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unbound_exports_finds_a_stale_name():
    source = ("import os\nfrom json import dumps as d\nX: int = 1\nY, Z = 2, 3\n"
              "def f(): pass\nclass C: pass\n"
              "__all__ = ['os', 'd', 'X', 'Y', 'Z', 'f', 'C', 'gone', 'dumps']\n")
    assert unbound_exports(source) == ["gone", "dumps"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_binds_every_name_it_exports(path):
    assert unbound_exports(path.read_text()) == []
