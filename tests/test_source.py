"""Checks of the package source itself, read with the stdlib ``ast``."""

import ast
from pathlib import Path

import pytest

import brace_forge

MODULES = sorted(p for p in Path(brace_forge.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


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
