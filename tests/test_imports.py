"""No module of the package imports a name it never uses.

A stdlib ``ast`` pass stands in for a linter's unused-import rule: every
name an import statement binds must be read somewhere in its module, as a
name or the root of an attribute chain, in code or in a string annotation.
An import statement marked ``# noqa: F401`` is exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crossfuse"


def _names_read(tree: ast.AST) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            read |= _names_read(ast.parse(annotation.value, mode="eval"))
    return read


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                  for alias in node.names]
    read = _names_read(tree)
    return [name for _, name in sorted(bound) if name not in read]


def test_checker_finds_unused_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from json import (dumps,\n    loads)  # noqa: F401\n"
              "from typing import Any\n"
              "def f(x: 'Any') -> None:\n    return np.asarray(x)\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
