"""No function, class or method of the package goes unnamed.

A stdlib ``ast`` pass stands in for a dead-code linter: every module-level
function or class and every method defined under ``src/crossfuse`` must be
named somewhere in ``src/`` or ``perfbench/``, as a name, as an attribute,
or as a string that is an identifier (the benchmark's tracer patches
methods by their name as a string).  Dunder methods are exempt, and so are
the names in ``ALLOWED``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crossfuse"

# the batch norms of an encoder or a stack, kept as the way to reach them
ALLOWED = {"batch_norms"}


def _definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each module-level function or class and each method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, f"{node.name}.{item.name}") for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return found


def _names_used(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.add(node.value)
    return used


def unused_definitions(defined: list[Path], users: list[Path]) -> list[str]:
    """``file:line name`` of each definition in ``defined`` that no file of
    ``users`` names."""
    used = set()
    for path in users:
        used |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path in defined:
        for line, qualified in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            name = qualified.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__") or name in ALLOWED:
                continue
            if name not in used:
                unused.append(f"{path.name}:{line} {qualified}")
    return unused


def _sources() -> list[Path]:
    return sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


def test_checker_finds_a_planted_unused_function(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("class Box:\n    def __init__(self):\n        self.keep()\n"
                       "    def keep(self):\n        return run('patched')\n"
                       "    def patched(self):\n        pass\n"
                       "def run(name):\n    return name\n"
                       "def planted_unused():\n    pass\n"
                       "BOX = Box()\n", encoding="utf-8")
    assert unused_definitions([planted], [planted, *_sources()]) == [
        "planted.py:10 planted_unused"]


def test_package_names_every_definition():
    assert unused_definitions(sorted(PACKAGE.glob("*.py")), _sources()) == []
