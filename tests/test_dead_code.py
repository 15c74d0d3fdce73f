"""No function, class or method of the package goes unnamed, and no option
goes unset.

A stdlib ``ast`` pass stands in for a dead-code linter: every module-level
function or class and every method defined under ``src/crossfuse`` must be
named somewhere in ``src/`` or ``perfbench/``, as a name, as an attribute,
or as a string that is an identifier (the benchmark's tracer patches
methods by their name as a string).  Dunder methods are exempt, and so are
the names in ``ALLOWED``.  Every parameter with a default of those functions
and methods must be passed, by keyword or by position, by some call in
``src/`` or ``perfbench/`` to a name or attribute of the same name (the
class name for ``__init__``), except the options in ``ALLOWED_OPTIONS``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crossfuse"

# the batch norms of an encoder or a stack, kept as the way to reach them
ALLOWED = {"batch_norms"}
# options kept on purpose though only tests set them: the ranking block
# height, stage-2 resumption, and the generator's knobs for planned studies
ALLOWED_OPTIONS = {"evaluate.top_n(chunk)", "trainer.train_stage2(resume)",
                   "synthetic.generate(affinity)", "synthetic.generate(attribute_noise)"}


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


def _options(tree: ast.Module) -> list[tuple[int, str, str, int | None, str]]:
    """(line, qualified name, callee name, position, parameter) of each
    parameter with a default of each module-level function and method.  The
    position counts the arguments a call passes, so it leaves out ``self``
    or ``cls``; a keyword-only parameter has none."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    callee = node.name if item.name == "__init__" else item.name
                    found += _defaults(item, f"{node.name}.{item.name}", callee,
                                       0 if static else 1)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _defaults(node, node.name, node.name, 0)
    return found


def _defaults(node, qualified: str, callee: str, skip: int):
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(node.lineno, qualified, callee, k - skip, a.arg)
             for k, a in enumerate(positional) if k >= first]
    return found + [(node.lineno, qualified, callee, None, a.arg)
                    for a, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` may pass the parameter: by keyword, by ``**``, or by
    a position it reaches (any position after a ``*`` argument)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unset_options(defined: list[Path], users: list[Path]) -> list[str]:
    """``file:line qualified(parameter)`` of each parameter with a default
    in ``defined`` that no call in ``users`` passes."""
    calls: dict[str, list[ast.Call]] = {}
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(callee, []).append(node)
    unset = []
    for path in defined:
        for line, qualified, callee, position, name in _options(
                ast.parse(path.read_text(encoding="utf-8"))):
            if f"{path.stem}.{qualified}({name})" in ALLOWED_OPTIONS:
                continue
            if not any(_passes(call, position, name) for call in calls.get(callee, [])):
                unset.append(f"{path.name}:{line} {qualified}({name})")
    return unset


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


def test_checker_finds_a_planted_unset_option(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("class Box:\n    def __init__(self, size=1):\n        self.size = size\n"
                       "    def fill(self, value, times=1, *, label=''):\n        return value\n"
                       "    @staticmethod\n    def empty(kind='none'):\n        return kind\n"
                       "def make(count, scale=2.0, unused=None):\n"
                       "    return Box(3).fill(count, 2, label='x')\n"
                       "BOX = make(1, 0.5)\nEMPTY = Box.empty('all')\n", encoding="utf-8")
    assert unset_options([planted], [planted]) == ["planted.py:9 make(unused)"]


def test_package_passes_every_option():
    assert unset_options(sorted(PACKAGE.glob("*.py")), _sources()) == []
