"""Every name a module under src/consfree imports is used in that module,
and every private module-level name, nested function, private method and
private `self._x` attribute it defines is read in that module.

A stdlib stand-in for a linter's unused-import and dead-code rules, so the
suite needs no extra dependency.  `__init__.py` is exempt from the import
check: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "consfree"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(source: str) -> list[str]:
    """Module-level `_name` functions, classes and assignments, and functions
    defined inside functions, that nothing outside their own definition reads."""
    tree = ast.parse(source)
    bound: list[tuple[str, ast.stmt]] = []
    for node in tree.body:
        if isinstance(node, (*FUNCS, ast.ClassDef)):
            bound.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    bound = [(name, node) for name, node in bound if is_private(name)]
    for outer in ast.walk(tree):
        if isinstance(outer, FUNCS):
            bound += [(inner.name, inner) for inner in ast.walk(outer)
                      if inner is not outer and isinstance(inner, FUNCS)]
    reads = [n for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
    unread = []
    for name, node in bound:
        inside = {id(n) for n in ast.walk(node)}
        if not any(n.id == name and id(n) not in inside for n in reads):
            unread.append(f"{name} (line {node.lineno})")
    return unread


def unread_private_members(source: str) -> list[str]:
    """Private methods (`def _x` in a class) and private attributes stored as
    `self._x` that nothing in the module reads as an attribute, a method's
    own body aside."""
    tree = ast.parse(source)
    bound: list[tuple[str, ast.AST]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bound += [(f.name, f) for f in node.body if isinstance(f, FUNCS)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            bound.append((node.attr, node))
    reads = [n for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    unread: dict[str, int] = {}  # name: line of its first definition
    for name, node in bound:
        if not is_private(name) or name in unread:
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not any(n.attr == name and id(n) not in inside for n in reads):
            unread[name] = node.lineno
    return [f"{name} (line {line})" for name, line in sorted(
        unread.items(), key=lambda item: item[1])]


def calls_itself(func: ast.AST) -> bool:
    """`func` calls its own name: `name(...)`, or `self.name(...)`."""
    name = func.name
    for n in ast.walk(func):
        if isinstance(n, ast.Call):
            f = n.func
            if isinstance(f, ast.Name) and f.id == name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"):
                return True
    return False


def recursive_functions(source: str) -> list[str]:
    """Qualified names of the functions, nested ones and methods included,
    that call themselves by name."""
    found = []
    todo = [(ast.parse(source), "")]
    while todo:
        node, prefix = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCS, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, FUNCS) and calls_itself(child):
                    found.append(name)
                todo.append((child, name + "."))
            else:
                todo.append((child, prefix))
    return sorted(found)


# walks that stay recursive, each with the reason it may
RECURSION_ALLOWED: dict[str, str] = {}


def test_checker_flags_unused_and_accepts_used():
    src = "from __future__ import annotations\nimport os\nfrom x import a, b\nb()\n"
    assert unused_imports(src) == ["os (line 2)", "a (line 3)"]
    assert unused_imports("import os.path\nos.path.join()\n") == []


def test_private_name_checker_flags_unread_and_accepts_read():
    src = (
        "def _dead(n):\n    return _dead(n - 1)\n"  # reads only itself
        "class _Gone:\n    pass\n"
        "_UNUSED: int = 1\n_USED = 2\n__all__ = []\n"
        "def _live():\n    return _USED\n"
        "def public():\n    def go(n):\n        return go(n)\n    return _live()\n"
    )
    assert unread_private_names(src) == [
        "_dead (line 1)", "_Gone (line 3)", "_UNUSED (line 5)", "go (line 11)"
    ]


def test_private_member_checker_flags_unread_and_accepts_read():
    src = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self._kept = 1\n"
        "        self._lost = 2\n"
        "        self._lost = 3\n"
        "        self.public = 4\n"
        "    def _dead(self, n):\n"
        "        return self._dead(n - 1)\n"  # reads only itself
        "    def _live(self):\n"
        "        return self._kept\n"
        "    def run(self):\n"
        "        return self._live()\n"
    )
    assert unread_private_members(src) == ["_lost (line 4)", "_dead (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_unread_private_members(path):
    assert unread_private_members(path.read_text(encoding="utf-8")) == []


def test_recursion_checker_flags_self_calls():
    src = (
        "def f(n):\n    return f(n - 1)\n"
        "def outer():\n    def go(n):\n        return go(n)\n    return go(1)\n"
        "def calls_other():\n    return f(1)\n"
        "class A:\n"
        "    def m(self):\n        return self.m()\n"
        "    def n(self, other):\n        return other.n()\n"
    )
    assert recursive_functions(src) == ["A.m", "f", "outer.go"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_recursion_outside_the_allow_list(path):
    found = [f"{path.stem}.{name}" for name in
             recursive_functions(path.read_text(encoding="utf-8"))]
    assert [name for name in found if name not in RECURSION_ALLOWED] == []
