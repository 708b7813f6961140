"""Every name a module under src/consfree imports is used in that module,
and every private module-level name, nested function, private method and
private `self._x` attribute it defines is read in that module.  No function
calls itself, outside `fmt.py` no module names a decision-interface symbol by
a string literal, and outside `terms.py` no module compiles a rule by
calling `head_tests`.  No module uses `functools.cache` or `lru_cache`, and
outside `terms.py` none uses `cached_property`.  No function reads
`Kind.DEFINED` or `Kind.CONSTRUCTOR`: it reads the `terms` constants.

A stdlib stand-in for a linter's unused-import and dead-code rules, so the
suite needs no extra dependency.  `__init__.py` is exempt from the import
check: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

from consfree.fmt import DECISION_INTERFACE

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


INTERFACE_NAMES = {s.name for s in DECISION_INTERFACE}


def interface_literals(source: str) -> list[str]:
    """`Symbol(...)` and `.symbol(...)` calls whose first argument is a string
    literal naming a decision-interface symbol: `fmt` holds those symbols."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if not (isinstance(n, ast.Call) and n.args):
            continue
        f, first = n.func, n.args[0]
        named = (isinstance(f, ast.Name) and f.id == "Symbol") or (
            isinstance(f, ast.Attribute) and f.attr == "symbol")
        if named and isinstance(first, ast.Constant) and first.value in INTERFACE_NAMES:
            found.append(f"{first.value} (line {n.lineno})")
    return found


def test_interface_literal_checker_flags_literals():
    src = (
        'a = Symbol("cons", 2, Kind.CONSTRUCTOR)\n'
        'b = trs.symbol("true")\n'
        'c = Symbol("bot", 0, Kind.CONSTRUCTOR)\n'
        'd = trs.symbol(name)\n'
        'e = Symbol(f"st_{q}", 0, Kind.CONSTRUCTOR)\n'
        'f = symbol("start")\n'
    )
    assert interface_literals(src) == ["cons (line 1)", "true (line 2)"]


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "fmt.py"], ids=lambda p: p.name
)
def test_decision_interface_named_only_in_fmt(path):
    assert interface_literals(path.read_text(encoding="utf-8")) == []


def head_tests_calls(source: str) -> list[str]:
    """Calls of `head_tests`, bare or as an attribute, and of a `_compile`
    method: `Trs.index` compiles each rule once for the table and the oracle
    alike, and hands out its plans by `plan(i)`."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call):
            f = n.func
            if (isinstance(f, ast.Name) and f.id == "head_tests") or (
                    isinstance(f, ast.Attribute) and f.attr == "head_tests"):
                found.append(f"head_tests (line {n.lineno})")
            elif isinstance(f, ast.Attribute) and f.attr == "_compile":
                found.append(f"_compile (line {n.lineno})")
    return found


def test_head_tests_call_checker_flags_calls():
    src = (
        "tests, pats = head_tests(rule.lhs)\n"
        "other = terms.head_tests(lhs)\n"
        "alias = head_tests\n"
        "plan = trs.index.plans[i]\n"
        "plan = self.index._compile(i)\n"
        "plan = self.index.plan(i)\n"
        "compile = index._compile\n"
    )
    assert head_tests_calls(src) == [
        "head_tests (line 1)", "head_tests (line 2)", "_compile (line 5)"
    ]


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "terms.py"], ids=lambda p: p.name
)
def test_rules_compiled_only_in_terms(path):
    assert head_tests_calls(path.read_text(encoding="utf-8")) == []


CACHES = ("cache", "lru_cache", "cached_property")


def cache_uses(source: str) -> list[str]:
    """`functools` caches named in `source`: imported from `functools`, or
    read as its attributes.  `Trs` hashes by value, so a cache keyed by
    system would share one system's facts with every equal system and keep
    them all alive; a system's facts are `Trs`'s own cached properties."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ImportFrom) and n.module == "functools":
            found.update((n.lineno, a.name) for a in n.names if a.name in CACHES)
        elif (isinstance(n, ast.Attribute) and n.attr in CACHES
                and isinstance(n.value, ast.Name) and n.value.id == "functools"):
            found.add((n.lineno, n.attr))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_cache_checker_flags_functools_caches():
    src = (
        "import functools\n"
        "from functools import lru_cache, partial\n"
        "@functools.cache\n"
        "def f(trs): ...\n"
        "class A:\n"
        "    @functools.cached_property\n"
        "    def facts(self): ...\n"
        "cache = {}\n"
        "hit = self.cache.get(x)\n"
        "from functools import cached_property as kept\n"
    )
    assert cache_uses(src) == [
        "lru_cache (line 2)", "cache (line 3)", "cached_property (line 6)",
        "cached_property (line 10)",
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_function_caches(path):
    used = cache_uses(path.read_text(encoding="utf-8"))
    if path.name == "terms.py":  # `Trs.facts` and `Trs.index`
        used = [u for u in used if not u.startswith("cached_property ")]
    assert used == []


KINDS = ("DEFINED", "CONSTRUCTOR")


def kind_member_reads(source: str) -> list[str]:
    """`Kind.DEFINED` and `Kind.CONSTRUCTOR` read inside a function or a
    lambda, or inside a nested function's defaults: an Enum member lookup
    costs about four global reads, so functions compare a symbol's kind
    against the `terms.DEFINED` and `terms.CONSTRUCTOR` constants.
    Module-level definitions may read the members."""
    found = set()
    for f in ast.walk(ast.parse(source)):
        if isinstance(f, (*FUNCS, ast.Lambda)):
            body = f.body if isinstance(f.body, list) else [f.body]
            for n in (n for stmt in body for n in ast.walk(stmt)):
                owner = getattr(n, "value", None)  # `Kind` or `terms.Kind`
                if (isinstance(n, ast.Attribute) and n.attr in KINDS and "Kind" in (
                        getattr(owner, "id", None), getattr(owner, "attr", None))):
                    found.add((n.lineno, n.col_offset, n.attr))
    return [f"Kind.{attr} (line {line})" for line, _, attr in sorted(found)]


def test_kind_member_read_checker_flags_reads_in_functions():
    src = (
        'START = Symbol("start", 1, Kind.DEFINED)\n'
        "def f(t, kind=Kind.CONSTRUCTOR):\n"
        "    return t.head.kind is Kind.DEFINED\n"
        "def g(name):\n"
        "    def sym(kind: Kind = Kind.DEFINED):\n"
        "        return kind is terms.Kind.CONSTRUCTOR or kind is DEFINED\n"
        "    return (lambda s: s.kind is Kind.CONSTRUCTOR)(name)\n"
        "check = lambda s: s.kind is Kind.DEFINED\n"
        "class A:\n"
        "    KIND = Kind.CONSTRUCTOR\n"
        "    def m(self):\n"
        "        return Kind.DEFINED.value, Other.DEFINED\n"
    )
    assert kind_member_reads(src) == [
        "Kind.DEFINED (line 3)", "Kind.DEFINED (line 5)",
        "Kind.CONSTRUCTOR (line 6)", "Kind.CONSTRUCTOR (line 7)",
        "Kind.DEFINED (line 8)", "Kind.DEFINED (line 12)",
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_kind_member_reads_in_functions(path):
    assert kind_member_reads(path.read_text(encoding="utf-8")) == []
