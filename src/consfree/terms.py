"""First-order terms, rules, and rewrite systems.

Terms are immutable trees: a variable, or a symbol applied to exactly
arity-many arguments.  The signature splits into defined symbols (those that
head rewrite rules) and constructors (everything else); ground constructor
terms are the data values everything else computes over.

Positions are tuples of 1-based child indices; the empty tuple is the root.
All functions here are pure.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Callable, ClassVar, Optional, Sequence


class Kind(Enum):
    DEFINED = "defined"
    CONSTRUCTOR = "constructor"


class Symbol:
    """A function symbol.  There is one object per (name, arity, kind):
    building an equal symbol returns the first one made, so symbols compare
    and hash by identity."""

    __slots__ = ("name", "arity", "kind")
    name: str
    arity: int
    kind: Kind

    def __new__(cls, name: str, arity: int, kind: Kind) -> Symbol:
        key = (name, arity, kind)
        sym = _SYMBOLS.get(key)
        if sym is None:
            sym = _SYMBOLS[key] = object.__new__(cls)
            object.__setattr__(sym, "name", name)
            object.__setattr__(sym, "arity", arity)
            object.__setattr__(sym, "kind", kind)
        return sym

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Symbol is immutable")

    def __reduce__(self) -> tuple:
        return Symbol, (self.name, self.arity, self.kind)

    def __repr__(self) -> str:
        return f"Symbol(name={self.name!r}, arity={self.arity!r}, kind={self.kind!r})"

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


_SYMBOLS: dict[tuple[str, int, Kind], Symbol] = {}


@dataclass(frozen=True)
class Var:
    name: str
    is_data: ClassVar[bool] = False
    head: ClassVar[None] = None  # head tests and index keys read "no head"

    def __str__(self) -> str:
        return self.name


class App:
    """A symbol applied to arity-many arguments.  Never mutated: the hash and
    `is_data` (ground constructor term) are computed once, at construction,
    from the children's."""

    __slots__ = ("head", "args", "is_data", "_hash")
    head: Symbol
    args: tuple
    is_data: bool

    def __init__(self, head: Symbol, args: tuple = ()) -> None:
        if len(args) != head.arity:
            raise ValueError(
                f"{head.name} expects {head.arity} arguments, got {len(args)}"
            )
        data = head.kind is Kind.CONSTRUCTOR
        if data:
            for a in args:
                if not a.is_data:
                    data = False
                    break
        self.head = head
        self.args = args
        self.is_data = data
        self._hash = hash((head, args))

    def __eq__(self, other: object) -> bool:
        # iterative: two distinct equal terms may nest past the recursion limit
        if self is other:
            return True
        if not isinstance(other, App):
            return NotImplemented
        if self._hash != other._hash or self.head is not other.head:
            return False
        xs, ys = self.args, other.args
        todo: list[tuple[tuple, tuple]] = []
        while True:
            for x, y in zip(xs, ys):
                if x is y:
                    continue
                if x.head is not y.head or x.__class__ is Var and x != y:
                    return False  # variables have no head: compare names
                if x.__class__ is App and x.args:
                    todo.append((x.args, y.args))
            if not todo:
                return True
            xs, ys = todo.pop()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"App(head={self.head!r}, args={self.args!r})"

    def __str__(self) -> str:
        return format_term(self)


Term = Var | App
Position = tuple[int, ...]
Substitution = dict[str, Term]


def format_term(t: Term) -> str:
    """`f(a, g(x))` notation; a constant is its bare name."""
    parts: list[str] = []
    todo: list = [t]  # terms and the separators between them
    while todo:
        u = todo.pop()
        if isinstance(u, str):
            parts.append(u)
        elif isinstance(u, Var):
            parts.append(u.name)
        elif not u.args:
            parts.append(u.head.name)
        else:
            parts.append(u.head.name + "(")
            todo.append(")")
            for i in range(len(u.args) - 1, 0, -1):
                todo.append(u.args[i])
                todo.append(", ")
            todo.append(u.args[0])
    return "".join(parts)


def size(t: Term) -> int:
    n = 0
    todo = [t]
    while todo:
        u = todo.pop()
        n += 1
        if isinstance(u, App):
            todo.extend(u.args)
    return n


def variables(t: Term) -> set[str]:
    """Names of the variables in t, by one walk into one set."""
    out: set[str] = set()
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, Var):
            out.add(u.name)
        else:
            todo.extend(u.args)
    return out


def subterms(t: Term) -> list[Term]:
    """All subterm occurrences of t in pre-order, t itself first.

    Occurrences, not distinct terms: f(a, a) yields a twice.  The length of
    the result equals the node count of t.
    """
    out: list[Term] = []
    todo = [t]
    while todo:
        u = todo.pop()
        out.append(u)
        if isinstance(u, App):
            todo.extend(reversed(u.args))
    return out


def positions(t: Term) -> list[Position]:
    """All positions of t in pre-order, root (empty tuple) first."""
    out: list[Position] = []
    todo: list[tuple[Position, Term]] = [((), t)]
    while todo:
        pos, u = todo.pop()
        out.append(pos)
        if isinstance(u, App):
            for i in range(len(u.args), 0, -1):
                todo.append(((*pos, i), u.args[i - 1]))
    return out


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        if isinstance(t, Var) or not 1 <= i <= len(t.args):
            raise IndexError(f"no subterm at position {'.'.join(map(str, pos))}")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, pos: Position, repl: Term) -> Term:
    """Return t with the subterm at pos replaced by repl."""
    spine: list[tuple[App, int]] = []
    for i in pos:
        if isinstance(t, Var) or not 1 <= i <= len(t.args):
            raise IndexError(f"no subterm at position {'.'.join(map(str, pos))}")
        spine.append((t, i - 1))
        t = t.args[i - 1]
    for node, i in reversed(spine):
        args = list(node.args)
        args[i] = repl
        repl = App(node.head, tuple(args))
    return repl


def is_data(t: Term) -> bool:
    """True iff t is a ground constructor term (a data value)."""
    return t.is_data


def is_constructor_term(t: Term) -> bool:
    """True iff t contains no defined symbols (variables allowed)."""
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, App) and not u.is_data:
            if u.head.kind is not Kind.CONSTRUCTOR:
                return False
            todo.extend(u.args)
    return True


def match(pattern: Term, subject: Term) -> Optional[Substitution]:
    """Match a pattern against a ground subject.

    Returns the unique substitution g with pattern*g == subject, or None.
    Repeated pattern variables must bind consistently.
    """
    if isinstance(pattern, Var):
        return {pattern.name: subject}
    subst: Substitution = {}
    todo = [(pattern, subject)]
    while todo:
        p, s = todo.pop()
        if isinstance(s, Var) or p.head is not s.head:
            return None
        for pa, sa in zip(p.args, s.args):
            if isinstance(pa, Var):
                bound = subst.setdefault(pa.name, sa)
                if bound is not sa and bound != sa:
                    return None
            else:
                todo.append((pa, sa))
    return subst


def apply(subst: Substitution, t: Term) -> Term:
    """t with each variable bound in subst replaced by its image.  Data
    subterms are returned as they are, not copied; the rest is rebuilt by
    `build`, so depth meets no recursion limit."""
    order: list[Symbol | Term] = []
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, Var):
            order.append(subst.get(u.name, u))
        elif u.is_data:
            order.append(u)
        else:
            order.append(u.head)
            todo.extend(reversed(u.args))
    return build(order)


def build(order: Sequence[Symbol | Term | int]) -> Term:
    """The term whose nodes `order` lists in pre-order.  A symbol is a node
    whose arity-many arguments follow it, a term stands for itself, and an
    int k before an argument makes k copies (one object) of it.  The term is
    built bottom-up on an explicit stack, so depth meets no recursion limit."""
    built: list[Term] = []
    for x in reversed(order):  # a node's arguments are the last built, first on top
        if isinstance(x, Symbol):
            if x.arity:
                built[-x.arity:] = [App(x, tuple(built[: -x.arity - 1 : -1]))]
            else:
                built.append(App(x))
        elif isinstance(x, int):
            built.extend([built[-1]] * (x - 1))
        else:
            built.append(x)
    return built[0]


@dataclass(frozen=True)
class Rule:
    """A rewrite rule lhs -> rhs: a plain pair, checked by `Trs`."""

    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{format_term(self.lhs)} -> {format_term(self.rhs)}"


@dataclass(frozen=True)
class Trs:
    """A rewrite system: an ordered tuple of rules, checked by one walk each
    (the lhs is a defined symbol applied to arguments, every rhs variable
    occurs in the lhs), and the derived `signature`: the rules' symbols and
    `extra` (a defined symbol may have no rules), sorted by name.  Kinds are
    taken as given.  Raises ValueError when one name stands for two symbols.

    `by_head` maps each head symbol to its `(index, rule)` pairs in file order.
    `memo` holds facts other modules compute once per system because they do
    not depend on the input (the cons-free verdict, the right-hand-side data
    pool, ...).  Both live and die with this object and take no part in
    equality, so two equal systems never share a memo.
    """

    rules: tuple[Rule, ...]
    extra: InitVar[tuple[Symbol, ...]] = ()
    signature: tuple[Symbol, ...] = field(init=False)
    by_head: dict[Symbol, tuple[tuple[int, Rule], ...]] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )
    memo: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self, extra: tuple[Symbol, ...]) -> None:
        seen: dict[str, Symbol] = {}
        by_head: dict[Symbol, list[tuple[int, Rule]]] = {}
        for i, rule in enumerate(self.rules):
            lhs = rule.lhs
            if isinstance(lhs, Var):
                raise ValueError(f"rule {i} has a variable left-hand side")
            if lhs.head.kind is not Kind.DEFINED:
                raise ValueError(f"rule {i} rewrites constructor {lhs.head.name}")
            sides: list[set[str]] = []  # variable names of lhs, of rhs
            for side in (lhs, rule.rhs):
                names: set[str] = set()
                todo = [side]
                while todo:
                    t = todo.pop()
                    if isinstance(t, Var):
                        names.add(t.name)
                    else:
                        head = t.head
                        if seen.setdefault(head.name, head) is not head:
                            raise ValueError(f"inconsistent uses of symbol {head.name}")
                        todo.extend(t.args)
                sides.append(names)
            loose = sides[1] - sides[0]
            if loose:
                raise ValueError(
                    f"rule {i} uses variables not bound on its left-hand side: "
                    f"{', '.join(sorted(loose))}"
                )
            by_head.setdefault(lhs.head, []).append((i, rule))
        for s in extra:
            if seen.setdefault(s.name, s) is not s:
                raise ValueError(f"inconsistent uses of symbol {s.name}")
        object.__setattr__(self, "signature", tuple(seen[n] for n in sorted(seen)))
        self.by_head.update({head: tuple(pairs) for head, pairs in by_head.items()})

    def symbol(self, name: str) -> Symbol:
        for s in self.signature:
            if s.name == name:
                return s
        raise KeyError(name)

    def defined(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self.signature if s.kind is Kind.DEFINED)

    def constructors(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self.signature if s.kind is Kind.CONSTRUCTOR)


class _RuleIndex(dict):
    """See `rule_index`: an entry is computed on its first lookup."""

    def __init__(self, trs: Trs):
        super().__init__()
        self.by_head = trs.by_head

    def __missing__(self, key: tuple[Symbol, tuple]) -> tuple[int, ...]:
        head, arg_heads = key
        hit = self[key] = tuple(
            i
            for i, rule in self.by_head.get(head, ())
            if all(
                isinstance(p, Var) or p.head is h for p, h in zip(rule.lhs.args, arg_heads)
            )
        )
        return hit


def rule_index(trs: Trs) -> dict[tuple[Symbol, tuple], tuple[int, ...]]:
    """The system's argument-head index (after Graf's substitution trees),
    kept in `trs.memo`.  A key is a head symbol and the head symbols of its
    arguments' roots (None for a variable); its value holds the indices, in
    file order, of the head's rules whose lhs argument roots fit: a pattern
    variable fits anything, a pattern term only that head.  Compiled systems
    carry hundreds of rules, most ruled out here by one lookup."""
    index = trs.memo.get("rule_index")
    if index is None:
        index = trs.memo["rule_index"] = _RuleIndex(trs)
    return index


def head_tests(lhs: App) -> tuple[tuple[tuple[int, Symbol], ...], list[Term]]:
    """The argument patterns of `lhs` as head tests along child paths.

    Registers start as the lhs's arguments.  A test (r, f) checks that
    register r holds a term headed by f and appends that term's arguments as
    new registers; tests come in register order.  Returns the tests and the
    lhs subterm each register stands for."""
    pats = list(lhs.args)
    tests = []
    for r, p in enumerate(pats):  # grows as tests add children
        if isinstance(p, App):
            tests.append((r, p.head))
            pats.extend(p.args)
    return tuple(tests), pats


def compile_rhs(t: Term, leaf: Callable[[Term], Optional[int]]) -> tuple[list, int]:
    """`t` compiled for building bottom-up, by one iterative post-order walk.

    `leaf(u)` gives a subterm's slot (>= 0), or None for a node to build from
    its arguments; it is called once per distinct object, in pre-order, so a
    subterm shared by identity is compiled once.  Returns the nodes in
    post-order, a head and its arguments' slots each, and the slot of `t`;
    node k is slot ~k."""
    nodes: list[tuple[Symbol, tuple[int, ...]]] = []
    slot: dict[int, int] = {}  # id(subterm) -> its slot
    todo: list[tuple[Term, bool]] = [(t, False)]  # (term, arguments compiled)
    while todo:
        u, ready = todo.pop()
        if ready:
            nodes.append((u.head, tuple([slot[id(a)] for a in u.args])))
            slot[id(u)] = ~(len(nodes) - 1)
        elif id(u) not in slot:
            s = leaf(u)
            if s is None:
                todo.append((u, True))
                todo.extend((a, False) for a in reversed(u.args))
            else:
                slot[id(u)] = s
    return nodes, slot[id(t)]


def canonical_rule(rule: Rule) -> Rule:
    """Rename rule variables to v1, v2, ... in order of first occurrence.

    Two rules are equal up to variable renaming iff their canonical forms are
    structurally equal.
    """
    order: Substitution = {}
    for t in subterms(rule.lhs) + subterms(rule.rhs):
        if isinstance(t, Var) and t.name not in order:
            order[t.name] = Var(f"v{len(order) + 1}")
    return Rule(apply(order, rule.lhs), apply(order, rule.rhs))


def same_rules(a: Trs, b: Trs) -> bool:
    """Rule-set equality up to variable renaming and rule order."""
    ca = sorted(str(canonical_rule(r)) for r in a.rules)
    cb = sorted(str(canonical_rule(r)) for r in b.rules)
    return ca == cb
