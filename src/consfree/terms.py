"""First-order terms, rules, and rewrite systems.

Terms are immutable trees: a variable, or a symbol applied to exactly
arity-many arguments.  The signature splits into defined symbols (those that
head rewrite rules) and constructors (everything else); ground constructor
terms are the data values everything else computes over.

Positions are tuples of 1-based child indices; the empty tuple is the root.
All functions here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence


class Kind(Enum):
    DEFINED = "defined"
    CONSTRUCTOR = "constructor"


@dataclass(frozen=True)
class Symbol:
    name: str
    arity: int
    kind: Kind

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App:
    head: Symbol
    args: tuple = ()
    # deep structural hashing dominates oracle/tabulation profiles; cache it
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if len(self.args) != self.head.arity:
            raise ValueError(
                f"{self.head.name} expects {self.head.arity} arguments, "
                f"got {len(self.args)}"
            )
        object.__setattr__(self, "_hash", hash((self.head, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return format_term(self)


Term = Var | App
Position = tuple[int, ...]
Substitution = dict[str, Term]


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.head.name
    return f"{t.head.name}({', '.join(format_term(a) for a in t.args)})"


def size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(size(a) for a in t.args)


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
    out = [t]
    if isinstance(t, App):
        for a in t.args:
            out.extend(subterms(a))
    return out


def positions(t: Term) -> list[Position]:
    """All positions of t in pre-order, root (empty tuple) first."""
    out: list[Position] = [()]
    if isinstance(t, App):
        for i, a in enumerate(t.args, start=1):
            out.extend((i, *p) for p in positions(a))
    return out


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        if isinstance(t, Var) or not 1 <= i <= len(t.args):
            raise IndexError(f"no subterm at position {'.'.join(map(str, pos))}")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, pos: Position, repl: Term) -> Term:
    """Return t with the subterm at pos replaced by repl."""
    if not pos:
        return repl
    if isinstance(t, Var) or not 1 <= pos[0] <= len(t.args):
        raise IndexError(f"no subterm at position {'.'.join(map(str, pos))}")
    i = pos[0] - 1
    args = list(t.args)
    args[i] = replace_at(args[i], pos[1:], repl)
    return App(t.head, tuple(args))


def is_data(t: Term) -> bool:
    """True iff t is a ground constructor term (a data value)."""
    if isinstance(t, Var):
        return False
    return t.head.kind is Kind.CONSTRUCTOR and all(is_data(a) for a in t.args)


def is_constructor_term(t: Term) -> bool:
    """True iff t contains no defined symbols (variables allowed)."""
    if isinstance(t, Var):
        return True
    return t.head.kind is Kind.CONSTRUCTOR and all(
        is_constructor_term(a) for a in t.args
    )


def match(pattern: Term, subject: Term) -> Optional[Substitution]:
    """Match a pattern against a ground subject.

    Returns the unique substitution g with pattern*g == subject, or None.
    Repeated pattern variables must bind consistently.
    """
    subst: Substitution = {}

    def go(p: Term, s: Term) -> bool:
        if isinstance(p, Var):
            bound = subst.get(p.name)
            if bound is None:
                subst[p.name] = s
                return True
            return bound == s
        # identity first: Symbol's dataclass __eq__ is slow on every node
        if isinstance(s, Var) or (p.head is not s.head and p.head != s.head):
            return False
        return all(go(pa, sa) for pa, sa in zip(p.args, s.args))

    return subst if go(pattern, subject) else None


def apply(subst: Substitution, t: Term) -> Term:
    if isinstance(t, Var):
        return subst.get(t.name, t)
    return App(t.head, tuple(apply(subst, a) for a in t.args))


@dataclass(frozen=True)
class Rule:
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise ValueError("rule left-hand side must not be a variable")
        extra = variables(self.rhs) - variables(self.lhs)
        if extra:
            raise ValueError(
                f"right-hand side uses variables not bound on the left: "
                f"{', '.join(sorted(extra))}"
            )

    def __str__(self) -> str:
        return f"{format_term(self.lhs)} -> {format_term(self.rhs)}"


@dataclass(frozen=True)
class Trs:
    """A rewrite system: a signature plus an ordered list of rules.

    Symbol kinds are taken as given: every lhs root must be Defined, and a
    defined symbol may have no rules.  `make_trs` builds the signature from
    the rules.

    `by_head` maps each head name to its `(index, rule)` pairs in file order.
    `memo` holds facts other modules compute once per system because they do
    not depend on the input (the cons-free verdict, the right-hand-side data
    pool, ...).  Both live and die with this object and take no part in
    equality, so two equal systems never share a memo.
    """

    signature: tuple[Symbol, ...]
    rules: tuple[Rule, ...]
    by_head: dict[str, tuple[tuple[int, Rule], ...]] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )
    memo: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        names = [s.name for s in self.signature]
        if len(names) != len(set(names)):
            raise ValueError("duplicate symbol names in signature")
        by_name = {s.name: s for s in self.signature}
        by_head: dict[str, list[tuple[int, Rule]]] = {}
        for i, rule in enumerate(self.rules):
            todo: list[Term] = [rule.rhs, rule.lhs]  # popped in pre-order, lhs first
            while todo:
                t = todo.pop()
                if isinstance(t, App):
                    known = by_name.get(t.head.name)
                    # identity first: Symbol's dataclass __eq__ is slow on every node
                    if known is not t.head and known != t.head:
                        raise ValueError(
                            f"rule {i} uses {t.head} missing from the signature"
                        )
                    todo.extend(reversed(t.args))
            assert isinstance(rule.lhs, App)
            if rule.lhs.head.kind is not Kind.DEFINED:
                raise ValueError(
                    f"rule {i} rewrites constructor {rule.lhs.head.name}"
                )
            by_head.setdefault(rule.lhs.head.name, []).append((i, rule))
        self.by_head.update({name: tuple(pairs) for name, pairs in by_head.items()})

    def symbol(self, name: str) -> Symbol:
        for s in self.signature:
            if s.name == name:
                return s
        raise KeyError(name)

    def defined(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self.signature if s.kind is Kind.DEFINED)

    def constructors(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self.signature if s.kind is Kind.CONSTRUCTOR)

    def rules_for(self, sym: Symbol) -> list[tuple[int, Rule]]:
        return [
            (i, r)
            for i, r in self.by_head.get(sym.name, ())
            if r.lhs.head is sym or r.lhs.head == sym
        ]


def make_trs(rules: Sequence[Rule], extra: tuple[Symbol, ...] = ()) -> Trs:
    """Build a Trs whose signature holds the symbols of `rules`, then `extra`.

    Kinds are taken as given and the rule objects are reused.  `extra`
    declares symbols beyond those occurring in the rules (a defined symbol
    may have no rules).  Raises ValueError when one name is used with two
    different symbols.
    """
    seen: dict[str, Symbol] = {}

    def note(sym: Symbol) -> None:
        prev = seen.setdefault(sym.name, sym)
        # identity first: Symbol's dataclass __eq__ is slow on every node
        if prev is not sym and prev != sym:
            raise ValueError(f"inconsistent uses of symbol {sym.name}")

    def walk(t: Term) -> None:
        if isinstance(t, App):
            note(t.head)
            for a in t.args:
                walk(a)

    for rule in rules:
        walk(rule.lhs)
        walk(rule.rhs)
    for s in extra:
        note(s)
    return Trs(tuple(seen[name] for name in sorted(seen)), tuple(rules))


def canonical_rule(rule: Rule) -> Rule:
    """Rename rule variables to v1, v2, ... in order of first occurrence.

    Two rules are equal up to variable renaming iff their canonical forms are
    structurally equal.
    """
    order: dict[str, str] = {}
    for t in subterms(rule.lhs) + subterms(rule.rhs):
        if isinstance(t, Var) and t.name not in order:
            order[t.name] = f"v{len(order) + 1}"

    def rename(t: Term) -> Term:
        if isinstance(t, Var):
            return Var(order[t.name])
        return App(t.head, tuple(rename(a) for a in t.args))

    return Rule(rename(rule.lhs), rename(rule.rhs))


def same_rules(a: Trs, b: Trs) -> bool:
    """Rule-set equality up to variable renaming and rule order."""
    ca = sorted(str(canonical_rule(r)) for r in a.rules)
    cb = sorted(str(canonical_rule(r)) for r in b.rules)
    return ca == cb
