"""Static analyses: cons-freeness, semi-linearity, constrainedness, and the
bounded data universe used by the tabulation engine.

A rule is cons-free when (1) its left-hand side is linear, (2) the lhs is a
defined symbol applied to constructor terms, and (3) every constructor-rooted
subterm of the rhs is either ground data or a strict subterm of the lhs.
Cons-free reductions can therefore never build new data: every data value in
reach is a subterm of the start term or of some right-hand side.  That finite
set (`BSet`) is what makes the tabulation procedure polynomial.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .terms import (
    App,
    Kind,
    Rule,
    Symbol,
    Term,
    Trs,
    Var,
    format_term,
    is_constructor_term,
    is_data,
    subterms,
)


class NotConsFreeError(ValueError):
    pass


class NotConstrainedError(ValueError):
    pass


@dataclass(frozen=True)
class Violation:
    rule_index: int
    condition: int  # 1 = lhs linearity, 2 = lhs shape, 3 = rhs data creation
    subterm: Term

    def describe(self, trs: Trs) -> str:
        rule = trs.rules[self.rule_index]
        what = {
            1: "left-hand side is not linear at",
            2: "left-hand side argument is not a constructor term at",
            3: "right-hand side builds new data at",
        }[self.condition]
        return f"rule {self.rule_index} ({rule}): {what} {format_term(self.subterm)}"


def check_cons_free(trs: Trs) -> list[Violation]:
    """All cons-freeness violations, in rule order; empty means cons-free.

    Computed once per system; every call returns a fresh list.
    """
    found = trs.memo.get("violations")
    if found is None:
        found = trs.memo["violations"] = tuple(_violations(trs))
    return list(found)


def _violations(trs: Trs) -> list[Violation]:
    out: list[Violation] = []
    for i, rule in enumerate(trs.rules):
        lhs = rule.lhs
        counts = Counter(t.name for t in subterms(lhs) if isinstance(t, Var))
        for name, n in sorted(counts.items()):
            if n > 1:
                out.append(Violation(i, 1, Var(name)))
        for arg in lhs.args:
            if not is_constructor_term(arg):
                out.append(Violation(i, 2, arg))
        lhs_strict = subterms(lhs)[1:]
        for t in subterms(rule.rhs):
            if isinstance(t, App) and t.head.kind is Kind.CONSTRUCTOR:
                if is_data(t) or t in lhs_strict:
                    continue
                out.append(Violation(i, 3, t))
    return out


def require_cons_free(trs: Trs) -> None:
    violations = check_cons_free(trs)
    if violations:
        raise NotConsFreeError(
            "not cons-free: " + "; ".join(v.describe(trs) for v in violations)
        )


def dv(lhs: App) -> set[str]:
    """Direct argument positions of the lhs that are bare variables."""
    return {a.name for a in lhs.args if isinstance(a, Var)}


def check_semi_linear(rule: Rule) -> bool:
    """Each direct lhs variable occurs at most once in the rhs."""
    uses = Counter(t.name for t in subterms(rule.rhs) if isinstance(t, Var))
    return all(uses[x] <= 1 for x in dv(rule.lhs))


@dataclass(frozen=True)
class ConstrainedWitness:
    a_set: frozenset[Symbol]


def _forced_symbols(trs: Trs) -> set[Symbol]:
    """Roots forced into the witness: every rhs subterm strictly containing a
    direct lhs variable must be headed by a witness symbol."""
    forced: set[Symbol] = set()
    for rule in trs.rules:
        direct = dv(rule.lhs)
        holds: dict[int, bool] = {}  # id of a subterm: is or holds a direct variable
        for t in reversed(subterms(rule.rhs)):  # each subterm after its arguments
            if isinstance(t, Var):
                holds[id(t)] = t.name in direct
            elif any(holds[id(a)] for a in t.args):
                forced.add(t.head)
                holds[id(t)] = True
            else:
                holds[id(t)] = False
    return forced


def check_constrained(trs: Trs) -> ConstrainedWitness:
    """Find a witness set A of defined symbols such that every rule headed by
    a symbol in A is semi-linear and every rhs subterm strictly containing a
    direct lhs variable is A-rooted.

    The minimal candidate (the forced roots) is also the only one that can
    work: any valid witness must contain every forced root, and enlarging the
    set only adds semi-linearity obligations.  So checking the minimal set is
    a complete decision procedure.  Raises NotConstrainedError naming the
    first rule that is forced into A but is not semi-linear.
    """
    require_cons_free(trs)
    forced = _forced_symbols(trs)
    for sym in forced:
        # cons-freeness already excludes constructors above lhs variables
        assert sym.kind is Kind.DEFINED, f"constructor {sym.name} forced into A"
    for i, rule in enumerate(trs.rules):
        if rule.lhs.head in forced and not check_semi_linear(rule):
            raise NotConstrainedError(
                f"rule {i} ({rule}) is headed by {rule.lhs.head.name}, which the "
                "right-hand sides force into the witness set, but the rule is "
                "not semi-linear"
            )
    return ConstrainedWitness(frozenset(forced))


def verify_constrained_witness(trs: Trs, witness: ConstrainedWitness) -> bool:
    """Check the two witness conditions directly (independent of how the
    witness was found): every rule headed by a witness symbol is semi-linear,
    and every rhs subterm strictly containing a direct lhs variable has its
    root in the witness."""
    for rule in trs.rules:
        if rule.lhs.head in witness.a_set and not check_semi_linear(rule):
            return False
        direct = dv(rule.lhs)
        for t in subterms(rule.rhs):
            if isinstance(t, Var):
                continue
            if t.head in witness.a_set:
                continue
            for s in subterms(t)[1:]:
                if isinstance(s, Var) and s.name in direct:
                    return False
    return True


@dataclass(frozen=True)
class BSet:
    """The finite data universe for one run: all data terms occurring in the
    start term or in a right-hand side, closed under subterms, in a fixed
    insertion order (start term first, then rules in file order)."""

    items: tuple[Term, ...]
    index: dict[Term, int] = field(compare=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.index.update({t: i for i, t in enumerate(self.items)})

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, t: Term) -> bool:
        return t in self.index


def compute_b(trs: Trs, start: Term) -> BSet:
    """The data universe of a run from `start`: the start term's data, then
    the system's right-hand-side data pool less what the start term holds."""
    items: list[Term] = []
    seen: set[Term] = set()
    _add_data_subterms(start, items, seen)
    items.extend(t for t in rhs_data(trs) if t not in seen)
    return BSet(tuple(items))


def rhs_data(trs: Trs) -> tuple[Term, ...]:
    """Data subterms of the right-hand sides in file order, once per system."""
    pool = trs.memo.get("rhs_data")
    if pool is None:
        items: list[Term] = []
        seen: set[Term] = set()
        for rule in trs.rules:
            _add_data_subterms(rule.rhs, items, seen)
        pool = trs.memo["rhs_data"] = tuple(items)
    return pool


def _add_data_subterms(t: Term, items: list[Term], seen: set[Term]) -> None:
    for s in subterms(t):
        if s not in seen and is_data(s):
            seen.add(s)
            items.append(s)


def is_b_safe(b: BSet, t: Term) -> bool:
    """t is in the universe, or a defined symbol applied to safe arguments."""
    todo = [t]
    while todo:
        u = todo.pop()
        if u in b:
            continue
        if not isinstance(u, App) or u.head.kind is not Kind.DEFINED:
            return False
        todo.extend(u.args)
    return True


def b_safe_terms(trs: Trs, max_size: int) -> Iterator[Term]:
    """Enumerate every ground term of at most max_size nodes that is safe for
    its own data universe: data everywhere below, defined symbols above.

    Deterministic order: by size, then signature order at each node.
    """
    by_sz: list[list[Term]] = [[] for _ in range(max_size + 1)]
    for sz in range(1, max_size + 1):
        for sym in trs.constructors() + trs.defined():
            if sym.arity == 0:
                if sz == 1:
                    by_sz[1].append(App(sym))
                continue
            budget = sz - 1
            if budget < sym.arity:
                continue
            for split in _compositions(budget, sym.arity):
                for args in itertools.product(*(by_sz[p] for p in split)):
                    if sym.kind is Kind.CONSTRUCTOR and not all(
                        is_data(a) for a in args
                    ):
                        continue  # no defined symbols below a constructor
                    by_sz[sz].append(App(sym, args))
        yield from by_sz[sz]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Each way to write `total` as `parts` positive summands, by its cut
    points, in lexicographic order."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))
