"""Static analyses: cons-freeness, semi-linearity, constrainedness, and the
bounded data universe used by the tabulation engine.  The checks and the
data pool read one record per system, `Trs.facts`: one walk per rule side,
made on the first read, where condition 2 reads `is_constructor_term` of each
lhs argument.  `check_semi_linear` and `verify_constrained_witness` read the
rules themselves.

A rule is cons-free when (1) its left-hand side is linear, (2) the lhs is a
defined symbol applied to constructor terms, and (3) every constructor-rooted
subterm of the rhs is either ground data or a strict subterm of the lhs.
Cons-free reductions can therefore never build new data: every data value in
reach is a subterm of the start term or of some right-hand side.  That finite
set B, which `compute_b` returns as a dict from each data term to its index,
is what makes the tabulation procedure polynomial.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .terms import (
    CONSTRUCTOR,
    DEFINED,
    App,
    Rule,
    Symbol,
    Term,
    Trs,
    Var,
    format_term,
    is_data,
    subterms,
    variables,
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
    Found once per system; every call returns a fresh list."""
    return [Violation(*v) for v in trs.facts.violations]


def require_cons_free(trs: Trs) -> None:
    violations = check_cons_free(trs)
    if violations:
        raise NotConsFreeError("; ".join(v.describe(trs) for v in violations))


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
    forced = trs.facts.forced
    for sym in forced:
        # cons-freeness already excludes constructors above lhs variables
        assert sym.kind is DEFINED, f"constructor {sym.name} forced into A"
    for i in trs.facts.duplicating:
        rule = trs.rules[i]
        if rule.lhs.head in forced:
            raise NotConstrainedError(
                f"rule {i} ({rule}) is headed by {rule.lhs.head.name}, which the "
                "right-hand sides force into the witness set, but the rule is "
                "not semi-linear"
            )
    return ConstrainedWitness(forced)


def verify_constrained_witness(trs: Trs, witness: ConstrainedWitness) -> bool:
    """Check the two witness conditions directly (independent of how the
    witness was found): every rule headed by a witness symbol is semi-linear,
    and every rhs subterm strictly containing a direct lhs variable has its
    root in the witness."""
    a_set = witness.a_set
    for rule in trs.rules:
        if rule.lhs.head in a_set and not check_semi_linear(rule):
            return False
        direct = dv(rule.lhs)
        for t in subterms(rule.rhs):
            if isinstance(t, App) and t.head not in a_set and direct & variables(t):
                return False
    return True


def compute_b(trs: Trs, start: Term) -> dict[Term, int]:
    """The data universe of a run from `start`, each data term to its index:
    the start term's data, then the system's right-hand-side data pool less
    what the start term holds."""
    b = dict.fromkeys(s for s in subterms(start) if s.is_data)
    b.update(dict.fromkeys(trs.facts.data))  # a key already in keeps its place
    return {t: i for i, t in enumerate(b)}


def is_b_safe(b: dict[Term, int], t: Term) -> bool:
    """t is in the universe, or a defined symbol applied to safe arguments."""
    todo = [t]
    while todo:
        u = todo.pop()
        if u in b:
            continue
        if not isinstance(u, App) or u.head.kind is not DEFINED:
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
                    if sym.kind is CONSTRUCTOR and not all(
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
