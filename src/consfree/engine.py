"""Brute-force rewriting: single steps, reachability search, acceptance.

This is the ground-truth oracle the rest of the toolkit is tested against.
It enumerates reduction graphs exhaustively (breadth-first, with a visited
set), so it is exponential in general and must be budgeted; results say
honestly whether the search completed.

Two strategies: `full` rewrites anywhere; `cbv` (call-by-value) rewrites only
redexes whose arguments are all data, so a nullary defined symbol is always
an enabled redex.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

from .fmt import encode_input, require_decision_interface
from .terms import (
    App,
    Kind,
    Position,
    Term,
    Trs,
    apply,
    is_data,
    match,
    positions,
    replace_at,
    size,
    subterm_at,
)

Strategy = Literal["full", "cbv"]


@dataclass(frozen=True)
class ReductionStep:
    position: Position
    rule_index: int
    before: Term
    after: Term


@dataclass(frozen=True)
class Budget:
    max_terms: int = 10_000
    max_term_size: int = 1_000

    def __post_init__(self) -> None:
        if self.max_terms <= 0 or self.max_term_size <= 0:
            raise ValueError("budgets must be positive")


@dataclass(frozen=True)
class ReachabilityResult:
    results: frozenset[Term]
    complete: bool
    explored: int
    truncated_by: Literal["none", "step_budget", "size_budget"]

    def verdict(self, target: Term) -> Literal["yes", "no", "unknown"]:
        """yes if target was reached, no if the search is complete, unknown
        otherwise."""
        if target in self.results:
            return "yes"
        return "no" if self.complete else "unknown"


def _steps(trs: Trs, t: Term, strategy: Strategy) -> Iterator[ReductionStep]:
    """One-step successors in deterministic order: positions pre-order
    (leftmost-outermost first), rules in file order at each position."""
    for pos in positions(t):
        sub = subterm_at(t, pos)
        if not isinstance(sub, App) or sub.head.kind is not Kind.DEFINED:
            continue
        if strategy == "cbv" and not all(is_data(a) for a in sub.args):
            continue
        for i, rule in trs.by_head.get(sub.head.name, ()):
            subst = match(rule.lhs, sub)
            if subst is None:
                continue
            after = replace_at(t, pos, apply(subst, rule.rhs))
            yield ReductionStep(pos, i, t, after)


def step_full(trs: Trs, t: Term) -> list[ReductionStep]:
    return list(_steps(trs, t, "full"))


def step_cbv(trs: Trs, t: Term) -> list[ReductionStep]:
    return list(_steps(trs, t, "cbv"))


def reachable_data(
    trs: Trs,
    start: Term,
    strategy: Strategy = "full",
    budget: Budget = Budget(),
) -> ReachabilityResult:
    """All data terms reachable from `start` under the strategy.

    complete=True means the whole reduction graph fit inside the budgets, so
    the result set is exact.  Oversized successors are not explored; that
    only drops completeness, never fabricates results.
    """
    seen = {start}
    queue = deque([start])
    results: set[Term] = set()
    truncated: Literal["none", "step_budget", "size_budget"] = "none"
    explored = 0
    while queue:
        term = queue.popleft()
        explored += 1
        if is_data(term):
            results.add(term)
            continue
        for step in _steps(trs, term, strategy):
            nxt = step.after
            if nxt in seen:
                continue
            if size(nxt) > budget.max_term_size:
                truncated = "size_budget" if truncated == "none" else truncated
                continue
            if len(seen) >= budget.max_terms:
                truncated = "step_budget" if truncated == "none" else truncated
                continue
            seen.add(nxt)
            queue.append(nxt)
    return ReachabilityResult(
        results=frozenset(results),
        complete=truncated == "none",
        explored=explored,
        truncated_by=truncated,
    )


class _CycleHit(Exception):
    pass


def data_results(
    trs: Trs,
    starts: Iterable[Term],
    strategy: Strategy = "full",
) -> dict[Term, frozenset[Term]]:
    """reachable_data(...).results for many starts, sharing one memo.

    Equal subterms across starts are evaluated once, so a whole family of
    start terms costs one pass over their combined reduction closure instead
    of one search each.  Every reduction graph involved must be finite (the
    searches run unbudgeted); a term whose graph is cyclic falls back to the
    plain breadth-first search, which handles cycles.
    """
    memo: dict[Term, frozenset[Term]] = {}
    interned: dict[frozenset[Term], frozenset[Term]] = {}
    fallback = Budget(max_terms=10_000_000, max_term_size=100_000)

    def go(t: Term, gray: set[Term]) -> frozenset[Term]:
        hit = memo.get(t)
        if hit is not None:
            return hit
        if is_data(t):
            out = frozenset((t,))
        else:
            if t in gray:
                raise _CycleHit
            gray.add(t)
            try:
                acc: set[Term] = set()
                for step in _steps(trs, t, strategy):
                    acc |= go(step.after, gray)
                out = frozenset(acc)
            finally:
                gray.discard(t)
        out = interned.setdefault(out, out)
        memo[t] = out
        return out

    results: dict[Term, frozenset[Term]] = {}
    for s in starts:
        try:
            results[s] = go(s, set())
        except _CycleHit:
            hit = reachable_data(trs, s, strategy, fallback)
            assert hit.complete, "cyclic reduction graph exceeded the fallback budget"
            results[s] = hit.results
    return results


def accepts(
    trs: Trs,
    bits: str,
    strategy: Strategy = "cbv",
    budget: Budget = Budget(),
) -> Literal["yes", "no", "unknown"]:
    """Does start(bit list) reach the data term true under the strategy?"""
    require_decision_interface(trs)
    reach = reachable_data(trs, encode_input(bits), strategy, budget)
    return reach.verdict(App(trs.symbol("true")))


@dataclass(frozen=True)
class Trace:
    """A reduction sequence stored as (position, rule index) pairs; terms are
    re-materialized on demand rather than copied per step."""

    start: Term
    steps: tuple[tuple[Position, int], ...]

    def terms(self, trs: Trs) -> list[Term]:
        out = [self.start]
        for pos, rule_index in self.steps:
            t = out[-1]
            rule = trs.rules[rule_index]
            subst = match(rule.lhs, subterm_at(t, pos))
            if subst is None:
                raise ValueError("trace does not replay against this system")
            out.append(replace_at(t, pos, apply(subst, rule.rhs)))
        return out

    def render(self, trs: Trs) -> str:
        """One line per step: `<position> <rule-index> <term-after>`; the
        root position prints as `e`."""
        lines = []
        terms = self.terms(trs)
        for (pos, rule_index), after in zip(self.steps, terms[1:]):
            spot = ".".join(map(str, pos)) if pos else "e"
            lines.append(f"{spot} {rule_index} {after}")
        return "\n".join(lines)


def leftmost_trace(
    trs: Trs, start: Term, strategy: Strategy = "full", max_steps: int = 100
) -> Trace:
    """Deterministic reduction: repeatedly take the first enabled step."""
    steps: list[tuple[Position, int]] = []
    term = start
    for _ in range(max_steps):
        step = next(iter(_steps(trs, term, strategy)), None)
        if step is None:
            break
        steps.append((step.position, step.rule_index))
        term = step.after
    return Trace(start, tuple(steps))
