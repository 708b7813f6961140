"""Brute-force rewriting: single steps, reachability search, acceptance.

This is the ground-truth oracle the rest of the toolkit is tested against.
It enumerates reduction graphs exhaustively, so it is exponential in general:
`reachable_data` searches breadth-first, with a visited set, and is budgeted,
its result saying honestly whether the search completed; `data_results`
searches depth-first, unbudgeted, sharing one memo across many starts.

A step never calls `match` or `apply`.  Each rule is compiled once per
system into head tests, equality tests for a repeated lhs variable, and a
post-order builder of the rhs; the rules tried at a redex are those that
`rule_index` fits to its argument heads.

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
    Rule,
    Term,
    Trs,
    Var,
    apply,
    head_tests,
    is_data,
    match,
    replace_at,
    rule_index,
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


def _plan(rule: Rule) -> tuple:
    """A rule compiled for the oracle: (tests, eqs, consts, nodes, top).

    `tests` are the lhs's `head_tests`; `eqs` pairs the registers that hold
    one repeated lhs variable, which must hold equal terms.  The rest builds
    the rhs bottom-up over slots: the registers, then `consts` (the rhs's
    data subterms, shared), then one slot per `nodes` entry, a head and its
    arguments' slots in post-order.  `top` is the slot of the rhs."""
    tests, pats = head_tests(rule.lhs)
    reg: dict[str, int] = {}  # variable name -> its first register
    eqs = []
    for r, p in enumerate(pats):
        if isinstance(p, Var) and reg.setdefault(p.name, r) != r:
            eqs.append((reg[p.name], r))
    consts: list[Term] = []
    nodes: list[tuple] = []
    slot: dict[int, int] = {}  # id(rhs subterm) -> its slot, ~k for node k
    todo: list[tuple[Term, bool]] = [(rule.rhs, False)]  # (term, arguments built)
    while todo:
        u, ready = todo.pop()
        if ready:
            nodes.append((u.head, [slot[id(a)] for a in u.args]))
            slot[id(u)] = ~(len(nodes) - 1)
        elif id(u) in slot:
            continue
        elif isinstance(u, Var):
            slot[id(u)] = reg[u.name]
        elif u.is_data:
            slot[id(u)] = len(pats) + len(consts)
            consts.append(u)
        else:
            todo.append((u, True))
            todo.extend((a, False) for a in reversed(u.args))
    base = len(pats) + len(consts)

    def final(s: int) -> int:
        return s if s >= 0 else base + ~s

    built = tuple((f, tuple(map(final, args))) for f, args in nodes)
    return tests, tuple(eqs), tuple(consts), built, final(slot[id(rule.rhs)])


def _plans(trs: Trs) -> tuple[tuple, ...]:
    """Every rule's oracle plan, by rule index, compiled once per system."""
    plans = trs.memo.get("oracle_plans")
    if plans is None:
        plans = trs.memo["oracle_plans"] = tuple(_plan(r) for r in trs.rules)
    return plans


def _rewrites(
    trs: Trs, t: Term, strategy: Strategy
) -> Iterator[tuple[Position, int, Term]]:
    """One-step successors as (position, rule index, result), in
    deterministic order: positions pre-order (leftmost-outermost first),
    rules in file order at each position.  One walk with an explicit stack;
    data subtrees hold no redex and are skipped.  A redex tries the rules
    that `rule_index` fits to its argument heads, each by its plan."""
    if not isinstance(t, App) or t.is_data:
        return
    cbv = strategy == "cbv"
    index, plans = rule_index(trs), _plans(trs)
    todo: list[tuple[Position, App]] = [((), t)]
    while todo:
        pos, sub = todo.pop()
        args = sub.args
        if sub.head.kind is Kind.DEFINED and not (
            cbv and not all(a.is_data for a in args)
        ):
            for i in index[(sub.head, tuple([a.head for a in args]))]:
                tests, eqs, consts, nodes, top = plans[i]
                regs = list(args)
                for r, f in tests:
                    u = regs[r]
                    if u.head is not f:
                        break
                    regs += u.args
                else:
                    if eqs and not all(regs[a] == regs[b] for a, b in eqs):
                        continue
                    regs += consts
                    for f, slots in nodes:
                        regs.append(App(f, tuple([regs[s] for s in slots])))
                    yield pos, i, replace_at(t, pos, regs[top])
        for i in range(len(args), 0, -1):
            a = args[i - 1]
            if not a.is_data and isinstance(a, App):
                todo.append(((*pos, i), a))


def _steps(trs: Trs, t: Term, strategy: Strategy) -> Iterator[ReductionStep]:
    """`_rewrites` as ReductionSteps from t."""
    for pos, i, after in _rewrites(trs, t, strategy):
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
        for _, _, nxt in _rewrites(trs, term, strategy):
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


def data_results(
    trs: Trs,
    starts: Iterable[Term],
    strategy: Strategy = "full",
) -> dict[Term, frozenset[Term]]:
    """reachable_data(...).results for many starts, sharing one memo.

    Equal terms across starts are evaluated once, so a whole family of start
    terms costs one pass over their combined reduction closure instead of one
    search each.  Every reduction graph involved must be finite (the search
    runs unbudgeted).

    One iterative depth-first search finds the strongly connected components
    of the reduction graph (Tarjan, 1972).  A term's result is the union of
    its successors' results, so every member of a component gets the union
    of the component's exits: the results of the edges that leave it, or the
    data terms they reach.
    """
    memo: dict[Term, frozenset[Term]] = {}  # terms whose component is closed
    interned: dict[frozenset[Term], frozenset[Term]] = {}
    index: dict[Term, int] = {}  # open terms: their place on `stack`
    stack: list[Term] = []

    def close(t: Term, out: frozenset[Term]) -> frozenset[Term]:
        out = memo[t] = interned.setdefault(out, out)
        return out

    def open_(t: Term) -> _Open:
        index[t] = len(stack)
        stack.append(t)
        return _Open(_rewrites(trs, t, strategy), index[t])

    results: dict[Term, frozenset[Term]] = {}
    for s in starts:
        if s.is_data:
            close(s, frozenset((s,)))
        frames = [] if s in memo else [open_(s)]
        while frames:
            top = frames[-1]
            for _, _, u in top.rewrites:
                hit = memo.get(u)
                if hit is None and u.is_data:
                    hit = close(u, frozenset((u,)))
                if hit is not None:
                    top.exits |= hit
                elif u in index:
                    top.low = min(top.low, index[u])
                else:
                    frames.append(open_(u))
                    break
            else:
                frames.pop()
                if top.low == top.place:  # top roots a component
                    out = frozenset(top.exits)
                    for u in stack[top.low:]:
                        del index[u]
                        out = close(u, out)
                    del stack[top.low:]
                    if frames:
                        frames[-1].exits |= out
                else:  # the parent is in top's component: hand it top's exits
                    frames[-1].low = min(frames[-1].low, top.low)
                    frames[-1].exits |= top.exits
        results[s] = memo[s]
    return results


class _Open:
    """A term on data_results' search path: its successors still to visit,
    its place on the stack of open terms, the least place it reached, and
    the results of the exits found so far in its part of the component."""

    __slots__ = ("rewrites", "place", "low", "exits")

    def __init__(self, rewrites: Iterator, place: int):
        self.rewrites = rewrites
        self.place = self.low = place
        self.exits: set[Term] = set()


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
