"""Brute-force rewriting: single steps, reachability search, acceptance.

This is the ground-truth oracle the rest of the toolkit is tested against.
It enumerates reduction graphs exhaustively, so it is exponential in general.
There is one search, `Oracle`: depth-first, with one memo for any number of
starts, and budgeted or not.  `reachable_data` is one budgeted start, its
result saying honestly whether the search completed; `data_results` is many
unbudgeted starts.

A step never calls `match` or `apply`.  Each rule is compiled once per
system into head tests, equality tests for a repeated lhs variable, and a
post-order builder of the rhs (`compile_rhs`, shared with the table); the
rules tried at a redex are those that `rule_index` fits to its argument heads.

Two strategies: `full` rewrites anywhere; `cbv` (call-by-value) rewrites only
redexes whose arguments are all data, so a nullary defined symbol is always
an enabled redex.
"""

from __future__ import annotations

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
    compile_rhs,
    head_tests,
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

    def leaf(u: Term) -> int | None:
        if isinstance(u, Var):
            return reg[u.name]
        if u.is_data:
            consts.append(u)
            return len(pats) + len(consts) - 1
        return None  # a node to build

    nodes, top = compile_rhs(rule.rhs, leaf)
    base = len(pats) + len(consts)

    def final(s: int) -> int:
        return s if s >= 0 else base + ~s

    built = tuple((f, tuple(map(final, args))) for f, args in nodes)
    return tests, tuple(eqs), tuple(consts), built, final(top)


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


class Oracle:
    """One system's reduction graph under one strategy, searched from any
    number of starts with one memo of closed terms.  An iterative depth-first
    search finds its strongly connected components (Tarjan, 1972); every
    member of a component gets the union of the component's exits: the
    results of the edges that leave it, or the data terms they reach.

    With a budget, each start may add `max_terms` terms, itself and data
    terms included, and enters no successor larger than `max_term_size`.
    A dropped successor cuts its term (`cut` says why), and one dropped for
    the step budget ends its term's successors.  A cut joins like the exits,
    so a cut term's results are a subset of the exact ones.  Without a
    budget every reduction graph must be finite."""

    def __init__(
        self, trs: Trs, strategy: Strategy = "full", budget: Budget | None = None
    ):
        self.trs, self.strategy, self.budget = trs, strategy, budget
        self.memo: dict[Term, frozenset[Term]] = {}
        self.cut: dict[Term, str] = {}

    def search(self, starts: Iterable[Term]) -> Iterator[tuple]:
        """(start, its data results, the number of terms it added) for each
        start, in order; a start is complete unless it is in `cut`."""
        budget, memo, cut = self.budget, self.memo, self.cut
        interned: dict[frozenset[Term], frozenset[Term]] = {}
        index: dict[Term, int] = {}  # open terms: their place on `stack`
        stack: list[Term] = []

        def open_(t: Term) -> _Open:
            index[t] = len(stack)
            stack.append(t)
            return _Open(_rewrites(self.trs, t, self.strategy), index[t])

        for s in starts:
            added = 0 if s in memo else 1
            if added and s.is_data:
                memo[s] = frozenset((s,))
            frames = [] if s in memo else [open_(s)]
            while frames:
                top = frames[-1]
                for _, _, u in top.rewrites:
                    hit = memo.get(u)
                    if hit is not None:
                        top.exits |= hit
                        if cut and u in cut:
                            top.cut = top.cut or cut[u]
                    elif u in index:
                        top.low = min(top.low, index[u])
                    elif budget and size(u) > budget.max_term_size:
                        top.cut = top.cut or "size_budget"
                    elif budget and added >= budget.max_terms:
                        top.cut = top.cut or "step_budget"
                        top.rewrites.close()  # so the loop ends here
                    else:
                        added += 1
                        if not u.is_data:
                            frames.append(open_(u))
                            break
                        top.exits.add(u)
                        memo[u] = frozenset((u,))
                else:
                    frames.pop()
                    if top.low == top.place:  # top roots a component
                        out = frozenset(top.exits)
                        out = interned.setdefault(out, out)
                        for u in stack[top.low:]:
                            del index[u]
                            memo[u] = out
                            if top.cut:
                                cut[u] = top.cut
                        del stack[top.low:]
                        if frames:
                            frames[-1].exits |= out
                    else:  # the parent is in top's component: hand it top's exits
                        frames[-1].low = min(frames[-1].low, top.low)
                        frames[-1].exits |= top.exits
                    if top.cut and frames:
                        frames[-1].cut = frames[-1].cut or top.cut
            yield s, memo[s], added


class _Open:
    """A term on the search path: its successors left, its place on the
    stack, the least place it reached, and its part's exits and cut so far."""

    __slots__ = ("rewrites", "place", "low", "exits", "cut")

    def __init__(self, rewrites: Iterator, place: int):
        self.rewrites = rewrites
        self.place = self.low = place
        self.exits: set[Term] = set()
        self.cut: str | None = None


def reachable_data(
    trs: Trs, start: Term, strategy: Strategy = "full", budget: Budget = Budget()
) -> ReachabilityResult:
    """All data terms reachable from `start` under the strategy, by one
    budgeted `Oracle` search; complete=True means the result set is exact,
    and `explored` counts the terms the search added."""
    oracle = Oracle(trs, strategy, budget)
    ((_, results, explored),) = oracle.search((start,))
    why = oracle.cut.get(start, "none")
    return ReachabilityResult(results, why == "none", explored, why)


def data_results(
    trs: Trs, starts: Iterable[Term], strategy: Strategy = "full"
) -> dict[Term, frozenset[Term]]:
    """The exact data results of many starts, by one unbudgeted `Oracle`,
    so a family of starts costs one pass over their joint closure."""
    return {s: results for s, results, _ in Oracle(trs, strategy).search(starts)}


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
