"""Semantics-preserving program transformations.

`semi_linearize` removes duplicating use of direct rule variables: an
argument that some rule copies into its right-hand side k times becomes k
argument positions, each right-hand side occurrence reads a distinct copy,
and every call site supplies the copies.  On constrained systems this
preserves the reachable data results while making every rule semi-linear.

`bottom_extend` adds a fresh constant `bot` and a rule f(...) -> bot for
every defined symbol, so call-by-value evaluation always has an escape hatch
for arguments whose value is never actually needed.  On semi-linear systems
the call-by-value data results then match full rewriting's, up to discarding
bot itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import check_constrained, require_cons_free
from .engine import Oracle
from .fmt import has_decision_interface
from .terms import (
    App,
    Kind,
    Rule,
    Symbol,
    Term,
    Trs,
    Var,
    build,
    format_term,
    is_constructor_term,
    subterms,
    variables,
)


@dataclass(frozen=True)
class CountTable:
    """counts[(f, i)] = how many copies of f's i-th argument (1-based) the
    transformed system carries; at least 1 everywhere."""

    counts: dict[tuple[str, int], int]
    _widened: dict[Symbol, tuple] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )

    def of(self, symbol: str, i: int) -> int:
        return self.counts.get((symbol, i), 1)

    def new_arity(self, sym: Symbol) -> int:
        if sym.kind is Kind.CONSTRUCTOR:
            return sym.arity
        return sum(self.of(sym.name, i) for i in range(1, sym.arity + 1))

    def widen(self, sym: Symbol) -> tuple[Symbol, tuple[int, ...]]:
        """A defined symbol's widened symbol and the copy count of each of
        its arguments, computed once per table."""
        hit = self._widened.get(sym)
        if hit is None:
            hit = self._widened[sym] = (
                Symbol(sym.name, self.new_arity(sym), sym.kind),
                tuple(self.of(sym.name, i) for i in range(1, sym.arity + 1)),
            )
        return hit


def _occurrences(name: str, t: Term) -> int:
    return sum(1 for s in subterms(t) if isinstance(s, Var) and s.name == name)


def compute_counts(trs: Trs) -> CountTable:
    counts: dict[tuple[str, int], int] = {}
    for sym in trs.defined():
        for i in range(1, sym.arity + 1):
            need = 1
            for _, rule in trs.rules_for(sym):
                arg = rule.lhs.args[i - 1]
                if isinstance(arg, Var):
                    need = max(need, _occurrences(arg.name, rule.rhs))
            counts[(sym.name, i)] = need
    return CountTable(counts)


def signature_map(trs: Trs, counts: CountTable) -> dict[str, Symbol]:
    """Transformed signature: defined arities widen to the copy counts,
    constructors are untouched."""
    return {
        s.name: Symbol(s.name, counts.new_arity(s), s.kind) for s in trs.signature
    }


def phi(trs: Trs, counts: CountTable, t: Term) -> Term:
    """Rewrite a term into the widened signature by repeating arguments.

    Only defined for terms whose constructor-rooted subterms contain no
    defined symbols (below a constructor there is only data to copy).
    `t` is a term of `trs`.  Each head is widened by `counts.widen`; symbols
    are shared objects, so these are the very symbols of
    `semi_linearize(trs)`.  Data subterms are kept as they are, and a
    repeated argument is one object, built once.
    """
    order: list = []  # pre-order for `build`: widened heads, leaves, copy counts
    todo: list = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, int) or u.is_data:
            order.append(u)
        elif isinstance(u, App) and u.head.kind is Kind.DEFINED:
            head, copies = counts.widen(u.head)
            order.append(head)
            for a, k in zip(reversed(u.args), reversed(copies)):
                todo.append(a)
                if k > 1:
                    todo.append(k)
        elif is_constructor_term(u):
            order.append(u)
        else:
            raise ValueError(
                f"cannot transform {format_term(u)}: defined symbol below "
                "a constructor"
            )
    return build(order)


def _fresh(name: str, used: set[str]) -> str:
    """`name`, primed until it is not in `used`; the result joins `used`.

    New variables must avoid the signature's names as well as the rule's own
    variables: print_trs declares every variable for the whole file."""
    while name in used:
        name += "'"
    used.add(name)
    return name


def _pattern_vars(arity: int, names: set[str]) -> tuple[Var, ...]:
    """Variables x1, ..., x<arity>, primed away from `names`."""
    used = set(names)
    return tuple(Var(_fresh(f"x{i}", used)) for i in range(1, arity + 1))


def semi_linearize(trs: Trs) -> Trs:
    """Widen duplicated arguments until every rule is semi-linear.

    Requires a constrained system (check_constrained passes); raises
    NotConstrainedError otherwise.  When the system carries the decision
    interface, wrapper rules start'(c(...)) -> phi(start(c(...))) are added
    for every constructor so bit-string inputs can still be injected without
    the caller having to apply phi.
    """
    check_constrained(trs)
    counts = compute_counts(trs)
    sigmap = signature_map(trs, counts)
    names = set(sigmap)
    new_rules: list[Rule] = []
    for rule in trs.rules:
        lhs = rule.lhs
        assert isinstance(lhs, App)
        used = variables(lhs) | variables(rule.rhs) | names
        new_args: list[Term] = []
        copies: dict[str, list[str]] = {}
        for i, arg in enumerate(lhs.args, start=1):
            k = counts.of(lhs.head.name, i)
            new_args.append(arg)
            base = arg.name if isinstance(arg, Var) else f"x{i}"
            extras = [_fresh(f"{base}__{j}", used) for j in range(2, k + 1)]
            new_args.extend(Var(x) for x in extras)
            if isinstance(arg, Var):
                copies[arg.name] = [arg.name, *extras]
        # pre-order: first occurrence keeps its name, later ones take copies
        taken: dict[str, int] = {}
        order: list[Term | Symbol] = []
        todo = [rule.rhs]
        while todo:
            u = todo.pop()
            if isinstance(u, Var) and u.name in copies:
                k = taken.get(u.name, 0)
                taken[u.name] = k + 1
                order.append(Var(copies[u.name][k]))
            elif isinstance(u, App) and not u.is_data:
                order.append(u.head)
                todo.extend(reversed(u.args))
            else:
                order.append(u)

        new_lhs = App(sigmap[lhs.head.name], tuple(new_args))
        new_rules.append(Rule(new_lhs, phi(trs, counts, build(order))))

    if has_decision_interface(trs):
        wrapper = Symbol(_fresh("start'", names), 1, Kind.DEFINED)
        start = trs.symbol("start")
        for c in trs.constructors():
            pattern = App(c, _pattern_vars(c.arity, names))
            new_rules.append(
                Rule(
                    App(wrapper, (pattern,)),
                    phi(trs, counts, App(start, (pattern,))),
                )
            )
        extra_syms = (wrapper,)
    else:
        extra_syms = ()

    extra = tuple(
        sigmap[s.name]
        for s in trs.signature
        if s.kind is Kind.DEFINED and not trs.rules_for(s)
    )
    return Trs(tuple(new_rules), extra + extra_syms)


def bottom_extend(trs: Trs) -> Trs:
    """Add a fresh constant bot and a rule f(...) -> bot per defined symbol."""
    require_cons_free(trs)
    names = {s.name for s in trs.signature}
    if "bot" in names:
        raise ValueError("signature already uses the name bot")
    bot = Symbol("bot", 0, Kind.CONSTRUCTOR)
    new_rules = list(trs.rules)
    for sym in trs.defined():
        new_rules.append(Rule(App(sym, _pattern_vars(sym.arity, names)), App(bot)))
    return Trs(tuple(new_rules), (bot,))


def verify_semi_linearization(
    orig: Oracle, star: Oracle, terms: list[Term], images: list[Term]
) -> list[str]:
    """Oracle check under full rewriting: each of `terms` reaches the same
    data in `orig` as its image under phi, in `images`, in `star`."""
    return _compare(orig, star, terms, images, frozenset())


def verify_bottom_extension(
    orig: Oracle, extended: Oracle, terms: list[Term]
) -> list[str]:
    """Oracle check: call-by-value results in `extended`, minus bot, match
    the full-rewriting results in `orig`."""
    bot = App(extended.trs.symbol("bot"))
    return _compare(orig, extended, terms, terms, frozenset((bot,)))


def _compare(
    before: Oracle, after: Oracle, terms: list, images: list, drop: frozenset
) -> list[str]:
    """A problem for each term whose results in `before` differ from its
    image's in `after` without the `drop` terms, or whose search was cut."""
    problems = []
    pairs = zip(before.search(terms), after.search(images))
    for (s, want, _), (image, got, _) in pairs:
        if s in before.cut or image in after.cut:
            problems.append(f"{format_term(s)}: oracle budget exhausted")
        elif want != got - drop:
            problems.append(
                f"{format_term(s)}: {_render(want)} != {_render(got - drop)}"
            )
    return problems


def _render(terms: frozenset[Term] | set[Term]) -> str:
    inner = ", ".join(sorted(format_term(t) for t in terms))
    return "{" + inner + "}"
