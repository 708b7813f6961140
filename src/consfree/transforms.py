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

from typing import Iterator

from .analysis import check_constrained, require_cons_free
from .engine import Oracle
from .fmt import START, has_decision_interface
from .terms import (
    CONSTRUCTOR,
    DEFINED,
    App,
    Rule,
    Symbol,
    Term,
    Trs,
    Var,
    build,
    format_term,
    is_constructor_term,
    variables,
)


Widening = dict[Symbol, tuple[Symbol, tuple[int, ...]]]


def compute_counts(trs: Trs) -> Widening:
    """Each defined symbol's widened symbol and the copies of each of its
    arguments, from the system's `facts.widths`: the most right-hand-side
    uses of an argument by one rule where it is a bare variable, and at
    least 1."""
    widths = trs.facts.widths
    return {s: (Symbol(s.name, sum(w), s.kind), w) for s, w in widths.items()}


def phi(trs: Trs, counts: Widening, t: Term) -> Term:
    """Rewrite a term into the widened signature by repeating arguments.

    Only defined for terms whose constructor-rooted subterms contain no
    defined symbols (below a constructor there is only data to copy).
    `t` is a term of `trs`, and `counts` is `compute_counts(trs)`: each
    defined head is widened by its entry there.  Symbols are shared
    objects, so these are the very symbols of `semi_linearize(trs)`.  Data
    subterms are kept as they are, and a repeated argument is one object,
    built once.

    `trs` is not read: `counts` alone widens each head.  The parameter stays
    because the benchmark (`perfbench/`) calls `phi` with three positional
    arguments, and dropping it means changing that call in the same change.
    """
    return _widen(counts, t, {})


def _widen(counts: Widening, t: Term, copies: dict[str, Iterator[Var]]) -> Term:
    """`phi`'s walk.  A variable named in `copies` takes the next of its
    copies, so in pre-order its first occurrence takes the first copy."""
    order: list = []  # pre-order for `build`: widened heads, leaves, copy counts
    todo: list = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, int) or u.is_data:
            order.append(u)
        elif isinstance(u, App) and u.head.kind is DEFINED:
            head, widths = counts[u.head]
            order.append(head)
            for a, k in zip(reversed(u.args), reversed(widths)):
                todo.append(a)
                if k > 1:
                    todo.append(k)
        elif isinstance(u, Var):
            order.append(next(copies[u.name]) if u.name in copies else u)
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
    NotConstrainedError otherwise.  Each right-hand side goes once through
    `phi`'s walk, which also hands a direct variable's later occurrences, in
    pre-order, its fresh copies (`y__2`, ...).  When the system carries the
    decision interface, wrapper rules start'(c(...)) -> phi(start(c(...)))
    are added for every constructor so bit-string inputs can still be
    injected without the caller having to apply phi.
    """
    check_constrained(trs)
    counts = compute_counts(trs)
    names = {s.name for s in trs.signature}
    new_rules: list[Rule] = []
    for rule in trs.rules:
        lhs = rule.lhs
        used = variables(lhs) | names
        head, widths = counts[lhs.head]
        new_args: list[Term] = []
        copies: dict[str, Iterator[Var]] = {}
        for i, (arg, k) in enumerate(zip(lhs.args, widths), start=1):
            base = arg.name if isinstance(arg, Var) else f"x{i}"
            extras = [Var(_fresh(f"{base}__{j}", used)) for j in range(2, k + 1)]
            new_args += [arg, *extras]
            if isinstance(arg, Var):
                copies[arg.name] = iter([arg, *extras])
        new_rhs = _widen(counts, rule.rhs, copies)
        new_rules.append(Rule(App(head, tuple(new_args)), new_rhs))

    extra = [counts[s][0] for s in trs.defined() if s not in trs.by_head]
    if has_decision_interface(trs):
        wrapper = Symbol(_fresh("start'", names), 1, DEFINED)
        for c in trs.constructors():
            pattern = App(c, _pattern_vars(c.arity, names))
            new_rules.append(
                Rule(
                    App(wrapper, (pattern,)),
                    phi(trs, counts, App(START, (pattern,))),
                )
            )
        extra.append(wrapper)
    return Trs(tuple(new_rules), tuple(extra))


def bottom_extend(trs: Trs) -> Trs:
    """Add a fresh constant bot and a rule f(...) -> bot per defined symbol."""
    require_cons_free(trs)
    names = {s.name for s in trs.signature}
    if "bot" in names:
        raise ValueError("signature already uses the name bot")
    bot = Symbol("bot", 0, CONSTRUCTOR)
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
