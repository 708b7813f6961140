"""Polynomial-time evaluation of cons-free systems by tabulation.

Instead of rewriting (whose call-by-value reduction graphs can be
exponential), we saturate a table of facts

    Confirmed[f(s1, ..., sn) ~ t]   "f applied to data s1..sn can reach data t"

over the finite data universe B of the run.  Each generation recomputes every
entry from the previous generation: an entry becomes YES if it already was,
or if some rule f(l1, ..., ln) -> r matches with substitution g and t is a
possible value of r*g, where the possible values of a term are looked up in
the previous generation's table (data values are their own single value, and
a defined symbol's values are read off the table pointwise over all argument
value combinations — strict, call-by-value: an argument with no values kills
the whole combination).  Iteration stops at the first fixpoint.

Two modes:
- "dense": literally sweep every key (every defined symbol, every argument
  tuple over B) per generation.  This is the reference procedure whose
  operation count obeys the O(n^(3k+3)) bound (k = max defined arity).
- "demand": tabled evaluation of only the keys transitively read while
  evaluating the start term.  A key is evaluated when it is first read, after
  the keys it reads (an explicit stack, not Python recursion), and evaluated
  again only inside a strongly connected component of the read graph, found
  by Tarjan lowlinks: passes over its members, each against the latest
  values, until one changes nothing (SCC completion, as in Chen and Warren's
  tabling).  On an acyclic cone, which the bundled machines have, each key is
  evaluated once.  Values agree with the dense fixpoint on every demanded key:
  a complete key's reads are complete, and a component's last pass is a
  fixpoint over its members.  Demand `generations` is 1 plus the number of
  passes that set a new fact, so it is 1 on an acyclic cone, and `basic_ops`
  counts one fixpoint comparison per pass instead of per sweep.  This is what
  makes compiled Turing machines, whose symbols have higher arities,
  affordable to run.

Table values are bitmasks over B indices, and a fill builds and hashes no
term: cons-freeness makes every constructor-rooted rhs subterm ground data or
a piece of the lhs (data values are pointers into the input, as in Jones).
Each rule is compiled once per system, on first use, into a plan kept in
`Trs.memo`: head tests along child-index paths for the lhs, and a body of
lhs positions, ground constants and defined nodes for the rhs.  Per run, a B
item is a head and its children's indices; the start term and `nf`'s term are
converted to indices once.  `basic_ops` counts the sites a term-walking
evaluator would, a node shared by identity once, so the counts are the same.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterator, Literal

from . import __version__
from .analysis import BSet, compute_b, is_b_safe, require_cons_free, rhs_data
from .fmt import encode_input, require_decision_interface
from .terms import Kind, Rule, Term, Trs, Var, format_term, is_data, size

Mode = Literal["dense", "demand"]
Key = tuple[str, tuple[int, ...]]  # a defined symbol's name and argument B indices


@dataclass(frozen=True)
class TabulationStats:
    input_size: int  # node count of the start term
    max_arity: int  # greatest arity among defined symbols
    generations: int
    basic_ops: int
    bound_value: int  # input_size ** (3 * max_arity + 3)
    defined_count: int  # extra context for the generation bound, not serialized
    b_size: int

    def to_json(self) -> str:
        keys = ("input_size", "max_arity", "generations", "basic_ops", "bound_value")
        return json.dumps({k: getattr(self, k) for k in keys} | {"version": __version__})


def stats_bound_check(stats: TabulationStats, c: float) -> bool:
    """basic_ops within c times the n^(3k+3) bound."""
    return stats.basic_ops <= c * stats.bound_value


def generations_bound_check(stats: TabulationStats) -> bool:
    """Auxiliary: a fresh fact per generation caps generations by the number
    of table cells, |D| * |B|^(k+1), plus one: dense mode's final unchanged
    sweep, or demand mode's first generation."""
    return stats.generations <= (
        stats.defined_count * stats.b_size ** (stats.max_arity + 1) + 1
    )


@dataclass
class ConfirmedTable:
    b: BSet
    entries: dict[Key, int]  # value bitmask per key
    trs: Trs
    stats: TabulationStats

    def yes_set(self, symbol: str, args: tuple[Term, ...]) -> frozenset[Term]:
        key = (symbol, tuple(self.b.index[a] for a in args))
        mask = self.entries.get(key, 0)
        return frozenset(self.b.items[i] for i in _bits(mask))

    def dump(self) -> str:
        """One line per YES entry, `f(s1, ..., sn) => t`, sorted."""
        lines = []
        for (name, combo), mask in self.entries.items():
            args = ", ".join(format_term(self.b.items[i]) for i in combo)
            call = f"{name}({args})" if combo else name
            for i in _bits(mask):
                lines.append(f"{call} => {format_term(self.b.items[i])}")
        return "\n".join(sorted(lines))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _compile(t: Term, leaf: Callable[[Term], int]) -> tuple:
    """Body (leaves, nodes) of t.  `leaf` gives each variable or
    constructor-rooted subterm as a register (>= 0) or a ground constant ~k,
    k its place in the rhs data pool.  `nodes` are the defined nodes in
    post-order, a name and operand slots each; slots number the leaves, then
    the nodes.  A node occurring twice by identity is compiled once."""
    leaves: list[int] = []
    nodes: list[tuple[str, list[int]]] = []
    ref: dict[int, int] = {}  # id(u) -> leaf slot, or ~node

    def go(u: Term) -> int:
        r = ref.get(id(u))
        if r is None:
            if isinstance(u, Var) or u.head.kind is Kind.CONSTRUCTOR:
                leaves.append(leaf(u))
                r = len(leaves) - 1
            else:
                args = [go(a) for a in u.args]
                nodes.append((u.head.name, args))
                r = ~(len(nodes) - 1)
            ref[id(u)] = r
        return r

    go(t)
    n = len(leaves)
    return tuple(leaves), tuple(
        (name, tuple(s if s >= 0 else n + ~s for s in args)) for name, args in nodes
    )


class _Plans:
    """Each rule's plan, compiled on first use: head tests and a body.  A test
    (r, h) checks that register r holds a B item with head code h and appends
    the item's children as registers; registers start as the key's arguments.
    The lhs is linear, so no test compares two registers."""

    def __init__(self, trs: Trs):
        self.by_head = trs.by_head
        self.code = {s: i for i, s in enumerate(trs.signature)}
        self.pool = rhs_data(trs)
        self._pool_slot = {t: k for k, t in enumerate(self.pool)}
        self._rules: dict[int, tuple] = {}
        self._candidates: dict[tuple, list[tuple]] = {}

    def candidates(self, name: str, heads: tuple[int, ...]) -> list[tuple]:
        """Plans of `name`'s rules whose argument roots have these heads;
        compiled systems carry hundreds of rules, most ruled out here."""
        hit = self._candidates.get((name, heads))
        if hit is None:
            hit = self._candidates[(name, heads)] = [
                self._plan(i, rule)
                for i, rule in self.by_head.get(name, ())
                if all(
                    isinstance(p, Var) or self.code[p.head] == h
                    for p, h in zip(rule.lhs.args, heads)
                )
            ]
        return hit

    def _plan(self, i: int, rule: Rule) -> tuple:
        plan = self._rules.get(i)
        if plan is None:
            regs = list(rule.lhs.args)
            tests = []
            for r, p in enumerate(regs):  # grows as tests add children
                if not isinstance(p, Var):
                    tests.append((r, self.code[p.head]))
                    regs.extend(p.args)

            def leaf(t: Term) -> int:
                if is_data(t):
                    return ~self._pool_slot[t]
                return regs.index(t)  # a variable or lhs subterm, unique by linearity

            plan = self._rules[i] = (tuple(tests), _compile(rule.rhs, leaf))
        return plan


class _Frame:
    """A running evaluation on `run_demand`'s stack: `index` is its key's
    place on the stack of open keys, `low` the least place it reached,
    `cyclic` whether it read an open key, and `gen` the generator it drives,
    which `start` makes from the frame itself."""

    __slots__ = ("gen", "index", "low", "cyclic")

    def __init__(self, index: int, start: Callable[[_Frame], Iterator[Key]]):
        self.index = self.low = index
        self.cyclic = False
        self.gen = start(self)


class _Engine:
    def __init__(self, trs: Trs, b: BSet):
        plans = trs.memo.get("plans") or trs.memo.setdefault("plans", _Plans(trs))
        self.plans = plans
        self.trs = trs
        self.b = b
        self.ops = 0
        self.table: dict[Key, int] = {}
        # each B item as a head code and its children's B indices
        self.heads = [plans.code.get(t.head, -1) for t in b.items]
        self.kids = [tuple(b.index[a] for a in t.args) for t in b.items]
        self.consts = [b.index.get(t) for t in plans.pool]
        if None in self.consts:
            t = plans.pool[self.consts.index(None)]
            raise ValueError(f"term {format_term(t)} is outside the data universe")
        self._bit_tuples: dict[int, tuple[int, ...]] = {}
        # demand mode: complete keys, whose values are final, and the open
        # keys in Tarjan's stack order with each one's place on it
        self._done: set[Key] = set()
        self._stack: list[Key] = []
        self._open: dict[Key, int] = {}
        self.generations = 1

    def _ground(self, t: Term) -> tuple[tuple, list[int]]:
        """Body and registers of a ground term, its data looked up as its own
        objects, so that dict identity spares a deep compare."""
        regs: list[int] = []

        def leaf(u: Term) -> int:
            regs.append(self.b.index[u])
            return len(regs) - 1

        return _compile(t, leaf), regs

    def _values(self, body: tuple, regs: list[int]) -> int:
        """Bitmask of possible values of `body` against the current table."""
        leaves, nodes = body
        consts = self.consts
        vals = [(regs[s] if s >= 0 else consts[~s],) for s in leaves]
        if not nodes:
            return 1 << vals[0][0]
        get = self.table.get
        tuples = self._bit_tuples
        ops = self.ops
        for name, slots in nodes:
            ops += 1  # nf cache miss
            mask = 0
            for combo in itertools.product(*[vals[s] for s in slots]):
                ops += 1  # table lookup
                mask |= get((name, combo), 0)
            bits = tuples.get(mask)
            if bits is None:
                bits = tuples[mask] = tuple(_bits(mask))
            vals.append(bits)
        self.ops = ops
        return mask

    def _reads(self, body: tuple, regs: list[int]) -> Iterator[Key]:
        """`_values` for demand mode, as a generator: it yields each key it
        reads that is not yet complete, and reads its value once resumed."""
        leaves, nodes = body
        consts = self.consts
        vals = [(regs[s] if s >= 0 else consts[~s],) for s in leaves]
        if not nodes:
            return 1 << vals[0][0]
        get = self.table.get
        done = self._done
        tuples = self._bit_tuples
        ops = 0  # added to self.ops on return; other frames count meanwhile
        for name, slots in nodes:
            ops += 1  # nf cache miss
            mask = 0
            for combo in itertools.product(*[vals[s] for s in slots]):
                key = (name, combo)
                ops += 1  # table lookup
                if key not in done:
                    yield key
                mask |= get(key, 0)
            bits = tuples.get(mask)
            if bits is None:
                bits = tuples[mask] = tuple(_bits(mask))
            vals.append(bits)
        self.ops += ops
        return mask

    def _set(self, key: Key, value: int) -> bool:
        """Store a key's new value; whether it changed."""
        old = self.table.get(key, 0)
        if value == old:
            return False
        self.ops += (value ^ old).bit_count()  # insertions
        self.table[key] = value
        return True

    def _matches(self, key: Key) -> list[tuple[tuple, list[int]]]:
        """Body and registers of each rule of `key`'s symbol that matches
        its arguments."""
        name, combo = key
        heads, kids = self.heads, self.kids
        found = []
        for tests, body in self.plans.candidates(name, tuple(heads[i] for i in combo)):
            self.ops += 1  # rule-match attempt
            regs = list(combo)
            for r, h in tests:
                idx = regs[r]
                if heads[idx] != h:
                    break
                regs += kids[idx]
            else:
                found.append((body, regs))
        return found

    def run_dense(self) -> int:
        n = len(self.b)
        get, matches, values = self.table.get, self._matches, self._values
        sweeps = 0
        while True:
            sweeps += 1
            self.ops += 1  # fixpoint comparison for this sweep
            updates = {}
            for sym in self.trs.defined():
                for combo in itertools.product(range(n), repeat=sym.arity):
                    key = (sym.name, combo)
                    old = value = get(key, 0)
                    for body, regs in matches(key):
                        value |= values(body, regs)
                    if value != old:
                        updates[key] = value
            if not updates:
                return sweeps
            for key, value in updates.items():
                self._set(key, value)

    def _update_key(self, key: Key) -> Iterator[Key]:
        """A key's value from its rules against the current table, as a
        generator over the keys read that are not yet complete."""
        value = self.table.get(key, 0)
        for body, regs in self._matches(key):
            value |= yield from self._reads(body, regs)
        return value

    def _settle(self, key: Key, frame: _Frame) -> Iterator[Key]:
        """Evaluate `key`.  If it then roots a strongly connected component
        of the read graph, iterate the component to its fixpoint and
        complete it, unless a pass reads an outer open key: then the
        lowlink goes up and an outer root iterates the larger component."""
        stack, index = self._stack, frame.index
        self._set(key, (yield from self._update_key(key)))
        if frame.low == index and (frame.cyclic or len(stack) > index + 1):
            while True:
                self.ops += 1  # fixpoint comparison for this pass
                end = len(stack)
                changed = False
                for member in stack[index:end]:
                    changed |= self._set(member, (yield from self._update_key(member)))
                self.generations += changed
                if frame.low < index or not changed and len(stack) == end:
                    break
        if frame.low == index:
            self._done.update(stack[index:])
            for member in stack[index:]:
                del self._open[member]
            del stack[index:]

    def run_demand(self, root: Term) -> int:
        """Saturate only the keys read while evaluating `root`.

        Tabled evaluation: a key is evaluated when first read, after the keys
        it reads, by a loop over an explicit stack of frames, so no call chain
        meets the interpreter's recursion limit.  Tarjan lowlinks find the
        strongly connected components of the read graph, and only inside one
        is a key evaluated again: passes over the component's members, each
        against the latest values, until a pass changes no value and adds no
        member.  On an acyclic cone every key is evaluated once.

        Returns the generations: 1, plus each pass that set a new fact.
        """
        # the root's frame: it is no key, and it reads no open key
        frames = [_Frame(0, lambda _: self._reads(*self._ground(root)))]
        while frames:
            top = frames[-1]
            try:
                key = next(top.gen)
            except StopIteration:
                frames.pop()
                if frames:
                    frames[-1].low = min(frames[-1].low, top.low)
                continue
            place = self._open.get(key)
            if place is None:  # first read: evaluate it now
                place = self._open[key] = len(self._stack)
                self._stack.append(key)
                frames.append(_Frame(place, functools.partial(self._settle, key)))
            else:  # an open key: the read graph has a cycle through it
                top.low = min(top.low, place)
                top.cyclic = True
        return self.generations


def run_tabulation(trs: Trs, start: Term, mode: Mode = "dense") -> ConfirmedTable:
    require_cons_free(trs)
    b = compute_b(trs, start)
    if not is_b_safe(b, start):
        raise ValueError(
            f"start term {format_term(start)} is not safe for its data universe"
        )
    engine = _Engine(trs, b)
    if mode == "dense":
        generations = engine.run_dense()
    elif mode == "demand":
        generations = engine.run_demand(start)
    else:
        raise ValueError(f"unknown tabulation mode {mode!r}")
    defined = trs.defined()
    k = max((s.arity for s in defined), default=0)
    n = size(start)
    stats = TabulationStats(
        n, k, generations, engine.ops, n ** (3 * k + 3), len(defined), len(b)
    )
    entries = {key: v for key, v in engine.table.items() if v}
    return ConfirmedTable(b=b, entries=entries, trs=trs, stats=stats)


def nf(table: ConfirmedTable, t: Term) -> frozenset[Term]:
    """Possible data values of a ground, B-safe term at the fixpoint."""
    if not is_b_safe(table.b, t):
        raise ValueError(f"term {format_term(t)} is not B-safe for this table")
    engine = _Engine(table.trs, table.b)
    engine.table = table.entries
    mask = engine._values(*engine._ground(t))
    return frozenset(table.b.items[i] for i in _bits(mask))


def decide(trs: Trs, bits: str, mode: Mode = "dense") -> tuple[bool, TabulationStats]:
    """Does start(bit list) evaluate to true, by tabulation?"""
    require_decision_interface(trs)
    start = encode_input(bits)
    table = run_tabulation(trs, start, mode)
    true = trs.symbol("true")  # a constant, by the decision interface
    return any(t.head is true for t in nf(table, start)), table.stats
