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
- "demand": the same saturation restricted to the keys transitively read
  while evaluating the start term, in rounds.  A round evaluates each key
  when it is first read, after the keys it reads (an explicit stack of
  generators, not Python recursion); a read of a key still being evaluated
  closes a cycle of the read graph and sees its current value.  A round that
  met no cycle, or changed nothing, ends the run; otherwise another round
  evaluates the whole cone again.  On an acyclic cone, which the bundled
  machines have, this is one round and each key is evaluated once.  On a
  cyclic one it is chaotic iteration from the empty table: values only grow,
  so it ends at the least fixpoint on the cone, which agrees with the dense
  fixpoint on every demanded key.  Demand `generations` is 1 plus the number
  of repeat rounds that set a new fact, so it is 1 on an acyclic cone, and
  `basic_ops` counts one fixpoint comparison per repeat round.  This is what
  makes compiled Turing machines, whose symbols have higher arities,
  affordable to run.

Table values are bitmasks over B indices, and a fill builds and hashes no
term: cons-freeness makes every constructor-rooted rhs subterm ground data or
a piece of the lhs (data values are pointers into the input, as in Jones).
Each rule is compiled once per system, on first use, into a plan kept in
`Trs.memo`: head tests along child-index paths for the lhs, and a body of
lhs positions, ground constants and defined nodes for the rhs, by the
oracle's `compile_rhs` walk.  A key tries
the rules that `rule_index`, shared with the oracle, fits to its arguments'
heads.  Per run, a B item is a head symbol and its children's indices; the
start term and `nf`'s term are converted to indices once.  `basic_ops` counts the sites a term-walking
evaluator would, a node shared by identity once, so the counts are the same.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterator, Literal

from . import __version__
from .analysis import BSet, compute_b, is_b_safe, require_cons_free, rhs_data
from .fmt import encode_input, require_decision_interface
from .terms import (
    Kind,
    Symbol,
    Term,
    Trs,
    Var,
    compile_rhs,
    format_term,
    head_tests,
    is_data,
    rule_index,
    size,
)

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
    """Body (leaves, nodes) of t, by `compile_rhs`.  `leaf` gives each
    variable or constructor-rooted subterm as a register (>= 0) or a ground
    constant ~k, k its place in the rhs data pool.  `nodes` are the defined
    nodes in post-order, a name and operand slots each; slots number the
    leaves, then the nodes."""
    leaves: list[int] = []

    def slot(u: Term) -> int | None:
        if isinstance(u, Var) or u.head.kind is Kind.CONSTRUCTOR:
            leaves.append(leaf(u))
            return len(leaves) - 1
        return None  # a defined node

    nodes, _ = compile_rhs(t, slot)
    n = len(leaves)
    return tuple(leaves), tuple(
        (f.name, tuple(s if s >= 0 else n + ~s for s in args)) for f, args in nodes
    )


class _Plans:
    """Each rule's plan, compiled on first use: its lhs's `head_tests` and a
    body.  On a B item, a test (r, f) checks that register r holds an item
    headed by f and appends the item's children as registers; registers
    start as the key's arguments.  The lhs is linear, so no test compares
    two registers."""

    def __init__(self, trs: Trs):
        self.rules = trs.rules
        self.index = rule_index(trs)
        self.symbol = {s.name: s for s in trs.defined()}
        self.pool = rhs_data(trs)
        self._pool_slot = {t: k for k, t in enumerate(self.pool)}
        self._rules: dict[int, tuple] = {}
        self._candidates: dict[tuple, list[tuple]] = {}

    def candidates(self, name: str, heads: tuple[Symbol, ...]) -> list[tuple]:
        """Plans of the rules that `rule_index` fits to `name` applied to
        items with these heads."""
        hit = self._candidates.get((name, heads))
        if hit is None:
            sym = self.symbol.get(name)
            hit = self._candidates[(name, heads)] = (
                [] if sym is None else [self._plan(i) for i in self.index[(sym, heads)]]
            )
        return hit

    def _plan(self, i: int) -> tuple:
        plan = self._rules.get(i)
        if plan is None:
            rule = self.rules[i]
            tests, pats = head_tests(rule.lhs)

            def leaf(t: Term) -> int:
                if is_data(t):
                    return ~self._pool_slot[t]
                return pats.index(t)  # a variable or lhs subterm, unique by linearity

            plan = self._rules[i] = (tests, _compile(rule.rhs, leaf))
        return plan


class _Engine:
    def __init__(self, trs: Trs, b: BSet):
        plans = trs.memo.get("plans") or trs.memo.setdefault("plans", _Plans(trs))
        self.plans = plans
        self.trs = trs
        self.b = b
        self.ops = 0
        self.table: dict[Key, int] = {}
        # each B item as a head symbol and its children's B indices
        self.heads = [t.head for t in b.items]
        self.kids = [tuple(b.index[a] for a in t.args) for t in b.items]
        self.consts = [b.index.get(t) for t in plans.pool]
        if None in self.consts:
            t = plans.pool[self.consts.index(None)]
            raise ValueError(f"term {format_term(t)} is outside the data universe")
        self._bit_tuples: dict[int, tuple[int, ...]] = {}

    def _ground(self, t: Term) -> tuple[tuple, list[int]]:
        """Body and registers of a ground term, its data looked up as its own
        objects, so that dict identity spares a deep compare."""
        regs: list[int] = []

        def leaf(u: Term) -> int:
            regs.append(self.b.index[u])
            return len(regs) - 1

        return _compile(t, leaf), regs

    def _values(self, body: tuple, regs: list[int]) -> int:
        """Bitmask of possible values of `body` against the current table.

        Dense mode and `nf` keep this evaluator beside demand mode's
        `_evaluate` on purpose: driving `_evaluate` with every key `done`
        keeps every count, but it made dense decides 10-30 % slower
        (membership at n=32 went from 15.7-16.4 to 19.1-20.3 ms, min of 5),
        and `corpus_dense` runs this path."""
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

    def _evaluate(
        self, bodies: list[tuple[tuple, list[int]]], value: int, done: set[Key]
    ) -> Iterator[Key]:
        """`value` joined with the possible values of `bodies`, as a generator
        for demand mode: it yields each key it reads that is not in `done`,
        and reads that key's value once resumed."""
        consts = self.consts
        get = self.table.get
        tuples = self._bit_tuples
        ops = 0  # added to self.ops at the end; other keys count meanwhile
        for (leaves, nodes), regs in bodies:
            vals = [(regs[s] if s >= 0 else consts[~s],) for s in leaves]
            if not nodes:
                value |= 1 << vals[0][0]
                continue
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
            value |= mask
        self.ops += ops
        return value

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
                if heads[idx] is not h:
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

    def run_demand(self, root: Term) -> int:
        """Saturate only the keys read while evaluating `root`, in rounds.

        A round evaluates `root` and, depth first, each key it reads that
        the round has not evaluated yet, before the read resumes: a stack of
        generators, so no call chain meets the interpreter's recursion limit.
        A read of a key still open on the stack closes a cycle of the read
        graph and sees the key's current value.  A round that met no cycle,
        or changed no value, leaves a fixpoint on the keys it read, so the
        run stops; otherwise another round starts.  On an acyclic cone this
        is one round, each key evaluated once, after the keys it reads.

        Returns the generations: 1, plus each repeat round that set a new
        fact.
        """
        ground = [self._ground(root)]
        generations = 1
        repeat = False
        while True:
            done: set[Key] = set()
            open_keys: set[Key] = set()
            cyclic = changed = False
            stack = [(None, self._evaluate(ground, 0, done))]
            while stack:
                key, gen = stack[-1]
                try:
                    read = next(gen)
                except StopIteration as stop:
                    stack.pop()
                    if key is not None:
                        changed |= self._set(key, stop.value)
                        open_keys.remove(key)
                        done.add(key)
                    continue
                if read in open_keys:
                    cyclic = True
                else:
                    open_keys.add(read)
                    bodies, value = self._matches(read), self.table.get(read, 0)
                    stack.append((read, self._evaluate(bodies, value, done)))
            generations += repeat and changed
            if not cyclic or not changed:
                return generations
            repeat = True
            self.ops += 1  # fixpoint comparison for the next round


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
