"""Polynomial-time evaluation of cons-free systems by tabulation.

Instead of rewriting (whose call-by-value reduction graphs can be
exponential), we saturate a table of facts

    Confirmed[f(s1, ..., sn) ~ t]   "f applied to data s1..sn can reach data t"

over the finite data universe B of the run.  Each generation's table follows
from the previous one's: an entry becomes YES if it already was,
or if some rule f(l1, ..., ln) -> r matches with substitution g and t is a
possible value of r*g, where the possible values of a term are looked up in
the previous generation's table (data values are their own single value, and
a defined symbol's values are read off the table pointwise over all argument
value combinations — strict, call-by-value: an argument with no values kills
the whole combination).  Iteration stops at the first fixpoint.

Two modes, on one evaluator, `_evaluate`, which yields each key it reads:
- "dense": sweep every key (every defined symbol, every argument tuple over
  B) per generation.  A key's matching rules depend only on the key and B,
  so they are listed once per run, rule by rule as bottom-up Datalog does:
  a rule is tried on the product of the B items its argument heads fit.
  The first sweep evaluates the keys some rule matches (no other key ever
  gets a value) and records their reads; a later one only the readers of
  the keys the previous sweep changed (semi-naive evaluation).  `basic_ops`
  adds a skipped key's count from its last evaluation, and per sweep one
  rule-match attempt per candidate rule per key, the sum of those products:
  the counts of the reference procedure, which recomputes every key in
  every sweep and obeys the O(n^(3k+3)) bound (k = max defined arity).
- "demand": the same saturation restricted to the keys transitively read
  while evaluating the start term, in rounds.  A round evaluates each key
  when it is first read, after the keys it reads (an explicit stack of
  generators, not Python recursion); a read of a key still being evaluated
  closes a cycle of the read graph and sees its current value.  A round that
  met no cycle, or changed nothing, ends the run; otherwise another round
  evaluates the cone again.  On an acyclic cone, which the bundled machines
  have, this is one round and each key is evaluated once.  On a cyclic one
  it is chaotic iteration from the empty table: values only grow, so it
  ends at the least fixpoint on the cone, which agrees with the dense
  fixpoint on every demanded key.  Demand `generations` is 1 plus the number
  of repeat rounds that set a new fact, so it is 1 on an acyclic cone, and
  `basic_ops` counts one fixpoint comparison per repeat round.  This is what
  makes compiled Turing machines, whose symbols have higher arities,
  affordable to run.

Table values are bitmasks over B indices, keys are a defined symbol and its
arguments' B indices, and a fill builds and hashes no term: cons-freeness
makes every constructor-rooted rhs subterm ground data or a piece of the lhs
(data values are pointers into the input, as in Jones).  A rule runs as its
plan, kept by `Trs.index`, the one the oracle runs too: head tests
along child-index paths for the lhs, and for the rhs the `compile_rhs`
slots that hold the registers, then the rule's ground constants, then its
nodes, each a defined symbol evaluated pointwise over the table.  While every
value of a body so far is one item, as on the deterministic compiled
machines, a node is one key, taken from the slots by the node's picker, and
one lookup; the first value that is empty or has several items sends the
rest of the body to the product of the slots' values.  Both count alike.  A
demand key tries the rules that the index fits to its arguments' heads.  A table
builds its run's B; a B item is a head symbol and its children's indices,
and each constant is its B index.  The start term and `nf`'s term go through
`compile_rhs` once, with no registers, so their data subterms fill the first
slots.  `run_tabulation` returns the `ConfirmedTable` it filled, and `nf`
runs `_evaluate` on that run's own table, on a demand table only over the
keys the last round evaluated.  `basic_ops` counts the sites a term-walking
evaluator would, a node shared by identity once, so the counts are the same.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Container, Iterator, Literal

from . import __version__
from .analysis import compute_b, is_b_safe, require_cons_free
from .fmt import TRUE, encode_input, require_decision_interface
from .terms import (
    Symbol,
    Term,
    Trs,
    Var,
    compile_rhs,
    format_term,
    size,
)

Mode = Literal["dense", "demand"]
Key = tuple[Symbol, tuple[int, ...]]  # a defined symbol and argument B indices
# a matched rule's nodes (head, slots, picker), top slot and registers
Body = tuple[tuple, int, list[int]]


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


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _BitTuples(dict):
    """A value bitmask's B indices as a tuple, made on its first lookup."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        bits = self[mask] = tuple(_bits(mask))
        return bits


class ConfirmedTable:
    """The Confirmed table of one run from `start` over its data universe:
    `b` maps each data term to its index and `items` lists them by index.
    `entries` holds each key's value bitmask, YES entries only (`_set` never
    stores 0).  `run_tabulation` fills it and sets `stats`; `nf` evaluates on
    it.  `cone` is None on a dense table, where every key is final, and the
    keys of the last round on a demand table."""

    stats: TabulationStats

    def __init__(self, trs: Trs, start: Term):
        self.b = b = compute_b(trs, start)
        if not is_b_safe(b, start):
            raise ValueError(
                f"start term {format_term(start)} is not safe for its data universe"
            )
        self.items = tuple(b)
        self.index = trs.index
        self.trs = trs
        self.ops = 0
        self.entries: dict[Key, int] = {}
        self.cone: set[Key] | None = None
        # each B item as a head symbol and its children's B indices
        self.heads = [t.head for t in self.items]
        self.kids = [tuple(b[a] for a in t.args) for t in self.items]
        self.ones = [(i,) for i in range(len(b))]  # an item as a value tuple
        self.consts = [b[t] for t in trs.facts.data]
        self._bit_tuples = _BitTuples()

    def _call(self, key: Key) -> str:
        sym, combo = key
        args = ", ".join(format_term(self.items[i]) for i in combo)
        return f"{sym.name}({args})" if combo else sym.name

    def dump(self) -> str:
        """One line per YES entry, `f(s1, ..., sn) => t`, sorted."""
        lines = []
        for key, mask in self.entries.items():
            call = self._call(key)
            for i in _bits(mask):
                lines.append(f"{call} => {format_term(self.items[i])}")
        return "\n".join(sorted(lines))

    def _ground(self, t: Term) -> Body:
        """Nodes, top slot and registers of a ground term in the layout of
        a rule plan: its data subterms, looked up as their own objects so
        that dict identity spares a deep compare, are the registers."""
        consts, nodes, top = compile_rhs(t, {}, 0)
        return nodes, top, [self.b[u] for u in consts]

    def _evaluate(
        self, bodies: list[Body], value: int, done: Container[Key]
    ) -> Iterator[Key]:
        """`value` joined with the possible values of `bodies`, the table's one
        evaluator.  It yields each key it reads that is not in `done`, and
        reads that key's value once resumed: demand mode evaluates the key
        first, and a dense sweep passes an empty `done` to record every read.
        Its count depends only on the values it reads, so a dense sweep that
        skips a key whose reads did not change adds its last count instead.

        While every slot of a body holds one item, a node's arguments are one
        key, picked from the slots' B indices (`one`).  At the first value
        that is empty or has several items, the rest of the body runs over
        the product of the slots' item tuples (`vals`).  Both paths count one
        cache miss per node and one lookup per key."""
        ones = self.ones
        get = self.entries.get
        tuples = self._bit_tuples
        ops = 0  # added to self.ops at the end; other keys count meanwhile
        for nodes, top, regs in bodies:
            if not nodes:
                value |= 1 << regs[top]
                continue
            one = regs.copy()  # each slot's one B index so far
            rest = iter(nodes)
            for sym, _, pick in rest:
                ops += 2  # nf cache miss, table lookup
                key = (sym, pick(one))
                if key not in done:
                    yield key
                mask = get(key, 0)
                if not mask or mask & mask - 1:
                    break
                one.append(mask.bit_length() - 1)
            else:
                value |= mask
                continue
            vals = list(map(ones.__getitem__, one))
            vals.append(tuples[mask])
            for sym, _, pick in rest:
                ops += 1  # nf cache miss
                mask = 0
                for combo in itertools.product(*pick(vals)):
                    key = (sym, combo)
                    ops += 1  # table lookup
                    if key not in done:
                        yield key
                    mask |= get(key, 0)
                vals.append(tuples[mask])
            value |= mask
        self.ops += ops
        return value

    def _set(self, key: Key, value: int) -> bool:
        """Store a key's new value; whether it changed."""
        old = self.entries.get(key, 0)
        if value == old:
            return False
        self.ops += (value ^ old).bit_count()  # insertions
        self.entries[key] = value
        return True

    def _fits(self, tests: tuple, regs: list[int]) -> bool:
        """Whether the B items in `regs` pass a plan's head tests: (r, f) needs
        an item headed by f in register r and appends its children as
        registers.  The lhs is linear, so no test compares two registers."""
        heads, kids = self.heads, self.kids
        for r, h in tests:
            if heads[idx := regs[r]] is not h:
                return False
            regs += kids[idx]
        return True

    def _matches(self, key: Key) -> list[Body]:
        """Nodes, top slot and registers of each rule of `key`'s symbol that
        matches its arguments, the registers ending with its constants."""
        sym, combo = key
        plans = self.index[(sym, tuple([self.heads[i] for i in combo]))]
        self.ops += len(plans)  # rule-match attempts
        found = []
        for _, (tests, _, _, pool, nodes, top) in plans:
            regs = list(combo)
            if self._fits(tests, regs):
                regs += [self.consts[k] for k in pool]
                found.append((nodes, top, regs))
        return found

    def _matched_keys(self) -> tuple[dict[Key, list[Body]], int]:
        """What `_matches` finds on every key it finds something on, and its
        attempts on every key, by trying each rule on the keys its argument
        heads fit: the product of its arguments' candidates."""
        having = defaultdict(list)  # each head symbol's B items
        for i, head in enumerate(self.heads):
            having[head].append(i)
        every, matched, attempts = range(len(self.items)), defaultdict(list), 0
        for i, rule in enumerate(self.trs.rules):
            args = rule.lhs.args
            candidates = [every if p.__class__ is Var else having[p.head] for p in args]
            if keys := math.prod(map(len, candidates)):  # else compile no plan
                attempts += keys
                tests, _, _, pool, nodes, top = self.index.plan(i)
                pooled = [self.consts[k] for k in pool]
                for combo in itertools.product(*candidates):
                    regs = list(combo)
                    if self._fits(tests, regs):
                        matched[rule.lhs.head, combo].append((nodes, top, regs + pooled))
        return matched, attempts

    def run_dense(self) -> int:
        """Sweep the keys of `_matched_keys` until nothing changes; returns the sweeps.

        A sweep after the first evaluates only the readers of the keys the
        previous one changed, and counts each other key's last evaluation
        again: it would read the same values, so it would count the same.
        Updates apply after a sweep, so no order of evaluation matters."""
        get, evaluate = self.entries.get, self._evaluate
        matched, attempts = self._matched_keys()
        readers: defaultdict[Key, dict[Key, None]] = defaultdict(dict)  # ordered sets
        cost = dict.fromkeys(matched, 0)  # count of each key's last evaluation
        total = 0  # their sum: what a sweep that evaluates no key would count
        todo = matched
        sweeps = 0
        while True:
            sweeps += 1
            self.ops += 1 + attempts + total  # fixpoint comparison, attempts, keys
            updates = {}
            for key in todo:
                self.ops -= cost[key]  # replaced by this evaluation's count
                ops = self.ops
                reads = evaluate(matched[key], get(key, 0), ())
                try:
                    while True:
                        readers[next(reads)][key] = None
                except StopIteration as stop:
                    value = stop.value
                total += self.ops - ops - cost[key]
                cost[key] = self.ops - ops
                if value != get(key, 0):
                    updates[key] = value
            if not updates:
                return sweeps
            todo = {}
            for key, value in updates.items():
                self._set(key, value)
                todo |= readers[key]

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
        fact, and keeps the last round's keys as `cone`.
        """
        ground = [self._ground(root)]
        get = self.entries.get
        generations = 1
        repeat = False
        while True:
            done, open_keys = set(), set()
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
                    continue
                open_keys.add(read)
                gen = self._evaluate(self._matches(read), get(read, 0), done)
                stack.append((read, gen))
            generations += repeat and changed
            if not cyclic or not changed:
                self.cone = done
                return generations
            repeat = True
            self.ops += 1  # fixpoint comparison for the next round


def run_tabulation(trs: Trs, start: Term, mode: Mode = "dense") -> ConfirmedTable:
    require_cons_free(trs)
    table = ConfirmedTable(trs, start)
    if mode == "dense":
        generations = table.run_dense()
    elif mode == "demand":
        generations = table.run_demand(start)
    else:
        raise ValueError(f"unknown tabulation mode {mode!r}")
    defined = trs.defined()
    k = max((s.arity for s in defined), default=0)
    n = size(start)
    table.stats = TabulationStats(
        n, k, generations, table.ops, n ** (3 * k + 3), len(defined), len(table.b)
    )
    return table


def nf(table: ConfirmedTable, t: Term) -> frozenset[Term]:
    """Possible data values of a ground, B-safe term at the fixpoint; on a
    demand table, a read of a key outside its `cone` raises."""
    if not is_b_safe(table.b, t):
        raise ValueError(f"term {format_term(t)} is not B-safe for this table")
    reads = table._evaluate([table._ground(t)], 0, table.cone or ())
    try:
        while True:
            key = next(reads)  # every key of a dense table is final
            if table.cone is not None:
                raise ValueError(
                    f"term {format_term(t)} reads {table._call(key)}, "
                    "which the demand run did not evaluate"
                )
    except StopIteration as stop:
        mask = stop.value
    return frozenset(table.items[i] for i in _bits(mask))


def decide(trs: Trs, bits: str, mode: Mode = "dense") -> tuple[bool, TabulationStats]:
    """Does start(bit list) evaluate to true, by tabulation?"""
    require_decision_interface(trs)
    start = encode_input(bits)
    table = run_tabulation(trs, start, mode)
    return any(t.head is TRUE for t in nf(table, start)), table.stats
