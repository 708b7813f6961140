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
- "demand": same monotone update, restricted to the keys transitively read
  while evaluating the start term, with clean keys skipped.  Values agree
  with the dense fixpoint on every demanded key (skipping a key whose reads
  did not change cannot alter its value; restricting to the read cone cannot
  lose derivations that feed the start term).  This is what makes compiled
  Turing machines, whose symbols have higher arities, affordable to run.

Table values are stored as integer bitmasks over B indices.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Literal, Optional

from . import __version__
from .analysis import BSet, compute_b, is_b_safe, require_cons_free
from .fmt import encode_input, require_decision_interface
from .terms import App, Kind, Rule, Term, Trs, Var, format_term, size, variables

Mode = Literal["dense", "demand"]

_ROOT = ("", ())


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
        return json.dumps(
            {
                "input_size": self.input_size,
                "max_arity": self.max_arity,
                "generations": self.generations,
                "basic_ops": self.basic_ops,
                "bound_value": self.bound_value,
                "version": __version__,
            }
        )


def stats_bound_check(stats: TabulationStats, c: float) -> bool:
    """basic_ops within c times the n^(3k+3) bound."""
    return stats.basic_ops <= c * stats.bound_value


def generations_bound_check(stats: TabulationStats) -> bool:
    """Auxiliary: a fresh fact per generation caps generations by the number
    of table cells, |D| * |B|^(k+1), plus the final unchanged sweep."""
    return stats.generations <= (
        stats.defined_count * stats.b_size ** (stats.max_arity + 1) + 1
    )


@dataclass
class ConfirmedTable:
    b: BSet
    entries: dict[tuple[str, tuple[int, ...]], int]  # value bitmask per key
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


class _Engine:
    def __init__(self, trs: Trs, b: BSet):
        self.trs = trs
        self.b = b
        self.ops = 0
        self.table: dict[tuple[str, tuple[int, ...]], int] = {}
        # per system, not per input: each symbol's rules pruned by the root
        # heads of a key's arguments
        self._pruned: dict[tuple, list[Rule]] = trs.memo.setdefault("candidates", {})
        self._const_idx: dict[int, int] = {}
        self._inst_idx: dict[tuple, int] = {}
        self._term_vars: dict[int, tuple[str, ...]] = {}
        self._candidates: dict[tuple[str, tuple[int, ...]], list[Rule]] = {}

    # -- term machinery ----------------------------------------------------

    def _bind(self, pat: Term, term: Term, env: dict[str, int]) -> bool:
        if isinstance(pat, Var):
            idx = self.b.index.get(term)
            if idx is None:
                return False
            prev = env.get(pat.name)
            if prev is None:
                env[pat.name] = idx
                return True
            return prev == idx
        # identity first; input data carries its own equal Symbol objects
        if isinstance(term, Var) or (pat.head is not term.head and pat.head != term.head):
            return False
        return all(self._bind(p, s, env) for p, s in zip(pat.args, term.args))

    def _match_key(
        self, patterns: tuple[Term, ...], combo: tuple[int, ...]
    ) -> Optional[dict[str, int]]:
        env: dict[str, int] = {}
        for pat, idx in zip(patterns, combo):
            if not self._bind(pat, self.b.items[idx], env):
                return None
        return env

    def _data_index(self, t: Term, env: dict[str, int]) -> int:
        # the caches key on id(t): rhs subterms stay alive inside self.trs
        cached = self._const_idx.get(id(t))
        if cached is not None:
            return cached
        names = self._term_vars.get(id(t))
        if names is None:
            names = tuple(sorted(variables(t)))
            self._term_vars[id(t)] = names
        key = (id(t), *(env[n] for n in names))
        cached = self._inst_idx.get(key)
        if cached is not None:
            return cached

        def instantiate(u: Term) -> Term:
            if isinstance(u, Var):
                return self.b.items[env[u.name]]
            return App(u.head, tuple(instantiate(a) for a in u.args))

        term = instantiate(t)
        idx = self.b.index.get(term)
        if idx is None:
            raise ValueError(
                f"term {format_term(term)} is outside the data universe; "
                "the input is not safe for this run"
            )
        if names:
            self._inst_idx[key] = idx
        else:
            self._const_idx[id(t)] = idx
        return idx

    def eval(
        self,
        t: Term,
        env: dict[str, int],
        memo: dict[int, int],
        reads: Optional[set],
    ) -> int:
        """Bitmask of possible values of t*env against the current table."""
        if isinstance(t, Var):
            return 1 << env[t.name]
        if t.head.kind is Kind.CONSTRUCTOR:
            return 1 << self._data_index(t, env)
        hit = memo.get(id(t))
        if hit is not None:
            return hit
        self.ops += 1  # nf cache miss
        masks = [self.eval(a, env, memo, reads) for a in t.args]
        result = 0
        for combo in itertools.product(*(tuple(_bits(m)) for m in masks)):
            key = (t.head.name, combo)
            self.ops += 1  # table lookup
            if reads is not None:
                reads.add(key)
            result |= self.table.get(key, 0)
        memo[id(t)] = result
        return result

    def _rules_for_key(self, key: tuple[str, tuple[int, ...]]) -> list[Rule]:
        # prune rules whose argument patterns have the wrong root constructor;
        # compiled systems carry hundreds of rules.  The pruned list depends
        # only on the argument heads, so it is kept per system under those,
        # and per engine under the key, whose B indices hash faster
        hit = self._candidates.get(key)
        if hit is None:
            name, combo = key
            heads = tuple(self.b.items[idx].head for idx in combo)
            hit = self._pruned.get((name, heads))
            if hit is None:
                hit = [
                    rule
                    for _, rule in self.trs.by_head.get(name, ())
                    if all(
                        not isinstance(pat, App) or pat.head is h or pat.head == h
                        for pat, h in zip(rule.lhs.args, heads)
                    )
                ]
                self._pruned[(name, heads)] = hit
            self._candidates[key] = hit
        return hit

    def _update_key(
        self, key: tuple[str, tuple[int, ...]], reads: Optional[set]
    ) -> int:
        value = self.table.get(key, 0)
        for rule in self._rules_for_key(key):
            self.ops += 1  # rule-match attempt
            env = self._match_key(rule.lhs.args, combo=key[1])
            if env is not None:
                value |= self.eval(rule.rhs, env, {}, reads)
        return value

    def _commit(self, updates: dict) -> None:
        for key, value in updates.items():
            self.ops += (value ^ self.table.get(key, 0)).bit_count()  # insertions
            self.table[key] = value

    # -- dense mode ---------------------------------------------------------

    def run_dense(self) -> int:
        n = len(self.b)
        sweeps = 0
        while True:
            sweeps += 1
            self.ops += 1  # fixpoint comparison for this sweep
            updates = {}
            for sym in self.trs.defined():
                for combo in itertools.product(range(n), repeat=sym.arity):
                    key = (sym.name, combo)
                    value = self._update_key(key, None)
                    if value != self.table.get(key, 0):
                        updates[key] = value
            if not updates:
                return sweeps
            self._commit(updates)

    # -- demand mode ----------------------------------------------------------

    def run_demand(self, root: Term) -> tuple[int, int]:
        """Saturate only the keys read while evaluating `root`.

        Returns (sweeps, value mask of root).  Each sweep re-evaluates the
        dirty keys against the previous sweep's committed table, so the value
        trajectory matches the dense schedule restricted to this cone.
        """
        dependents: dict[tuple, set] = {}
        scheduled = {_ROOT}
        dirty = {_ROOT}
        root_mask = 0
        sweeps = 0
        while dirty:
            sweeps += 1
            self.ops += 1  # fixpoint comparison for this sweep
            batch = sorted(dirty)
            dirty = set()
            updates: dict = {}
            root_update = None
            for key in batch:
                reads: set = set()
                if key == _ROOT:
                    value = self.eval(root, {}, {}, reads)
                    if value != root_mask:
                        root_update = value
                else:
                    value = self._update_key(key, reads)
                    if value != self.table.get(key, 0):
                        updates[key] = value
                for r in reads:
                    dependents.setdefault(r, set()).add(key)
                    if r not in scheduled:
                        scheduled.add(r)
                        dirty.add(r)
            self._commit(updates)
            for key in updates:
                dirty |= dependents.get(key, set())
            if root_update is not None:
                root_mask = root_update
        return sweeps, root_mask


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
        generations, _ = engine.run_demand(start)
    else:
        raise ValueError(f"unknown tabulation mode {mode!r}")
    defined = trs.defined()
    max_arity = max((s.arity for s in defined), default=0)
    n = size(start)
    stats = TabulationStats(
        input_size=n,
        max_arity=max_arity,
        generations=generations,
        basic_ops=engine.ops,
        bound_value=n ** (3 * max_arity + 3),
        defined_count=len(defined),
        b_size=len(b),
    )
    return ConfirmedTable(
        b=b,
        entries={k: v for k, v in engine.table.items() if v},
        trs=trs,
        stats=stats,
    )


def nf(table: ConfirmedTable, t: Term) -> frozenset[Term]:
    """Possible data values of a ground, B-safe term at the fixpoint."""
    if not is_b_safe(table.b, t):
        raise ValueError(f"term {format_term(t)} is not B-safe for this table")
    engine = _Engine(table.trs, table.b)
    engine.table = table.entries
    mask = engine.eval(t, {}, {}, None)
    return frozenset(table.b.items[i] for i in _bits(mask))


def decide(
    trs: Trs, bits: str, mode: Mode = "dense"
) -> tuple[bool, TabulationStats]:
    """Does start(bit list) evaluate to true, by tabulation?"""
    require_decision_interface(trs)
    start = encode_input(bits)
    table = run_tabulation(trs, start, mode)
    true_term = App(trs.symbol("true"))
    return true_term in nf(table, start), table.stats
