import hashlib
import itertools
import json
import sys

from consfree import tabulation
from consfree.analysis import NotConsFreeError, b_safe_terms
from consfree.engine import reachable_data
from consfree.fmt import encode_input, parse_term, parse_trs, print_trs
from consfree.tabulation import (
    decide,
    generations_bound_check,
    nf,
    run_tabulation,
    stats_bound_check,
)
from consfree.terms import App, Kind, format_term
from consfree.tm import compile_tm

import pytest

from conftest import CORPUS_NAMES, load_machine, load_system


def test_loop42_table_by_hand():
    """Small enough to check against a hand computation.

    The universe is {b}; f(b) confirms b in the first sweep, a never confirms
    anything, and the second sweep changes nothing and stops the run.
    """
    loop = load_system("loop42")
    fa = parse_term("f(a)", loop)
    table = run_tabulation(loop, fa, "dense")
    assert [format_term(t) for t in table.items] == ["b"]
    assert table.stats.generations == 2
    assert table.dump() == "f(b) => b"
    assert nf(table, fa) == frozenset()
    assert {format_term(t) for t in nf(table, parse_term("f(b)", loop))} == {"b"}


def test_nf_rejects_unsafe_terms():
    from consfree.terms import Kind, Symbol

    loop = load_system("loop42")
    table = run_tabulation(loop, parse_term("f(a)", loop))
    # f applied to a constant from outside loop42's data universe
    foreign = App(Symbol("c", 0, Kind.CONSTRUCTOR))
    with pytest.raises(ValueError, match="not B-safe"):
        nf(table, App(loop.symbol("f"), (foreign,)))


def test_run_tabulation_rejects_unsafe_start():
    mem = load_system("membership")
    bad = parse_term("cons(mem(nil), nil)", mem)
    with pytest.raises(ValueError, match="not safe"):
        run_tabulation(mem, bad)


def test_run_tabulation_requires_cons_free():
    trs = parse_trs("(VAR x)(RULES f(x) -> cons(x, x) g(nil) -> nil)")
    for _ in range(2):  # the verdict is kept per system; it still raises
        with pytest.raises(NotConsFreeError):
            run_tabulation(trs, parse_term("f(nil)", trs))


def test_run_tabulation_rejects_unknown_mode():
    loop = load_system("loop42")
    with pytest.raises(ValueError, match="unknown tabulation mode 'x'"):
        run_tabulation(loop, parse_term("f(a)", loop), mode="x")


def test_repeat_runs_on_one_system_are_identical():
    # what is kept per system must not change a later run on the same object:
    # each run on `warm` must equal a run on a freshly built copy
    for make, mode in (
        (lambda: load_system("membership"), "dense"),
        (lambda: load_system("mix"), "demand"),
        (lambda: compile_tm(load_machine("parity")).trs, "demand"),
    ):
        warm = make()
        for bits in ("01", "0110", "", "01"):
            start = encode_input(bits)
            want = run_tabulation(make(), start, mode)
            got = run_tabulation(warm, start, mode)
            assert got.stats == want.stats, (mode, bits)
            assert got.items == want.items, (mode, bits)
            assert got.dump() == want.dump(), (mode, bits)
            assert decide(warm, bits, mode) == decide(make(), bits, mode)


def test_membership_decide_dense_frozen():
    mem = load_system("membership")
    yes, stats = decide(mem, "0000", mode="dense")
    assert yes is True
    assert stats.input_size == 10
    assert stats.max_arity == 1
    assert stats.generations == 7
    assert stats.basic_ops == 304
    assert stats.bound_value == 10**6
    assert stats.b_size == 8

    no, stats2 = decide(mem, "0100", mode="dense")
    assert no is False
    assert (stats2.generations, stats2.basic_ops) == (5, 225)

    empty, stats3 = decide(mem, "", mode="dense")
    assert empty is True
    assert (stats3.input_size, stats3.generations, stats3.basic_ops) == (2, 3, 35)


# (verdict, generations, basic_ops) of dense decides on 0110 and 01101001
DENSE_FROZEN = {
    "alternating": ((False, 3, 83), (False, 5, 269)),
    "any0": ((True, 5, 215), (True, 5, 343)),
    "bools": ((True, 3, 172), (True, 3, 300)),
    "choose": ((True, 7, 402), (True, 11, 995)),
    "diag": ((True, 7, 751), (True, 11, 4083)),
    "dup_first": ((False, 4, 511), (False, 4, 1387)),
    "last1": ((False, 7, 235), (True, 11, 679)),
    "membership": ((False, 4, 174), (False, 5, 343)),
    "mix": ((False, 4, 1084), (False, 4, 2696)),
    "pairs": ((False, 3, 83), (False, 3, 143)),
    "parity": ((True, 7, 449), (True, 11, 1193)),
}


@pytest.mark.parametrize("name", sorted(DENSE_FROZEN))
def test_corpus_decide_dense_frozen(corpus, name):
    # every sweep counts its rule-match attempts, not only the first
    got = []
    for bits in ("0110", "01101001"):
        yes, stats = decide(corpus[name], bits, mode="dense")
        got.append((yes, stats.generations, stats.basic_ops))
    assert tuple(got) == DENSE_FROZEN[name]


def test_stats_json_fields():
    mem = load_system("membership")
    _, stats = decide(mem, "00")
    payload = json.loads(stats.to_json())
    assert set(payload) == {
        "input_size",
        "max_arity",
        "generations",
        "basic_ops",
        "bound_value",
        "version",
    }
    assert payload["basic_ops"] == stats.basic_ops


def test_bound_checks():
    mem = load_system("membership")
    _, stats = decide(mem, "0000")
    assert stats_bound_check(stats, 1.0)
    assert not stats_bound_check(stats, 1e-6)
    assert generations_bound_check(stats)


def test_dense_generation_count_scales_linearly():
    # one cell of the list is confirmed per sweep, plus the start, the
    # verdicts, and the final unchanged sweep
    mem = load_system("membership")
    for m in (1, 2, 3, 4, 5, 6):
        _, stats = decide(mem, "0" * m, mode="dense")
        assert stats.generations == m + 3, m


def test_demand_agrees_with_dense():
    mem = load_system("membership")
    for bits in ("", "0", "1", "0000", "0100", "0011"):
        dense_yes, _ = decide(mem, bits, mode="dense")
        demand_yes, _ = decide(mem, bits, mode="demand")
        assert dense_yes == demand_yes, bits


def test_demand_confirms_fewer_keys():
    mem = load_system("membership")
    start = encode_input("0000")
    dense = run_tabulation(mem, start, "dense")
    demand = run_tabulation(mem, start, "demand")
    assert set(demand.entries) <= set(dense.entries)
    for key, mask in demand.entries.items():
        assert dense.entries[key] == mask, key
    # the verdict key itself must be present and agree
    assert nf(demand, start) == nf(dense, start)
    assert demand.stats.basic_ops <= dense.stats.basic_ops


def test_yes_set_lookup():
    mem = load_system("membership")
    table = run_tabulation(mem, encode_input("0"))
    call = parse_term("start(cons(0, nil))", mem)
    assert {format_term(t) for t in nf(table, call)} == {"true"}
    assert "start(cons(0, nil)) => true" in table.dump().splitlines()


def test_table_matches_oracle_everywhere():
    """Every table cell equals the call-by-value oracle on that call."""
    mem = load_system("membership")
    table = run_tabulation(mem, encode_input("10"))
    for sym in mem.defined():
        for combo in itertools.product(table.items, repeat=sym.arity):
            call = App(sym, combo)
            oracle = reachable_data(mem, call, "cbv")
            assert oracle.complete
            assert nf(table, call) == oracle.results, format_term(call)


def test_nondeterminism_accumulates_both_values():
    choose = load_system("choose")
    table = run_tabulation(choose, encode_input(""))
    coin = parse_term("coin", choose)
    assert {format_term(t) for t in nf(table, coin)} == {"true", "false"}


def test_demand_counts_frozen_on_shared_rhs_nodes():
    # compiled machines share right-hand-side nodes by identity, and a shared
    # node is evaluated and counted once per rule firing; the reparsed copy
    # shares nothing, so it counts every occurrence.  The machines' read
    # graphs are acyclic, so demand mode takes one generation.
    parity = compile_tm(load_machine("parity")).trs
    cases = (
        (parity, (False, 1, 2145)),
        (parse_trs(print_trs(parity)), (False, 1, 3729)),
        (compile_tm(load_machine("square")).trs, (True, 1, 6121)),
    )
    for trs, want in cases:
        yes, stats = decide(trs, "0110", "demand")
        assert (yes, stats.generations, stats.basic_ops) == want


def matched_run(monkeypatch, trs, start, mode="demand"):
    """A table and the keys matched while filling it, in order; demand mode
    matches each key it evaluates."""
    matched = []
    original = tabulation.ConfirmedTable._matches

    def counting(self, key):
        matched.append(key)
        return original(self, key)

    with monkeypatch.context() as patch:
        patch.setattr(tabulation.ConfirmedTable, "_matches", counting)
        table = run_tabulation(trs, start, mode)
    return table, matched


def test_demand_evaluates_each_key_once_on_machines(monkeypatch):
    # the machines recurse on t-1, so their read graphs are acyclic and each
    # demanded key is evaluated exactly once
    for name in ("parity", "contains11", "square"):
        trs = compile_tm(load_machine(name)).trs
        for n in range(5):
            for bits in map("".join, itertools.product("01", repeat=n)):
                _, evaluated = matched_run(monkeypatch, trs, encode_input(bits))
                assert evaluated, (name, bits)
                assert len(evaluated) == len(set(evaluated)), (name, bits)


@pytest.mark.parametrize("name, bits", [("membership", "0000"), ("diag", "0110")])
def test_dense_matches_each_key_once(monkeypatch, name, bits):
    # a key's matched rules depend only on the key and B, so a dense run
    # lists them once, rule by rule, however many sweeps it makes: each key
    # some rule matches, once, with the bodies `_matches` finds for it in
    # rule order.  No key is matched on its own
    trs = load_system(name)
    start = encode_input(bits)
    listings = []
    listing = tabulation.ConfirmedTable._matched_keys
    monkeypatch.setattr(
        tabulation.ConfirmedTable, "_matched_keys",
        lambda self: listings.append(listing(self)) or listings[-1],
    )
    table, matched = matched_run(monkeypatch, trs, start, "dense")
    assert table.stats.generations > 1 and matched == []
    [(listed, _)] = listings
    fresh = tabulation.ConfirmedTable(trs, start)
    keys = [
        (sym, combo)
        for sym in trs.defined()
        for combo in itertools.product(range(len(fresh.items)), repeat=sym.arity)
    ]
    want = {key: bodies for key in keys if (bodies := fresh._matches(key))}
    assert 0 < len(want) < len(keys)
    assert listed == want


def test_dense_attempts_equal_brute_force(corpus):
    # the listing charges each rule the product of its arguments' candidate
    # counts; the reference procedure tries, on every key, the rules that
    # fit its arguments' heads.  B is the data of the input and the rules
    systems = {name: parse_trs(CYCLIC[name]) for name in sorted(CYCLIC)} | corpus
    for name, trs in systems.items():
        for bits in ("", "0110", "01101001"):
            table = tabulation.ConfirmedTable(trs, encode_input(bits))
            heads, n = table.heads, len(table.items)
            want = sum(
                len(trs.index[(sym, tuple(heads[i] for i in combo))])
                for sym in trs.defined()
                for combo in itertools.product(range(n), repeat=sym.arity)
            )
            assert table._matched_keys()[1] == want, (name, bits)


def dense_sweeps(monkeypatch, trs, start):
    """A dense table and its sweeps: per sweep, the keys evaluated with the
    keys each one read, then the keys whose values the sweep changed."""
    keys, sweeps = {}, [([], set())]
    listing, evaluate, store = (
        tabulation.ConfirmedTable._matched_keys,
        tabulation.ConfirmedTable._evaluate,
        tabulation.ConfirmedTable._set,
    )

    def listed(self):
        matched, attempts = listing(self)
        keys.update({id(bodies): key for key, bodies in matched.items()})
        return matched, attempts

    def evaluating(self, bodies, value, done):
        if sweeps[-1][1]:  # the previous sweep's updates are stored
            sweeps.append(([], set()))
        reads = set()
        sweeps[-1][0].append((keys[id(bodies)], reads))
        gen = evaluate(self, bodies, value, done)
        while True:
            try:
                read = next(gen)
            except StopIteration as stop:
                return stop.value
            reads.add(read)
            yield read

    def setting(self, key, value):
        sweeps[-1][1].add(key)
        return store(self, key, value)

    with monkeypatch.context() as patch:
        patch.setattr(tabulation.ConfirmedTable, "_matched_keys", listed)
        patch.setattr(tabulation.ConfirmedTable, "_evaluate", evaluating)
        patch.setattr(tabulation.ConfirmedTable, "_set", setting)
        table = run_tabulation(trs, start, "dense")
    if sweeps[-1][1]:  # the last sweep evaluated no key: none read a change
        sweeps.append(([], set()))
    return table, set(keys.values()), sweeps


@pytest.mark.parametrize("name, bits", [("membership", "0000"), ("diag", "0110")])
def test_dense_sweeps_evaluate_only_readers_of_changed_keys(monkeypatch, name, bits):
    # a key none of whose reads changed would get the same value and count
    # the same lookups again, so a later sweep skips it
    trs = load_system(name)
    table, matched, sweeps = dense_sweeps(monkeypatch, trs, encode_input(bits))
    assert len(sweeps) == table.stats.generations > 2
    first, _ = sweeps[0]
    assert len(first) == len(matched) and set(dict(first)) == matched
    last_reads = dict(first)
    for (_, changed), (evaluated, _) in itertools.pairwise(sweeps):
        keys = [key for key, _ in evaluated]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {k for k, reads in last_reads.items() if reads & changed}
        last_reads.update(evaluated)
    assert sum(len(evaluated) for evaluated, _ in sweeps) < len(sweeps) * len(matched)


# systems whose read graphs have cycles, each with B items
CYCLIC = {
    # f(a) reads itself
    "self_read": "(VAR x)(RULES f(x) -> f(x) f(x) -> x f(a) -> b)",
    # f(a) and g(a) read each other
    "two_keys": "(VAR x)(RULES f(x) -> g(x) g(x) -> f(x) g(a) -> b)",
    # r(a) -> r(b) -> r(c) -> r(a): each value flows one step per pass
    "growing": "(VAR x)(RULES r(x) -> x r(x) -> r(s(x)) "
    "s(a) -> b s(b) -> c s(c) -> a)",
    # f(a) reads k(b) only once its value holds b; k(b) and j(b) join in a
    # pass that changes no old member's value; j(b) gets its value only in
    # a later pass
    "gains_member": "(VAR x y)(RULES f(a) -> b f(x) -> k(f(x)) k(y) -> f(a) "
    "k(b) -> j(b) j(y) -> w(k(y)) w(b) -> c)",
    # q(a)'s component reaches the open p(a) only in its second pass
    "reaches_outer": "(VAR x)(RULES p(x) -> q(x) q(a) -> b q(x) -> m(q(x)) "
    "m(b) -> c m(c) -> p(a))",
    # r(a) -> r(b) -> r(c) -> r(d) -> r(a): one cycle of four keys
    "ring4": "(VAR x)(RULES r(x) -> x r(a) -> r(b) r(b) -> r(c) r(c) -> r(d) "
    "r(d) -> r(a))",
    # f and g read each other on every argument, and f(x) also through h;
    # h(h(f(a), a), b) takes 3 generations
    "mutual": "(VAR x y)(RULES f(x) -> g(x) g(x) -> f(x) f(a) -> b g(b) -> c "
    "f(x) -> h(x, x) h(x, y) -> g(y))",
    # p(x, y) and q(y, x) read each other with their arguments swapped
    "pair_swap": "(VAR x y)(RULES p(x, y) -> q(y, x) q(x, y) -> p(x, y) "
    "p(a, b) -> a q(b, a) -> b p(x, y) -> x)",
}


@pytest.mark.parametrize("name", sorted(CYCLIC))
def test_demand_equals_dense_on_cyclic_read_graphs(monkeypatch, name):
    trs = parse_trs(CYCLIC[name])
    starts = [t for t in b_safe_terms(trs, 6) if t.head.kind is Kind.DEFINED]
    assert starts
    for start in starts:
        dense = run_tabulation(trs, start, "dense")
        demand, evaluated = matched_run(monkeypatch, trs, start)
        where = format_term(start)
        assert demand.items == dense.items, where
        for key in evaluated:
            assert demand.entries.get(key, 0) == dense.entries.get(key, 0), where
        assert set(demand.entries) <= set(evaluated), where
        assert nf(demand, start) == nf(dense, start), where
        assert generations_bound_check(demand.stats), where


def test_demand_counts_frozen_on_a_cyclic_read_graph():
    # r(a) -> r(b) -> r(c) -> r(a): round 1 gives r(a) all three values but
    # r(b) and r(c), read before r(a) was done, only part of them; round 2
    # completes them and round 3 changes nothing.  Generations are 1 plus
    # the repeat rounds that set a new fact; each repeat round adds one
    # fixpoint comparison to basic_ops.
    trs = parse_trs(CYCLIC["growing"])
    stats = run_tabulation(trs, parse_term("r(a)", trs), "demand").stats
    assert (stats.generations, stats.basic_ops) == (2, 83)


# sha256 of every record of `test_demand_outcomes_are_pinned`; it changes only
# if a demand run counts, fills, reads or answers something differently
DEMAND_DIGEST = "6a1c3f0acb993ec52780296fb7f18d5fb7209c9ce9ded85cf01c6bfdbafcd876"


def test_demand_outcomes_are_pinned(corpus):
    # every defined-rooted B-safe start up to 5 nodes of each cyclic system
    # and each corpus system, and the compiled machines on every input up
    # to length 4.  A record is the system, generations, basic_ops, the
    # cone's size, the start with its sorted values, and the table.
    def record(name, start, table):
        stats = table.stats
        values = " ".join(sorted(map(format_term, nf(table, start))))
        return (f"{name} {stats.generations} {stats.basic_ops} {len(table.cone)} "
                f"{format_term(start)} => {values}\n{table.dump()}")

    systems = [(name, parse_trs(CYCLIC[name])) for name in sorted(CYCLIC)]
    systems += [(name, corpus[name]) for name in CORPUS_NAMES]
    records = [
        record(name, start, run_tabulation(trs, start, "demand"))
        for name, trs in systems
        for start in b_safe_terms(trs, 5)
        if start.head.kind is Kind.DEFINED
    ]
    for name in ("contains11", "parity", "square"):
        trs = compile_tm(load_machine(name)).trs
        for n in range(5):
            for bits in map("".join, itertools.product("01", repeat=n)):
                start = encode_input(bits)
                records.append(record(name, start, run_tabulation(trs, start, "demand")))
    assert len(records) == 15_815
    assert sum(r.split()[1] != "1" for r in records) == 1_177
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert digest == DEMAND_DIGEST


# sha256 of every record of `test_dense_outcomes_are_pinned`; it changes only
# if a dense run counts, fills or answers something differently
DENSE_DIGEST = "45cfdb7d1bdb05036aaa7d44a27a034c5b30c0ce8ccf9bc2f049eb2ac0945343"

# inputs of lengths 8 to 32, where dense tables have the most keys
LONG_INPUTS = ("01101001", "0110100110010110", "0" * 16, "1" * 16, "01" * 16, "0" * 32)


def test_dense_outcomes_are_pinned(corpus):
    # every defined-rooted B-safe start up to 5 nodes of each cyclic system
    # and each corpus system, and the corpus decision systems on every input
    # up to length 6 and on the long inputs.  A record is the system,
    # generations, basic_ops, the start with its sorted values, and the table.
    def record(name, trs, start):
        table = run_tabulation(trs, start, "dense")
        stats = table.stats
        values = " ".join(sorted(map(format_term, nf(table, start))))
        return (f"{name} {stats.generations} {stats.basic_ops} "
                f"{format_term(start)} => {values}\n{table.dump()}")

    systems = [(name, parse_trs(CYCLIC[name])) for name in sorted(CYCLIC)]
    systems += [(name, corpus[name]) for name in CORPUS_NAMES]
    records = [
        record(name, trs, start)
        for name, trs in systems
        for start in b_safe_terms(trs, 5)
        if start.head.kind is Kind.DEFINED
    ]
    assert len(records) == 15_722
    inputs = [
        "".join(bits) for n in range(7) for bits in itertools.product("01", repeat=n)
    ]
    inputs += LONG_INPUTS
    for name, trs in systems:
        if "start" in trs.by_name:
            records += [record(name, trs, encode_input(bits)) for bits in inputs]
    assert len(records) == 15_722 + 11 * 133
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert digest == DENSE_DIGEST


def test_demand_rounds_share_nothing(monkeypatch):
    # a round keeps only the table from the round before: each of the 3
    # rounds from r(a) matches every one of the 6 keys of its cone again
    trs = parse_trs(CYCLIC["growing"])
    table, matched = matched_run(monkeypatch, trs, parse_term("r(a)", trs))
    assert len(table.cone) == 6 and set(matched) == table.cone
    assert len(matched) == 18
    assert all(matched.count(key) == 3 for key in table.cone)
    assert (table.stats.generations, table.stats.basic_ops) == (2, 83)


def test_fill_builds_no_terms(monkeypatch):
    machine = compile_tm(load_machine("contains11")).trs
    mem = load_system("membership")
    runs = [(machine, encode_input("0110"), "demand"), (mem, encode_input("0000"), "dense")]
    built = []
    original = App.__init__

    def counting(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(App, "__init__", counting)
    for trs, start, mode in runs:
        table = run_tabulation(trs, start, mode)
        assert nf(table, start)
    assert built == []



def test_single_valued_cones_take_no_product(monkeypatch):
    # the machines are deterministic, so every value on their cones is one
    # item and each node is one picked key; `choose` has values of several
    # items, so its fill still takes the product of the slots' values.  Only
    # `_evaluate`'s products count, not those that list a dense table's keys
    product = itertools.product
    evaluator = tabulation.ConfirmedTable._evaluate.__code__
    calls = []

    def counting(*values, **repeat):
        if sys._getframe(1).f_code is evaluator:
            calls.append(values)
        return product(*values, **repeat)

    def products(trs, mode):
        calls.clear()
        start = encode_input("0110")
        assert nf(run_tabulation(trs, start, mode), start)
        return len(calls)

    monkeypatch.setattr(tabulation.itertools, "product", counting)
    assert products(compile_tm(load_machine("contains11")).trs, "demand") == 0
    assert products(load_system("choose"), "dense") > 0

def test_demand_nf_reads_its_cone_exactly(corpus):
    # a demand table answers for every key its last round evaluated, with
    # the dense value, and refuses every other key rather than read it empty
    for name, trs in corpus.items():
        if "start" not in trs.by_name:
            continue
        for n in range(5):
            for bits in map("".join, itertools.product("01", repeat=n)):
                start = encode_input(bits)
                dense = run_tabulation(trs, start, "dense")
                demand = run_tabulation(trs, start, "demand")
                assert dense.cone is None and demand.cone, (name, bits)
                for sym in trs.defined():
                    for combo in itertools.product(
                        range(len(demand.items)), repeat=sym.arity
                    ):
                        call = App(sym, tuple(demand.items[i] for i in combo))
                        if (sym, combo) in demand.cone:
                            want = nf(dense, call)
                            assert nf(demand, call) == want, (name, bits, call)
                        else:
                            with pytest.raises(ValueError, match="did not evaluate"):
                                nf(demand, call)
                assert nf(demand, start) == nf(dense, start), (name, bits)
    mem = corpus["membership"]
    table = run_tabulation(mem, encode_input("01"), "demand")
    with pytest.raises(ValueError, match=r"reads mem\(nil\),"):
        nf(table, parse_term("mem(nil)", mem))


def test_decide_sets_up_one_table_per_call():
    # nf evaluates on the table the run filled, so a decide sets up exactly
    # one table object; any class of this module set up per call shows here
    mem = load_system("membership")
    decide(mem, "0")  # the per-system rule plans are built once, before
    for mode in ("dense", "demand"):
        made = []

        def profile(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code.co_name == "__init__"
                    and code.co_filename == tabulation.__file__):
                made.append(type(frame.f_locals["self"]).__name__)

        sys.setprofile(profile)
        try:
            decide(mem, "0110", mode)
        finally:
            sys.setprofile(None)
        assert made == ["ConfirmedTable"], mode
