import os
import subprocess
import sys
from collections import deque

import pytest

from consfree.analysis import b_safe_terms, compute_b, is_b_safe
from consfree.engine import (
    Budget,
    Oracle,
    Trace,
    accepts,
    data_results,
    leftmost_trace,
    reachable_data,
    step_cbv,
    step_full,
)
from consfree.fmt import encode_input, parse_term, parse_trs
from consfree.terms import (
    App,
    Kind,
    Symbol,
    apply,
    format_term,
    is_data,
    match,
    positions,
    replace_at,
    subterm_at,
)
from consfree.transforms import bottom_extend, semi_linearize

from conftest import ROOT, load_system

SRC = ROOT / "src"

TINY = parse_trs("(VAR x)(RULES f(x) -> x a -> b)")


def test_step_order_is_deterministic():
    t = parse_term("f(a)", TINY)
    steps = step_full(TINY, t)
    assert [(s.position, s.rule_index) for s in steps] == [((), 0), ((1,), 1)]
    assert [format_term(s.after) for s in steps] == ["a", "f(b)"]
    assert all(s.before is t for s in steps)
    # a symbol of the same name but another arity heads none of the rules
    b = App(TINY.symbol("b"))
    assert step_full(TINY, App(Symbol("f", 2, Kind.DEFINED), (b, b))) == []


def test_step_cbv_requires_data_arguments():
    t = parse_term("f(a)", TINY)
    steps = step_cbv(TINY, t)
    # the root is blocked until the argument is a value
    assert [(s.position, s.rule_index) for s in steps] == [((1,), 1)]
    assert step_cbv(TINY, parse_term("f(b)", TINY))[0].position == ()


def reference(trs, t, cbv):
    # every rule at every pre-order position, in file order, by the generic
    # match and apply: what the compiled plans and the rule index must equal
    out = []
    for pos in positions(t):
        sub = subterm_at(t, pos)
        if not isinstance(sub, App) or sub.head.kind is not Kind.DEFINED:
            continue
        if cbv and not all(is_data(a) for a in sub.args):
            continue
        for i, r in enumerate(trs.rules):
            subst = match(r.lhs, sub)
            if subst is not None:
                out.append((pos, i, replace_at(t, pos, apply(subst, r.rhs))))
    return out


def steps_of(step, trs, t):
    return [(s.position, s.rule_index, s.after) for s in step(trs, t)]


def test_steps_follow_file_order_with_interleaved_heads():
    # rules of f, g and a interleave in the file, and several match one redex
    trs = parse_trs(
        "(VAR x y)(RULES f(x) -> g(x, x) g(x, y) -> x f(b) -> a "
        "g(b, y) -> f(y) a -> b f(x) -> x g(x, b) -> a a -> c)"
    )
    terms = list(b_safe_terms(trs, 6))
    assert len(terms) > 100
    for t in terms:
        for step, cbv in ((step_full, False), (step_cbv, True)):
            assert steps_of(step, trs, t) == reference(trs, t, cbv), format_term(t)
    t = parse_term("g(f(b), a)", trs)
    assert [(s.position, s.rule_index) for s in step_full(trs, t)] == [
        ((), 1), ((1,), 0), ((1,), 2), ((1,), 5), ((2,), 4), ((2,), 7),
    ]


def test_steps_rewrite_below_constructors():
    # f builds a pair around a redex, so terms leave the B-safe shape
    trs = parse_trs("(VAR x)(RULES f(x) -> pair(x, a) a -> b a -> c)")
    terms = list(b_safe_terms(trs, 5))
    terms += [s.after for t in terms for s in step_full(trs, t)]
    assert any(t.head.kind is Kind.CONSTRUCTOR and not is_data(t) for t in terms)
    for t in terms:
        for step, cbv in ((step_full, False), (step_cbv, True)):
            assert steps_of(step, trs, t) == reference(trs, t, cbv), format_term(t)
    t = parse_term("pair(f(a), pair(b, a))", trs)
    assert [(s.position, s.rule_index) for s in step_full(trs, t)] == [
        ((1,), 0), ((1, 1), 1), ((1, 1), 2), ((2, 2), 1), ((2, 2), 2),
    ]


def test_compiled_oracle_equals_match_and_apply(corpus):
    # every corpus system, its semi-linearization and that system's bottom
    # extension, as in criteria 3 and 4
    checked = 0
    for name, trs in corpus.items():
        star = semi_linearize(trs)
        for system in (trs, star, bottom_extend(star)):
            for t in b_safe_terms(system, 5):
                for step, cbv in ((step_full, False), (step_cbv, True)):
                    want = reference(system, t, cbv)
                    assert steps_of(step, system, t) == want, f"{name}: {format_term(t)}"
                    checked += len(want)
    assert checked > 10_000


def test_repeated_lhs_variables_must_bind_equal_terms():
    # the oracle also runs on systems that are not left-linear
    trs = parse_trs(
        "(VAR x)(RULES eq(x, x) -> true eq(s(x), x) -> x eq(x, f(x)) -> x k -> a)"
    )
    same = parse_term("eq(s(a), s(a))", trs)
    assert [s.rule_index for s in step_full(trs, same)] == [0]
    assert format_term(step_full(trs, same)[0].after) == "true"
    differ = parse_term("eq(s(a), a)", trs)
    assert [(s.rule_index, format_term(s.after)) for s in step_full(trs, differ)] == [
        (1, "a"),
    ]
    # the repeated variable's two registers lie at different depths
    nested = parse_term("eq(a, f(a))", trs)
    assert [s.rule_index for s in step_full(trs, nested)] == [2]
    assert step_full(trs, parse_term("eq(a, f(s(a)))", trs)) == []
    for t in (same, differ, nested):
        assert steps_of(step_full, trs, t) == reference(trs, t, False)


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_terms=0)
    with pytest.raises(ValueError):
        Budget(max_term_size=-1)


def test_reachable_data_loop_terminates():
    loop = load_system("loop42")
    r = reachable_data(loop, parse_term("a", loop))
    assert r.results == frozenset()
    assert r.complete and r.truncated_by == "none"


def test_reachable_data_full_vs_cbv():
    loop = load_system("loop42")
    fa = parse_term("f(a)", loop)
    full = reachable_data(loop, fa, "full")
    assert {format_term(t) for t in full.results} == {"b"}
    assert full.complete and full.explored == 2
    cbv = reachable_data(loop, fa, "cbv")
    assert cbv.results == frozenset()
    assert cbv.complete and cbv.explored == 1


def test_step_budget_truncation():
    mem = load_system("membership")
    r = reachable_data(mem, encode_input("0000"), "full", Budget(max_terms=2))
    assert not r.complete
    assert r.truncated_by == "step_budget"
    assert r.results == frozenset()


def test_size_budget_truncation():
    choose = load_system("choose")
    r = reachable_data(
        choose, encode_input("01"), "full", Budget(max_terms=100, max_term_size=3)
    )
    assert not r.complete
    assert r.truncated_by == "size_budget"


def test_nondeterministic_results():
    choose = load_system("choose")
    r = reachable_data(choose, parse_term("coin", choose))
    assert {format_term(t) for t in r.results} == {"true", "false"}


def reachable_by_bfs(trs, start, strategy="full"):
    # the reference the memoized depth-first search must equal: breadth-first
    # from one start, unbudgeted, with a visited set and no memo
    step = step_full if strategy == "full" else step_cbv
    seen = {start}
    queue = deque([start])
    while queue:
        for s in step(trs, queue.popleft()):
            if s.after not in seen:
                seen.add(s.after)
                queue.append(s.after)
    return frozenset(t for t in seen if is_data(t))


def test_data_results_matches_single_searches():
    for name in ("membership", "any0", "dup_first"):
        trs = load_system(name)
        starts = list(b_safe_terms(trs, 4))
        batch = data_results(trs, starts)
        for s in starts[:40]:
            single = reachable_data(trs, s, "full")
            assert single.complete
            assert batch[s] == single.results == reachable_by_bfs(trs, s), (
                f"{name}: {format_term(s)}"
            )


def test_data_results_handles_cycles():
    loop = load_system("loop42")
    starts = [parse_term(s, loop) for s in ("a", "f(a)", "f(b)", "b")]
    out = data_results(loop, starts)
    assert out[starts[0]] == frozenset()
    assert {format_term(t) for t in out[starts[1]]} == {"b"}
    assert {format_term(t) for t in out[starts[2]]} == {"b"}
    # a data start evaluates to itself
    assert out[starts[3]] == frozenset({starts[3]})


# f(a) -> g(a) -> h(a) -> f(a) is one component of the reduction graph; its
# exits are b (from f) and a (from g), and k(a) leads into it
CYCLE = parse_trs(
    "(VAR x)(RULES f(x) -> g(x) g(x) -> h(x) h(x) -> f(x) g(x) -> x "
    "f(a) -> b k(x) -> f(x) k(x) -> c)"
)


def test_data_results_equals_reachable_data_on_cyclic_graphs():
    for trs, max_size in ((load_system("loop42"), 7), (CYCLE, 4)):
        starts = list(b_safe_terms(trs, max_size))
        assert len(starts) >= 14
        singles = [reachable_by_bfs(trs, s) for s in starts]
        # the search order depends on the order of the starts
        for order in (starts, starts[::-1]):
            batch = data_results(trs, order)
            for s, single in zip(starts, singles):
                assert batch[s] == single, format_term(s)
    starts = [parse_term(s, CYCLE) for s in ("k(a)", "h(a)", "g(a)", "f(a)")]
    out = data_results(CYCLE, starts)
    assert [sorted(map(format_term, out[s])) for s in starts] == [
        ["a", "b", "c"], ["a", "b"], ["a", "b"], ["a", "b"],
    ]


BUDGETS = [Budget(n, size) for n in (1, 2, 5, 20) for size in (3, 5)]


def test_cut_searches_only_drop_results(corpus):
    # the budget contract on every small start that is not data: a cut search
    # reaches a subset of the exact results, a complete one all of them, and
    # it says which it is
    cut = 0
    for name, trs in corpus.items():
        starts = [s for s in b_safe_terms(trs, 5) if not is_data(s)]
        for strategy in ("full", "cbv"):
            for s in starts:
                want = reachable_by_bfs(trs, s, strategy)
                for budget in BUDGETS:
                    r = reachable_data(trs, s, strategy, budget)
                    where = (name, strategy, format_term(s), budget)
                    assert r.results <= want, where
                    assert r.results == want or not r.complete, where
                    assert (r.truncated_by != "none") == (not r.complete), where
                    cut += not r.complete
    assert cut > 1000


def test_a_cut_reaches_the_terms_above_it():
    # only c drops a successor, to the size or the step budget; p reaches c,
    # so p is cut too
    trs = parse_trs("(VAR x y z)(RULES p -> c c -> g(a, a, a) g(x, y, z) -> b)")
    p = parse_term("p", trs)
    for budget, why in ((Budget(100, 3), "size_budget"), (Budget(2), "step_budget")):
        r = reachable_data(trs, p, "full", budget)
        assert (r.results, r.complete, r.truncated_by) == (frozenset(), False, why)
    assert {format_term(t) for t in reachable_data(trs, p).results} == {"b"}


def test_a_cut_reaches_every_later_start_through_the_memo():
    # f(a) runs out of its two terms inside the f, g, h component; k(a)
    # later reaches that component through the shared memo
    oracle = Oracle(CYCLE, "full", Budget(max_terms=2))
    starts = [parse_term(s, CYCLE) for s in ("f(a)", "k(a)")]
    (first, first_results, _), (later, later_results, added) = oracle.search(starts)
    assert oracle.cut[first] == oracle.cut[later] == "step_budget"
    assert first_results == frozenset()
    assert later_results <= reachable_by_bfs(CYCLE, later) and added <= 2
    # each search on its own: the later start alone is complete
    assert not reachable_data(CYCLE, first, "full", Budget(max_terms=2)).complete
    assert reachable_data(CYCLE, later).complete


def test_data_results_follows_long_chains_under_default_recursion_limit():
    # its own process, so it runs under the interpreter's default limit
    code = (
        "from consfree.engine import data_results\n"
        "from consfree.fmt import parse_term, parse_trs\n"
        "from consfree.terms import App, format_term\n"
        "trs = parse_trs('(VAR x)(RULES f(s(x)) -> f(x) f(z) -> done)')\n"
        "t = parse_term('z', trs)\n"
        "for _ in range(6000):\n"
        "    t = App(trs.symbol('s'), (t,))\n"
        "start = App(trs.symbol('f'), (t,))\n"
        "print(*map(format_term, data_results(trs, [start])[start]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "done\n"


def test_accepts():
    mem = load_system("membership")
    assert accepts(mem, "00") == "yes"
    assert accepts(mem, "01") == "no"
    choose = load_system("choose")
    assert accepts(choose, "") == "yes"
    # budget too small to settle the answer
    assert accepts(mem, "0000", budget=Budget(max_terms=2)) == "unknown"


def test_leftmost_trace_and_render():
    mem = load_system("membership")
    start = parse_term("start(cons(0, cons(1, nil)))", mem)
    trace = leftmost_trace(mem, start)
    assert trace.render(mem) == (
        "e 0 mem(cons(0, cons(1, nil)))\n"
        "e 2 mem(cons(1, nil))\n"
        "e 3 false"
    )
    terms = trace.terms(mem)
    assert format_term(terms[-1]) == "false"
    assert len(terms) == 4


def test_trace_replay_rejects_wrong_system():
    mem = load_system("membership")
    loop = load_system("loop42")
    trace = leftmost_trace(mem, parse_term("start(nil)", mem))
    with pytest.raises(ValueError, match="does not replay"):
        trace.terms(loop)


def test_leftmost_trace_max_steps():
    loop = load_system("loop42")
    trace = leftmost_trace(loop, parse_term("a", loop), max_steps=7)
    assert len(trace.steps) == 7
    assert trace.render(loop).count("\n") == 6


def test_empty_trace_on_normal_form():
    mem = load_system("membership")
    trace = leftmost_trace(mem, parse_term("nil", mem))
    assert trace.steps == ()
    assert trace.render(mem) == ""


def test_reductions_stay_b_safe():
    """Spot check of the safety invariant: steps never leave the universe."""
    for name in ("membership", "choose", "dup_first", "mix"):
        trs = load_system(name)
        for start in b_safe_terms(trs, 4):
            b = compute_b(trs, start)
            frontier = [start]
            for _ in range(3):
                nxt = []
                for t in frontier:
                    for step in step_full(trs, t):
                        assert is_b_safe(b, step.after), (
                            f"{name}: {format_term(start)} -> {format_term(step.after)}"
                        )
                        nxt.append(step.after)
                frontier = nxt
