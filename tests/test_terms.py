import copy
import os
import pickle
import subprocess
import sys

import pytest

from consfree.analysis import b_safe_terms
from consfree.fmt import parse_trs
from consfree.terms import (
    App,
    Kind,
    Rule,
    Symbol,
    Trs,
    Var,
    apply,
    canonical_rule,
    compile_rhs,
    format_term,
    head_tests,
    is_constructor_term,
    is_data,
    match,
    positions,
    replace_at,
    rule_index,
    same_rules,
    size,
    subterm_at,
    subterms,
    variables,
)

from conftest import ROOT

NIL = Symbol("nil", 0, Kind.CONSTRUCTOR)
ZERO = Symbol("0", 0, Kind.CONSTRUCTOR)
ONE = Symbol("1", 0, Kind.CONSTRUCTOR)
CONS = Symbol("cons", 2, Kind.CONSTRUCTOR)
F = Symbol("f", 1, Kind.DEFINED)
G = Symbol("g", 2, Kind.DEFINED)


def lst(*bits):
    acc = App(NIL)
    for b in reversed(bits):
        acc = App(CONS, (App(ONE if b else ZERO), acc))
    return acc


def test_app_checks_arity():
    with pytest.raises(ValueError):
        App(CONS, (App(NIL),))
    with pytest.raises(ValueError):
        App(NIL, (App(NIL),))


def test_format_term():
    assert format_term(App(NIL)) == "nil"
    assert format_term(Var("xs")) == "xs"
    assert format_term(App(CONS, (App(ZERO), Var("xs")))) == "cons(0, xs)"


def test_size_and_variables():
    t = App(G, (App(F, (Var("x"),)), App(CONS, (Var("x"), Var("ys")))))
    assert size(t) == 6
    assert variables(t) == {"x", "ys"}
    assert variables(App(NIL)) == set()


def test_subterms_counts_occurrences():
    t = App(G, (App(NIL), App(NIL)))
    subs = subterms(t)
    assert len(subs) == size(t) == 3
    assert subs[0] is t
    assert subs.count(App(NIL)) == 2


def test_positions_preorder():
    t = App(G, (App(F, (App(NIL),)), App(ZERO)))
    assert positions(t) == [(), (1,), (1, 1), (2,)]
    assert subterm_at(t, (1, 1)) == App(NIL)
    assert subterm_at(t, ()) is t


def test_subterm_at_bad_position():
    with pytest.raises(IndexError):
        subterm_at(App(NIL), (1,))
    with pytest.raises(IndexError):
        subterm_at(App(F, (Var("x"),)), (2,))


def test_replace_at():
    t = App(G, (App(NIL), App(ZERO)))
    assert replace_at(t, (2,), App(ONE)) == App(G, (App(NIL), App(ONE)))
    assert replace_at(t, (), App(NIL)) == App(NIL)
    with pytest.raises(IndexError):
        replace_at(t, (3,), App(NIL))


def test_is_data_and_constructor_term():
    assert is_data(lst(0, 1))
    assert not is_data(Var("x"))
    assert not is_data(App(F, (App(NIL),)))
    assert not is_data(App(CONS, (App(F, (App(NIL),)), App(NIL))))
    # constructor terms may contain variables, just no defined symbols
    assert is_constructor_term(App(CONS, (Var("x"), Var("xs"))))
    assert not is_constructor_term(App(CONS, (App(F, (Var("x"),)), App(NIL))))


def test_match_basic():
    pat = App(CONS, (Var("x"), Var("xs")))
    subst = match(pat, lst(1, 0))
    assert subst == {"x": App(ONE), "xs": lst(0)}
    assert match(pat, App(NIL)) is None
    assert match(App(NIL), lst(0)) is None


def test_match_nonlinear_pattern():
    pat = App(G, (Var("x"), Var("x")))
    assert match(pat, App(G, (App(NIL), App(NIL)))) == {"x": App(NIL)}
    assert match(pat, App(G, (App(NIL), App(ZERO)))) is None


def test_match_respects_arity_distinct_symbols():
    f2 = Symbol("f", 2, Kind.DEFINED)
    assert match(App(F, (Var("x"),)), App(f2, (App(NIL), App(NIL)))) is None


def test_apply_roundtrip():
    pat = App(CONS, (Var("x"), Var("xs")))
    subject = lst(0, 1, 1)
    subst = match(pat, subject)
    assert apply(subst, pat) == subject
    # unbound variables survive untouched
    assert apply({}, Var("y")) == Var("y")
    # data is shared, not copied
    assert apply({"x": subject}, App(F, (Var("x"),))).args[0] is subject


def test_apply_and_same_rules_on_a_deep_rhs():
    # apply is iterative: a right-hand side nested 2000 deep meets no
    # recursion limit, nor does same_rules, which canonicalizes through it
    deep = parse_trs(f"(VAR x)(RULES f(x) -> {'g(' * 2000}x{')' * 2000} g(x) -> x)")
    assert same_rules(deep, deep)
    rhs = apply({"x": lst(1)}, deep.rules[0].rhs)
    assert size(rhs) == 2000 + size(lst(1))
    assert subterm_at(rhs, (1,) * 2000) is not None


def test_equality_of_deep_terms_under_default_recursion_limit():
    # its own process, so it runs under the interpreter's default limit; the
    # terms are built apart, so == cannot stop at a shared subterm
    code = (
        "from consfree.terms import App, Kind, Symbol, Var\n"
        "g = Symbol('g', 1, Kind.DEFINED)\n"
        "def deep(leaf):\n"
        "    for _ in range(2000):\n"
        "        leaf = App(g, (leaf,))\n"
        "    return leaf\n"
        "a, b = deep(Var('x')), deep(Var('x'))\n"
        "print(a is b, a == b, a != b, a == deep(Var('y')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True False False\n"


def test_rule_validation():
    with pytest.raises(ValueError, match="variable left-hand side"):
        Trs((Rule(Var("x"), App(NIL)),))
    with pytest.raises(ValueError, match="not bound on its left-hand side: y"):
        Trs((Rule(App(F, (Var("x"),)), Var("y")),))
    r = Rule(App(F, (Var("x"),)), Var("x"))
    assert str(r) == "f(x) -> x"


def test_trs_rejects_constructor_lhs():
    c = Symbol("c", 1, Kind.CONSTRUCTOR)
    with pytest.raises(ValueError, match="rewrites constructor"):
        Trs((Rule(App(c, (Var("x"),)), App(NIL)),))


def test_trs_infers_kinds():
    rules = (
        Rule(App(F, (App(NIL),)), App(NIL)),
        Rule(App(G, (Var("x"), Var("y"))), Var("x")),
    )
    trs = Trs(rules)
    assert all(trs.rules[i] is rules[i] for i in range(len(rules)))
    assert {s.name for s in trs.defined()} == {"f", "g"}
    assert {s.name for s in trs.constructors()} == {"nil"}
    assert trs.symbol("f").kind is Kind.DEFINED
    with pytest.raises(KeyError):
        trs.symbol("missing")


def test_trs_extra_and_conflicts():
    h = Symbol("h", 1, Kind.DEFINED)
    trs = Trs((Rule(App(F, (App(NIL),)), App(NIL)),), extra=(h,))
    assert trs.symbol("h").kind is Kind.DEFINED
    assert h not in trs.by_head
    bad = (
        Rule(App(F, (App(NIL),)), App(NIL)),
        Rule(App(Symbol("f", 2, Kind.DEFINED), (Var("x"), Var("y"))), Var("x")),
    )
    with pytest.raises(ValueError, match="inconsistent uses"):
        Trs(bad)
    # an extra symbol that conflicts with a rule's
    with pytest.raises(ValueError, match="inconsistent uses of symbol nil"):
        Trs(bad[:1], extra=(Symbol("nil", 0, Kind.DEFINED),))


def test_rules_for():
    rules = (
        Rule(App(F, (App(NIL),)), App(NIL)),
        Rule(App(G, (Var("x"), Var("y"))), Var("y")),
        Rule(App(F, (Var("x"),)), Var("x")),
    )
    trs = Trs(rules)
    indexed = trs.by_head[trs.symbol("f")]
    assert [i for i, _ in indexed] == [0, 2]


def test_rule_index_fits_argument_heads():
    h = Symbol("h", 2, Kind.DEFINED)
    rules = (
        Rule(App(h, (App(NIL), Var("x"))), Var("x")),
        Rule(App(F, (Var("x"),)), Var("x")),
        Rule(App(h, (Var("x"), App(CONS, (Var("y"), Var("z"))))), Var("y")),
        Rule(App(h, (Var("x"), Var("y"))), Var("x")),
        Rule(App(h, (App(CONS, (Var("x"), Var("y"))), App(NIL))), Var("y")),
    )
    trs = Trs(rules)
    index = rule_index(trs)
    assert rule_index(trs) is index  # memoized per system
    assert index[(h, (NIL, CONS))] == (0, 2, 3)
    assert index[(h, (NIL, NIL))] == (0, 3)
    assert index[(h, (CONS, NIL))] == (3, 4)
    assert index[(h, (ZERO, ZERO))] == (3,)
    assert index[(h, (None, CONS))] == (2, 3)  # a variable fits only a variable
    assert index[(F, (ZERO,))] == (1,)
    # a symbol of the same name but another arity heads none of the rules
    assert index[(Symbol("h", 1, Kind.DEFINED), (NIL,))] == ()


def test_head_tests_walk_child_paths():
    lhs = App(G, (App(CONS, (Var("x"), App(CONS, (Var("y"), Var("z"))))), Var("w")))
    tests, pats = head_tests(lhs)
    # registers 0, 1 are the arguments; register 0's test adds 2, 3; 3's adds 4, 5
    assert tests == ((0, CONS), (3, CONS))
    assert pats == [*lhs.args, Var("x"), lhs.args[0].args[1], Var("y"), Var("z")]


def test_compile_rhs():
    x = Var("x")
    shared = App(F, (x,))
    t = App(G, (shared, App(G, (shared, App(CONS, (x, App(NIL)))))))
    seen = []

    def leaf(u):
        seen.append(u)
        return None if isinstance(u, App) and u.head.kind is Kind.DEFINED else len(seen)

    nodes, top = compile_rhs(t, leaf)
    # leaf sees each distinct object once, in pre-order; the second `shared`
    # and the second `x` (one object) are not asked again
    assert seen == [t, shared, x, t.args[1], t.args[1].args[1]]
    # post-order: f(x) first and once, then the inner g, then the root
    assert nodes == [(F, (3,)), (G, (~0, 5)), (G, (~0, ~1))]
    assert top == ~2
    assert compile_rhs(x, lambda u: 7) == ([], 7)
    # a 2000-deep term, in its own process, under the default recursion limit
    code = (
        "from consfree.terms import App, Kind, Symbol, Var, compile_rhs\n"
        "g = Symbol('g', 1, Kind.DEFINED)\n"
        "t = Var('x')\n"
        "for _ in range(2000):\n"
        "    t = App(g, (t,))\n"
        "nodes, top = compile_rhs(t, lambda u: 0 if isinstance(u, Var) else None)\n"
        "print(len(nodes), top, nodes[0][1], nodes[-1][1])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    # the innermost g reads the variable's slot, each other g the node below
    assert proc.stdout == "2000 -2000 (0,) (-1999,)\n"


def test_canonical_rule_and_same_rules():
    a = Rule(App(G, (Var("p"), Var("q"))), Var("q"))
    b = Rule(App(G, (Var("x"), Var("y"))), Var("y"))
    assert canonical_rule(a) == canonical_rule(b)
    ta = Trs((a, Rule(App(F, (Var("z"),)), App(NIL))))
    tb = Trs((Rule(App(F, (Var("w"),)), App(NIL)), b))
    assert same_rules(ta, tb)
    tc = Trs((Rule(App(F, (Var("w"),)), App(NIL)),))
    assert not same_rules(ta, tc)


def test_ground_terms_enumeration():
    # constructors only: every ground term, signature order at each node
    terms = list(b_safe_terms(Trs((), (NIL, ZERO, ONE, CONS)), 5))
    assert len(terms) == 66
    assert [format_term(t) for t in terms[:4]] == ["0", "1", "nil", "cons(0, 0)"]
    assert all(size(t) <= 5 for t in terms)
    assert len(set(terms)) == len(terms)


def test_equal_symbols_are_one_object():
    assert Symbol("f", 1, Kind.DEFINED) is F
    assert Symbol("cons", 2, Kind.CONSTRUCTOR) is CONS
    # a different arity or kind is another symbol
    assert Symbol("f", 2, Kind.DEFINED) is not F
    assert Symbol("f", 1, Kind.CONSTRUCTOR) != F
    assert copy.deepcopy(F) is F
    assert pickle.loads(pickle.dumps(CONS)) is CONS
    with pytest.raises(AttributeError):
        F.arity = 2


def test_apps_built_apart_are_equal():
    a, b = lst(0, 1, 1), lst(0, 1, 1)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert App(G, (a, App(NIL))) == App(G, (b, App(NIL)))
    assert len({a, b, lst(0, 1, 1)}) == 1
    # another head over the same arguments is another term
    pair = Symbol("pair", 2, Kind.CONSTRUCTOR)
    assert App(pair, a.args) != a
    assert App(G, a.args) != App(pair, a.args)
    assert lst(0, 1, 0) != a
    assert App(NIL) != Var("nil")


def _is_data_reference(t):
    if isinstance(t, Var):
        return False
    return t.head.kind is Kind.CONSTRUCTOR and all(_is_data_reference(a) for a in t.args)


def test_data_flag_matches_the_recursive_definition(corpus):
    for name, trs in corpus.items():
        for t in b_safe_terms(trs, 7):
            assert t.is_data == _is_data_reference(t), (name, format_term(t))
    # a constructor above a defined symbol or a variable is not data
    for t in (
        App(CONS, (App(F, (App(NIL),)), App(NIL))),
        App(CONS, (App(ZERO), App(CONS, (Var("x"), App(NIL))))),
        App(G, (lst(0), lst(1))),
    ):
        assert not is_data(t) and not _is_data_reference(t)
    assert is_data(lst(1, 0)) and not is_data(Var("x"))
