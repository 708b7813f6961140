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
    same_rules,
    size,
    subterm_at,
    subterms,
    variables,
)

from consfree.tm import compile_tm

from conftest import ROOT, load_machine, load_system

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


def test_per_system_computes_once_per_object():
    # a system's facts and index are computed on first read, kept with that
    # object, and never shared with an equal system
    rules = (Rule(App(F, (Var("x"),)), App(CONS, (App(ZERO), App(NIL)))),)
    a, b = Trs(rules), Trs(rules)
    assert a == b and hash(a) == hash(b)
    for name in ("facts", "index"):
        assert name not in vars(a) and name not in vars(b)
        first = getattr(a, name)
        assert vars(a)[name] is first and getattr(a, name) is first
        assert name not in vars(b)
        assert getattr(b, name) is not first
    assert a.facts == b.facts and a.index.pool_slot == b.index.pool_slot
    # neither parsing nor compiling a machine reads them
    for trs in (load_system("mix"), compile_tm(load_machine("parity")).trs):
        assert "facts" not in vars(trs) and "index" not in vars(trs)


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
    index = trs.index
    assert trs.index is index  # kept per system
    assert index.plans == {}  # a rule is compiled when a key first fits it

    def fits(key):
        return tuple(i for i, _ in index[key])

    assert fits((h, (NIL, CONS))) == (0, 2, 3)
    assert sorted(index.plans) == [0, 2, 3]
    assert fits((h, (NIL, NIL))) == (0, 3)
    assert fits((h, (CONS, NIL))) == (3, 4)
    assert fits((h, (ZERO, ZERO))) == (3,)
    assert fits((h, (None, CONS))) == (2, 3)  # a variable fits only a variable
    assert fits((F, (ZERO,))) == (1,)
    # a symbol of the same name but another arity heads none of the rules
    assert fits((Symbol("h", 1, Kind.DEFINED), (NIL,))) == ()
    # each fitting rule comes with its one plan
    assert all(p is index.plans[i] for i, p in index[(h, (NIL, CONS))])


def test_head_tests_walk_child_paths():
    lhs = App(G, (App(CONS, (Var("x"), App(CONS, (Var("y"), Var("z"))))), Var("w")))
    tests, pats = head_tests(lhs)
    # registers 0, 1 are the arguments; register 0's test adds 2, 3; 3's adds 4, 5
    assert tests == ((0, CONS), (3, CONS))
    assert pats == [*lhs.args, Var("x"), lhs.args[0].args[1], Var("y"), Var("z")]


def test_compile_rhs():
    x, y = Var("x"), Var("y")
    shared, zero, one = App(F, (x,)), App(ZERO), lst(1)
    piece = App(CONS, (y, App(NIL)))  # built apart from its `where` key
    right = App(G, (shared, App(G, (one, zero))))
    t = App(G, (shared, App(G, (App(G, (piece, zero)), right))))
    where = {x: 0, App(CONS, (y, App(NIL))): 1}
    consts, nodes, top = compile_rhs(t, where, 2)
    # registers 0 and 1, found by equality; then the data subterms in
    # pre-order, the second `zero` (one object) not again, and `piece`'s nil
    # not at all: a register is not compiled below
    assert consts == (zero, one) and consts[0] is zero and consts[1] is one
    # post-order from slot 4: f(x) first and once, although `shared` occurs twice
    assert [(f, slots) for f, slots, _ in nodes] == [
        (F, (0,)),  # 4
        (G, (1, 2)),  # 5: g(piece, zero)
        (G, (3, 2)),  # 6: g(one, zero)
        (G, (4, 6)),  # 7: g(shared, ...)
        (G, (5, 7)),  # 8
        (G, (4, 8)),  # 9: t
    ]
    assert top == 9
    assert compile_rhs(x, where, 2) == ((), (), 0)
    assert compile_rhs(one, where, 2) == ((one,), (), 2)
    # a 2000-deep term, in its own process, under the default recursion limit
    code = (
        "from consfree.terms import App, Kind, Symbol, Var, compile_rhs\n"
        "g = Symbol('g', 1, Kind.DEFINED)\n"
        "t = Var('x')\n"
        "for _ in range(2000):\n"
        "    t = App(g, (t,))\n"
        "consts, nodes, top = compile_rhs(t, {Var('x'): 0}, 1)\n"
        "print(len(consts), len(nodes), top, nodes[0][1], nodes[-1][1])\n"
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
    assert proc.stdout == "0 2000 2000 (0,) (1999,)\n"


def test_every_plan_is_well_formed(corpus):
    systems = dict(corpus)
    for name in ("contains11", "parity", "square"):
        systems[name] = compile_tm(load_machine(name)).trs
    probe = [f"r{s}" for s in range(200)]  # a distinct value per slot
    arities = set()
    for name, trs in systems.items():
        index, pool = trs.index, trs.facts.data
        for i, rule in enumerate(trs.rules):
            lhs = rule.lhs
            assert i in dict(index[(lhs.head, tuple([a.head for a in lhs.args]))])
            _, _, consts, slots, nodes, top = index.plans[i]
            regs = len(head_tests(lhs)[1])
            first = regs + len(consts)  # the first node's slot
            for k, (_, args, pick) in enumerate(nodes):
                assert all(0 <= s < first + k for s in args), (name, i)
                assert pick(probe) == tuple(probe[s] for s in args), (name, i)
                arities.add(len(args))
            # each const is read, so the consts fill the slots after the registers
            read = {top}.union(*(args for _, args, _ in nodes))
            assert set(range(regs, first)) <= read, (name, i)
            if nodes:
                assert top == first + len(nodes) - 1, (name, i)
            else:
                assert top < first, (name, i)
            assert [pool[s] for s in slots] == list(consts), (name, i)
    # every picker shape: `coin` and `a` take none, the machines take several
    assert {0, 1, 2, 3} <= arities


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


def test_equality_below_the_root():
    # a cached hash tells unequal terms apart first; forcing equal hashes
    # makes == walk down to the children that differ
    h = Symbol("h", 1, Kind.DEFINED)
    a, b = App(Symbol("a", 0, Kind.CONSTRUCTOR)), App(Symbol("b", 0, Kind.CONSTRUCTOR))
    pairs = [
        (App(F, (Var("x"),)), App(F, (Var("y"),))),
        (App(F, (App(h, (a,)),)), App(F, (App(h, (b,)),))),
    ]
    for t, u in pairs:
        u._hash = t._hash
        assert t != u and not t == u
    t, u = App(F, (App(h, (Var("x"),)),)), App(F, (App(h, (Var("x"),)),))
    assert t is not u and t.args[0] is not u.args[0]
    assert t == u
    assert str(Var("x")) == "x"


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
