import pytest

from consfree.analysis import (
    ConstrainedWitness,
    NotConsFreeError,
    NotConstrainedError,
    b_safe_terms,
    check_cons_free,
    check_constrained,
    check_semi_linear,
    compute_b,
    dv,
    is_b_safe,
    require_cons_free,
    verify_constrained_witness,
)
from consfree.fmt import encode_input, parse_term, parse_trs
from consfree.terms import App, format_term, is_data, size

from conftest import CORPUS_NAMES, load_system

# frozen witness sets for the bundled systems
WITNESSES = {
    "alternating": set(),
    "any0": {"any"},
    "bools": set(),
    "choose": set(),
    "diag": set(),
    "dup_first": {"g"},
    "last1": set(),
    "loop42": set(),
    "membership": {"mem"},
    "mix": {"g", "h"},
    "pairs": set(),
    "parity": {"even"},
}


def test_corpus_is_cons_free(corpus):
    for name, trs in corpus.items():
        assert check_cons_free(trs) == [], name
        require_cons_free(trs)


def test_nonlinear_lhs_violation():
    trs = parse_trs("(VAR x)(RULES f(x, x) -> x)")
    (v,) = check_cons_free(trs)
    assert v.condition == 1
    assert "not linear" in v.describe(trs)
    with pytest.raises(NotConsFreeError):
        require_cons_free(trs)


def test_cons_free_verdict_is_kept_per_system():
    text = "(VAR x)(RULES f(x, x) -> x g(x) -> cons(x, x))"
    trs = parse_trs(text)
    first = check_cons_free(trs)
    assert [v.condition for v in first] == [1, 3]
    first.clear()  # callers own the list they get
    assert check_cons_free(trs) == check_cons_free(parse_trs(text))
    for _ in range(2):
        with pytest.raises(NotConsFreeError):
            require_cons_free(trs)


def test_defined_symbol_in_lhs_argument():
    trs = parse_trs("(VAR x)(RULES g(x) -> x f(g(x)) -> x)")
    (v,) = check_cons_free(trs)
    assert (v.rule_index, v.condition) == (1, 2)
    assert "not a constructor term" in v.describe(trs)


def test_rhs_data_creation_violation():
    # cons(x, nil) is neither ground nor a subterm of the left-hand side
    trs = parse_trs("(VAR x)(RULES f(x) -> cons(x, nil))")
    (v,) = check_cons_free(trs)
    assert v.condition == 3
    assert format_term(v.subterm) == "cons(x, nil)"


def test_rhs_lhs_subterm_is_allowed():
    trs = parse_trs("(VAR x xs)(RULES f(cons(x, xs)) -> g(cons(x, xs)) g(x) -> x)")
    assert check_cons_free(trs) == []


def test_rhs_ground_data_is_allowed():
    trs = parse_trs("(VAR x)(RULES f(x) -> cons(0, nil))")
    assert check_cons_free(trs) == []


def test_dv_and_semi_linear():
    trs = parse_trs(
        "(VAR x xs y)(RULES f(cons(x, xs), y) -> g(y, y) g(x, y) -> x)"
    )
    assert dv(trs.rules[0].lhs) == {"y"}
    assert dv(trs.rules[1].lhs) == {"x", "y"}
    # y is a direct variable used twice; x, xs sit under a pattern and are exempt
    assert not check_semi_linear(trs.rules[0])
    assert check_semi_linear(trs.rules[1])


def test_pattern_components_do_not_count():
    trs = parse_trs(
        "(VAR x xs)(RULES f(cons(x, xs)) -> g(cons(x, xs), cons(x, xs)) g(x, xs) -> x)"
    )
    # the whole pattern is duplicated, but no direct lhs variable is
    assert all(check_semi_linear(r) for r in trs.rules)
    assert check_constrained(trs).a_set == frozenset()


def test_corpus_witnesses(corpus):
    for name, trs in corpus.items():
        witness = check_constrained(trs)
        assert {s.name for s in witness.a_set} == WITNESSES[name], name


def test_witness_verifier_accepts_corpus(corpus):
    for name, trs in corpus.items():
        assert verify_constrained_witness(trs, check_constrained(trs)), name


def test_witness_verifier_rejects_too_small():
    trs = load_system("dup_first")
    assert not verify_constrained_witness(trs, ConstrainedWitness(frozenset()))


def test_witness_verifier_rejects_non_semi_linear_member():
    trs = load_system("dup_first")
    dup = trs.symbol("dup")
    g = trs.symbol("g")
    # dup's rule duplicates its direct variable, so dup cannot join the witness
    assert not verify_constrained_witness(
        trs, ConstrainedWitness(frozenset({dup, g}))
    )


def test_not_constrained():
    trs = parse_trs(
        "(VAR x y)(RULES f(x) -> g(x, x) g(x, y) -> h(x, x) h(x, y) -> x)"
    )
    with pytest.raises(NotConstrainedError, match="g"):
        check_constrained(trs)


def test_compute_b_contents_and_order():
    trs = load_system("membership")
    b = compute_b(trs, encode_input("01"))
    assert list(b.values()) == list(range(7))
    assert [format_term(t) for t in b] == [
        "cons(0, cons(1, nil))",
        "0",
        "cons(1, nil)",
        "1",
        "nil",
        "true",
        "false",
    ]
    assert len(b) == 7
    assert parse_term("cons(1, nil)", trs) in b
    assert parse_term("cons(0, nil)", trs) not in b
    # start-term data that also occurs in a rule keeps its start-term place,
    # and one run's start data does not leak into the next run's universe
    trs = parse_trs(
        "(VAR x y z w)"
        "(RULES f(x) -> g(true, cons(1, nil), 0, cons(0, nil)) g(x, y, z, w) -> x)"
    )
    for start, want in [
        (
            "f(cons(0, cons(1, nil)))",
            ["cons(0, cons(1, nil))", "0", "cons(1, nil)", "1", "nil", "true", "cons(0, nil)"],
        ),
        ("f(nil)", ["nil", "true", "cons(1, nil)", "1", "0", "cons(0, nil)"]),
    ]:
        b = compute_b(trs, parse_term(start, trs))
        assert [format_term(t) for t in b] == want, start


def test_is_b_safe():
    trs = load_system("membership")
    b = compute_b(trs, encode_input("01"))
    assert is_b_safe(b, encode_input("01"))
    assert is_b_safe(b, parse_term("mem(mem(cons(1, nil)))", trs))
    # cons(0, nil) is outside this universe
    assert not is_b_safe(b, parse_term("start(cons(0, nil))", trs))
    # and a constructor above a defined symbol is never safe
    assert not is_b_safe(b, parse_term("cons(mem(nil), nil)", trs))


def test_is_b_safe_on_deep_terms():
    trs = load_system("membership")
    b = compute_b(trs, encode_input("01"))
    mem = trs.symbol("mem")
    for bottom, safe in (("cons(1, nil)", True), ("cons(0, nil)", False)):
        t = parse_term(bottom, trs)
        for _ in range(5000):  # far beyond the interpreter's recursion limit
            t = App(mem, (t,))
        assert is_b_safe(b, t) is safe


def test_b_safe_terms_enumeration():
    trs = load_system("membership")
    terms = list(b_safe_terms(trs, 3))
    assert len(terms) == 60
    assert [format_term(t) for t in terms[:7]] == [
        "0",
        "1",
        "false",
        "nil",
        "true",
        "mem(0)",
        "mem(1)",
    ]
    assert all(size(t) <= 3 for t in terms)
    sizes = [size(t) for t in terms]
    assert sizes == sorted(sizes)
    # every enumerated term is safe for the universe computed from itself
    for t in terms:
        assert is_b_safe(compute_b(trs, t), t), format_term(t)


def test_b_safe_terms_pure_data_included():
    trs = load_system("membership")
    small = list(b_safe_terms(trs, 1))
    assert [format_term(t) for t in small] == ["0", "1", "false", "nil", "true"]
