import hashlib
import random

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
from consfree.fmt import ParseError, encode_input, parse_term, parse_trs
from consfree.tabulation import decide
from consfree.terms import App, format_term, is_data, size
from consfree.tm import compile_tm
from consfree.transforms import bottom_extend, compute_counts, semi_linearize

from conftest import CORPUS, CORPUS_NAMES, MACHINES, load_machine, load_system
from test_fuzz import MUTANTS, SEED, mutate

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
    with pytest.raises(NotConstrainedError) as caught:
        check_constrained(trs)
    # f duplicates x too, but nothing forces f into the witness
    assert str(caught.value) == (
        "rule 1 (g(x, y) -> h(x, x)) is headed by g, which the right-hand sides "
        "force into the witness set, but the rule is not semi-linear"
    )


def test_not_constrained_names_the_first_forced_rule():
    # f forces g and h, and both duplicate x; h's rule comes first
    trs = parse_trs(
        "(VAR x y)(RULES f(x) -> g(h(x)) h(x) -> k(x, x) g(x) -> k(x, x) k(x, y) -> x)"
    )
    with pytest.raises(NotConstrainedError) as caught:
        check_constrained(trs)
    assert str(caught.value).startswith("rule 1 (h(x) -> k(x, x)) is headed by h,")


def test_every_head_above_a_direct_variable_is_forced():
    trs = parse_trs("(VAR x)(RULES f(x) -> g(h(x)) g(x) -> x h(x) -> x)")
    assert {s.name for s in check_constrained(trs).a_set} == {"g", "h"}
    # every head above x or y is forced, and no other: n(a) holds neither, so
    # n stays out although its rule duplicates x, while p(x, x) forces p
    trs = parse_trs(
        "(VAR x y z)(RULES f(x, y) -> g(h(x), k(m(y)), n(a)) g(x, y, z) -> x"
        "  h(x) -> x  k(x) -> x  m(x) -> x  n(x) -> p(x, x)  p(x, y) -> y)"
    )
    assert {s.name for s in check_constrained(trs).a_set} == {"g", "h", "k", "m", "p"}


def test_static_facts_walk_each_rule_once_per_system():
    text = (CORPUS / "mix.trs").read_text(encoding="utf-8")
    records = []
    for _ in range(2):  # a second parse is a new system and starts afresh
        trs = parse_trs(text)
        records.append(trs.facts)
        for _ in range(2):
            check_cons_free(trs)
            check_constrained(trs)
            compute_b(trs, encode_input("0110"))
            compute_counts(trs)
            decide(trs, "0110", "demand")
        assert trs.facts is records[-1]
    assert records[0] is not records[1]


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


def pinned_systems() -> list[tuple[str, object]]:
    """The 12 corpus systems, the semi-linearization and the bottom extension
    of each constrained one, the 3 compiled machines, and the seeded fuzz
    mutants of each corpus file that parse."""
    systems = []
    for source in sorted(CORPUS.glob("*.trs")):
        text = source.read_text(encoding="utf-8")
        trs = parse_trs(text)
        systems.append((source.name, trs))
        try:
            check_constrained(trs)
        except (NotConsFreeError, NotConstrainedError):
            continue
        systems.append((f"{source.name} semilin", semi_linearize(trs)))
        systems.append((f"{source.name} bottom", bottom_extend(trs)))
    for machine in sorted(MACHINES.glob("*.tm")):
        systems.append((machine.name, compile_tm(load_machine(machine.stem)).trs))
    for source in sorted(CORPUS.glob("*.trs")):
        rng = random.Random(f"{SEED}:{source.name}")
        text = source.read_text(encoding="utf-8")
        for k in range(MUTANTS):
            try:
                systems.append((f"{source.name} mutant {k}", parse_trs(mutate(rng, text))))
            except (ParseError, ValueError):
                pass
    return systems


STATIC_FACTS_DIGEST = "1975f087f4fdc9b7f628e0e607891aa8c2fa104716db376a345790327244c93f"


def test_static_facts_are_pinned():
    # each system's violations, witness or constrainedness error, widths and
    # universe order, read through the public checks only
    records = []
    for name, trs in pinned_systems():
        violations = check_cons_free(trs)
        records.append(name)
        records += [v.describe(trs) for v in violations]
        if not violations:
            try:
                records.append(repr(sorted(s.name for s in check_constrained(trs).a_set)))
            except NotConstrainedError as exc:
                records.append(str(exc))
        counts = compute_counts(trs)
        records.append(repr(sorted((s.name, w) for s, (_, w) in counts.items())))
        records.append(repr([format_term(t) for t in compute_b(trs, encode_input(""))]))
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert digest == STATIC_FACTS_DIGEST


def test_check_semi_linear_agrees_with_the_facts():
    # the rule-by-rule check counts its own variable uses, apart from the walk
    # that finds the witness
    duplicating = 0
    for name, trs in pinned_systems():
        bad = [i for i, r in enumerate(trs.rules) if not check_semi_linear(r)]
        assert bad == list(trs.facts.duplicating), name
        duplicating += bool(bad)
    # mix, dup_first, their bottom extensions and 34 mutants duplicate a variable
    assert duplicating == 38
