import pytest

from consfree.analysis import (
    NotConstrainedError,
    b_safe_terms,
    check_cons_free,
    check_semi_linear,
)
from consfree.engine import Budget, Oracle
from consfree.fmt import parse_term, parse_trs, print_trs
from consfree.terms import App, Trs, Var, format_term
from consfree.transforms import (
    bottom_extend,
    compute_counts,
    phi,
    semi_linearize,
    verify_bottom_extension,
    verify_semi_linearization,
)

from conftest import load_system

DUP = parse_trs("(VAR x y)(RULES f(x) -> g(x, x) g(x, y) -> x)")
NESTED = parse_trs("(VAR x y)(RULES f(x) -> g(x, h(x)) g(x, y) -> y h(x) -> x)")


def test_compute_counts():
    counts = compute_counts(DUP)
    assert counts.of("f", 1) == 2
    assert counts.of("g", 1) == 1
    assert counts.of("g", 2) == 1
    assert counts.of("unknown", 1) == 1
    assert counts.new_arity(DUP.symbol("f")) == 2
    assert counts.new_arity(DUP.symbol("g")) == 2


def test_counts_ignore_pattern_arguments():
    trs = load_system("dup_first")
    counts = compute_counts(trs)
    # dup's first argument is a pattern, only the bare second one widens
    assert counts.of("dup", 1) == 1
    assert counts.of("dup", 2) == 2
    assert counts.new_arity(trs.symbol("dup")) == 3
    assert counts.new_arity(trs.symbol("start")) == 1
    assert counts.new_arity(trs.symbol("cons")) == 2


def test_phi_repeats_arguments():
    counts = compute_counts(DUP)
    t = App(DUP.symbol("f"), (Var("z"),))
    out = phi(DUP, counts, t)
    assert format_term(out) == "f(z, z)"
    assert out.head.arity == 2


def test_phi_rejects_defined_below_constructor():
    trs = load_system("membership")
    counts = compute_counts(trs)
    cons = trs.symbol("cons")
    nil = App(trs.symbol("nil"))
    bad = App(cons, (App(trs.symbol("mem"), (nil,)), nil))
    with pytest.raises(ValueError, match="below"):
        phi(trs, counts, bad)


def test_semi_linearize_golden_flat():
    out = semi_linearize(DUP)
    assert print_trs(out) == (
        "(VAR x x__2 y)\n"
        "(RULES\n"
        "  f(x, x__2) -> g(x, x__2)\n"
        "  g(x, y) -> x\n"
        ")\n"
    )


def test_semi_linearize_golden_nested():
    # pre-order spread: the g argument keeps the name, the h copy is renamed
    out = semi_linearize(NESTED)
    assert "f(x, x__2) -> g(x, h(x__2))" in print_trs(out)


def test_semi_linearize_adds_interface_wrappers():
    trs = load_system("dup_first")
    out = semi_linearize(trs)
    text = print_trs(out)
    assert "dup(cons(x, xs), y, y__2) -> g(y, y__2)" in text
    assert "start(cons(x, xs)) -> dup(cons(x, xs), x, x)" in text
    # one wrapper per constructor keeps bit-string inputs injectable
    assert "start'(cons(x1, x2)) -> start(cons(x1, x2))" in text
    assert "start'(nil) -> start(nil)" in text
    assert len(out.rules) == len(trs.rules) + len(trs.constructors())


def test_semi_linearize_output_is_semi_linear_and_cons_free(corpus):
    for name, trs in corpus.items():
        out = semi_linearize(trs)
        assert check_cons_free(out) == [], name
        bad = [i for i, r in enumerate(out.rules) if not check_semi_linear(r)]
        assert bad == [], name


def test_semi_linearize_requires_constrained():
    trs = parse_trs(
        "(VAR x y)(RULES f(x) -> g(x, x) g(x, y) -> h(x, x) h(x, y) -> x)"
    )
    with pytest.raises(NotConstrainedError):
        semi_linearize(trs)


def test_semi_linearize_fixpoint_on_linear_systems():
    mem = load_system("membership")
    out = semi_linearize(mem)
    # nothing to widen; only the wrappers appear
    originals = {str(r) for r in mem.rules}
    assert originals <= {str(r) for r in out.rules}
    assert all(r.lhs.head.name == "start'" for r in out.rules[len(mem.rules):])


def test_bottom_extend():
    loop = load_system("loop42")
    out = bottom_extend(loop)
    text = print_trs(out)
    assert "a -> bot" in text
    assert "f(x1) -> bot" in text
    assert out.symbol("bot").arity == 0
    assert len(out.rules) == len(loop.rules) + len(loop.defined())
    with pytest.raises(ValueError, match="already uses"):
        bottom_extend(out)


def full(trs):
    return Oracle(trs, "full", Budget())


def cbv(trs):
    return Oracle(trs, "cbv", Budget())


def test_verify_semi_linearization_passes():
    trs = load_system("dup_first")
    out = semi_linearize(trs)
    terms = list(b_safe_terms(trs, 4))
    images = [phi(trs, compute_counts(trs), t) for t in terms]
    assert verify_semi_linearization(full(trs), full(out), terms, images) == []


def test_verify_semi_linearization_catches_wrong_transform():
    trs = parse_trs("(VAR x y)(RULES f(x) -> g(x, x) g(x, y) -> x h(nil) -> nil)")
    fnil = parse_term("f(nil)", trs)
    image = phi(trs, compute_counts(trs), fnil)
    star = semi_linearize(trs)
    assert verify_semi_linearization(full(trs), full(star), [fnil], [image]) == []
    # handing back the untransformed system: phi widens the call into an
    # arity no rule matches, so the oracle sets differ
    problems = verify_semi_linearization(full(trs), full(trs), [fnil], [image])
    assert len(problems) == 1
    assert "f(nil)" in problems[0]


def test_verify_bottom_extension_passes():
    trs = load_system("membership")
    out = bottom_extend(trs)
    terms = list(b_safe_terms(trs, 4))
    assert verify_bottom_extension(full(trs), cbv(out), terms) == []


def test_verify_bottom_extension_catches_missing_rules():
    """Dropping an escape-hatch rule breaks call-by-value equivalence."""
    loop = load_system("loop42")
    extended = bottom_extend(loop)
    fa = parse_term("f(a)", loop)
    assert verify_bottom_extension(full(loop), cbv(extended), [fa]) == []
    pruned = Trs(
        tuple(r for r in extended.rules if str(r) != "a -> bot"),
        extended.signature,
    )
    # call-by-value is stuck below f again, full rewriting still reaches b
    problems = verify_bottom_extension(full(loop), cbv(pruned), [fa])
    assert len(problems) == 1
    assert "f(a)" in problems[0]
