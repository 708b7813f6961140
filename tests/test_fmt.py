import hashlib
import random
import sys

import pytest

from consfree.analysis import NotConsFreeError, NotConstrainedError, check_constrained
from consfree.fmt import (
    ParseError,
    encode_input,
    has_decision_interface,
    parse_term,
    parse_trs,
    print_trs,
    require_decision_interface,
)
from consfree.terms import App, Kind, format_term, same_rules
from consfree.tm import compile_tm
from consfree.transforms import bottom_extend, semi_linearize

from conftest import CORPUS, CORPUS_NAMES, MACHINES, load_machine, load_system

MEMBERSHIP = """
(VAR w xs)
(RULES
  start(w) -> mem(w)
  mem(nil) -> true
  mem(cons(0, xs)) -> mem(xs)   ; scan for a 1
  mem(cons(1, xs)) -> false
)
"""


def test_parse_basic():
    trs = parse_trs(MEMBERSHIP)
    assert len(trs.rules) == 4
    assert {s.name for s in trs.defined()} == {"start", "mem"}
    assert {s.name for s in trs.constructors()} == {"nil", "cons", "0", "1", "true", "false"}
    assert trs.symbol("cons").arity == 2
    assert str(trs.rules[2]) == "mem(cons(0, xs)) -> mem(xs)"


def test_comments_and_whitespace_insignificant():
    packed = "(VAR w xs)(RULES start(w)->mem(w) mem(nil)->true mem(cons(0,xs))->mem(xs) mem(cons(1,xs))->false)"
    assert same_rules(parse_trs(packed), parse_trs(MEMBERSHIP))


PARSE_ERRORS = [
    ("(VAR x)(RULES f(x(nil)) -> x)", "1:17", "variable x applied"),
    ("(VAR x)(RULES f(x) -> g(x) g(x, x) -> x)", "1:28", "used with 2 arguments"),
    # nested uses: the first use in pre-order fixes the arity
    ("(VAR x)(RULES f(x) -> g(g(x, x)))", "1:25", "used with 2 arguments"),
    ("(VAR x)(RULES f(x) -> g(x, g(x)))", "1:28", "used with 1 arguments"),
    ("(VAR x)(RULES x -> f(x))", "1:15", "must not be a variable"),
    ("(VAR x y)(RULES f(x) -> y)", "1:25", "does not occur on the left"),
    ("(VAR x)(RULES f(x) - x)", "1:20", "stray '-'"),
    ("(VAR x)(RULES f(x) -> #)", "1:23", "unexpected character"),
    ("(VAR x)(OOPS f(x) -> x)", "1:9", "expected 'RULES'"),
    ("(VAR x)(RULES f(x) -> x", "1:24", "expected a term"),
    ("(VAR x (RULES f(x) -> x)", "1:8", "expected '\\)'"),
    ("(VAR x)(RULES f(x) -> x) junk", "1:26", "end of file"),
    # end of input inside a final comment is reported where the comment starts
    ("(VAR x)(RULES f(x) -> x ; trailing", "1:25", "expected a term"),
    ("(VAR x)\n(RULES\n  f(x) -> x  ; no closing paren", "3:14", "expected a term"),
]


# the ids leave out the position, so each case keeps the name it had without one
@pytest.mark.parametrize(
    "src, position, message", PARSE_ERRORS, ids=[f"{s}-{m}" for s, _, m in PARSE_ERRORS]
)
def test_parse_errors(src, position, message):
    with pytest.raises(ParseError, match=message) as info:
        parse_trs(src)
    assert str(info.value).startswith(f"{position}: ")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_trs("(VAR x)\n(RULES\n  x -> x\n)")
    assert str(info.value).startswith("3:3:")
    assert info.value.span.line == 3


def _roundtrip_systems():
    """The corpus, plus every system the library builds with `Trs(rules,
    extra)`: the compiled machines and the transforms of each constrained
    corpus system."""
    for name in CORPUS_NAMES:
        trs = load_system(name)
        yield name, trs
        try:
            check_constrained(trs)
        except (NotConsFreeError, NotConstrainedError):
            continue
        semi = semi_linearize(trs)
        yield f"semi_linearize({name})", semi
        yield f"bottom_extend(semi_linearize({name}))", bottom_extend(semi)
        yield f"bottom_extend({name})", bottom_extend(trs)
    for path in sorted(MACHINES.glob("*.tm")):
        yield f"compile_tm({path.stem})", compile_tm(load_machine(path.stem)).trs
    # new variables are named away from constants that look like them
    clash = parse_trs("(VAR x y)(RULES f(y) -> g(y, y) g(x, y) -> y__2)")
    yield "semi_linearize(y__2 clash)", semi_linearize(clash)
    clash = parse_trs("(VAR y)(RULES f(y) -> x1 g(nil) -> nil)")
    yield "bottom_extend(x1 clash)", bottom_extend(clash)


def test_print_parse_roundtrip_corpus():
    seen = 0
    for name, trs in _roundtrip_systems():
        back = parse_trs(print_trs(trs))
        assert same_rules(trs, back), name
        assert back.signature == trs.signature, name
        seen += 1
    # every corpus system is constrained: 12 originals, 36 transforms,
    # 3 machines, 2 name clashes
    assert seen == 53


def test_print_trs_shape():
    out = print_trs(parse_trs(MEMBERSHIP))
    lines = out.splitlines()
    assert lines[0] == "(VAR w xs)"
    assert lines[1] == "(RULES"
    assert lines[2] == "  start(w) -> mem(w)"
    assert lines[-1] == ")"
    assert out.endswith("\n")


def test_parse_term():
    trs = parse_trs(MEMBERSHIP)
    t = parse_term("mem(cons(0, nil))", trs)
    assert format_term(t) == "mem(cons(0, nil))"
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_term("foo(nil)", trs)
    with pytest.raises(ParseError, match="used with 1 arguments"):
        parse_term("mem(cons(nil))", trs)
    with pytest.raises(ParseError, match="end of term"):
        parse_term("nil nil", trs)


DEPTH = 5000  # far beyond the interpreter's recursion limit


def _nest(inner: str) -> str:
    return "g(" * DEPTH + inner + ")" * DEPTH


def test_deep_terms_read_without_recursion():
    assert sys.getrecursionlimit() < DEPTH
    trs = parse_trs(f"(VAR x)(RULES f(x) -> {_nest('x')} g(x) -> x)")
    term = parse_term(_nest("a"), parse_trs("(VAR x)(RULES g(x) -> x h -> a)"))
    for t, leaf in ((trs.rules[0].rhs, "x"), (term, "a")):
        depth = 0
        while t.head is not None and t.args:
            t, depth = t.args[0], depth + 1
        assert (depth, str(t)) == (DEPTH, leaf)


AFTER_COMMENTS = "(VAR x) ; (RULES # -\n(RULES ; f(x) ->\n  f(x) -> "
DEEP_ERRORS = [
    # at the innermost point of the deep term, in a system and as a term
    pytest.param(
        f"(VAR x)(RULES f(x) -> {_nest('x,')})", 1, 10025,
        "expected a term, found ')'", id="system-innermost-syntax",
    ),
    pytest.param(
        f"(VAR x)(RULES f(x) -> {_nest('#')})", 1, 10023,
        "unexpected character '#'", id="system-innermost-stray",
    ),
    pytest.param(_nest("-"), 1, 10001, "stray '-'", id="term-innermost-stray"),
    pytest.param(
        _nest("g(a, a)"), 1, 10001,
        "g used with 2 arguments but has arity 1", id="term-innermost-arity",
    ),
    # on line 3, after comments that hold punctuation and stray characters
    pytest.param(
        AFTER_COMMENTS + "g(x,))", 3, 15,
        "expected a term, found ')'", id="system-line-3-syntax",
    ),
    pytest.param(
        AFTER_COMMENTS + "g(x, x) g(x) -> x)", 3, 19,
        "g used with 1 arguments but has arity 2", id="system-line-3-arity",
    ),
]


@pytest.mark.parametrize("src, line, column, message", DEEP_ERRORS)
def test_error_spans_deep_and_after_comments(src, line, column, message):
    with pytest.raises(ParseError) as info:
        if src.startswith("(VAR"):
            parse_trs(src)
        else:
            parse_term(src, parse_trs("(VAR x)(RULES g(x) -> x h -> a)"))
    span = info.value.span
    assert (span.line, span.column, info.value.message) == (line, column, message)


def test_empty_argument_list_is_a_constant():
    trs = parse_trs("(VAR)(RULES f() -> a g(f()) -> f())")
    assert trs == parse_trs("(VAR)(RULES f -> a g(f) -> f)")
    assert trs.symbol("f").arity == 0
    assert parse_term("g(f())", trs) == parse_term("g(f)", trs)


def test_encode_input():
    assert format_term(encode_input("")) == "start(nil)"
    assert format_term(encode_input("01")) == "start(cons(0, cons(1, nil)))"
    with pytest.raises(ValueError, match="0 and 1"):
        encode_input("0x1")


def test_decision_interface_checks():
    trs = parse_trs(MEMBERSHIP)
    assert has_decision_interface(trs)
    require_decision_interface(trs)

    loop = load_system("loop42")
    assert not has_decision_interface(loop)
    with pytest.raises(ValueError, match="start/1 missing"):
        require_decision_interface(loop)

    # arity clash: start exists but with the wrong shape
    wrong = parse_trs(
        "(VAR x y)(RULES start(x, y) -> x"
        " f(cons(0, nil)) -> true f(nil) -> false f(x) -> 1)"
    )
    with pytest.raises(ValueError, match="decision interface needs start/1"):
        require_decision_interface(wrong)


def test_all_corpus_systems_parse(corpus):
    assert len(corpus) >= 10
    for name, trs in corpus.items():
        assert trs.rules, name


# sha256 of every record of `test_reader_outcomes_are_pinned`; it changes only
# if the reader accepts, builds or reports something differently
READER_DIGEST = "fbb803e11b2b0b91017fd02ba263e5218e4ada7bd491e0c0076dd42cf9fdae3c"
READER_SEED = 22
INSERTS = ("x", "f", "nil", "VAR", "RULES", "->", "(", ")", ",", "-", "#", ";", "\n")


def _mutants(rng: random.Random, text: str, count: int):
    """`count` edits of `text`: 1-6 characters deleted, one token inserted,
    a truncation, or a truncation that ends in a comment, with and without
    a final newline."""
    for _ in range(count):
        edit = rng.randrange(5)
        at = rng.randrange(len(text) + 1)
        if edit == 0:
            yield text[:at] + text[at + rng.randint(1, 6) :]
        elif edit == 1:
            yield text[:at] + rng.choice(INSERTS) + text[at:]
        else:
            yield text[:at] + ("", " ; cut\n", " ; cut")[edit - 2]


def _outcome(read, src: str, *context) -> str:
    """What the reader made of `src`: its result, its ParseError with span,
    or any other exception."""
    try:
        return read(src, *context)
    except ParseError as e:
        span = e.span
        return f"ParseError {e.message!r} {span.line}:{span.column}+{span.length}"
    except Exception as e:  # pinned too: the reader must not start raising others
        return f"{type(e).__name__} {e}"


def _system(src: str) -> str:
    trs = parse_trs(src)
    return print_trs(trs) + " ".join(f"{s}:{s.kind.value}" for s in trs.signature)


def _term(src: str, trs) -> str:
    return format_term(parse_term(src, trs))


def test_reader_outcomes_are_pinned():
    rng = random.Random(READER_SEED)
    records = []
    for name in CORPUS_NAMES:
        text = (CORPUS / f"{name}.trs").read_text(encoding="utf-8")
        records += [_outcome(_system, src) for src in (text, *_mutants(rng, text, 100))]
    for path in sorted(MACHINES.glob("*.tm")):
        text = print_trs(compile_tm(load_machine(path.stem)).trs)
        records.append(_outcome(_system, text))
    for name in CORPUS_NAMES:
        trs = load_system(name)
        for base in (encode_input("0110"), trs.rules[0].lhs, trs.rules[-1].rhs):
            text = format_term(base)
            srcs = (text, *_mutants(rng, text, 8))
            records += [_outcome(_term, src, trs) for src in srcs]
    parsed = sum(not r.startswith("ParseError") for r in records)
    assert len(records) == 12 * 101 + 3 + 12 * 3 * 9
    assert 300 < parsed < len(records) - 600  # both paths are well exercised
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert digest == READER_DIGEST
