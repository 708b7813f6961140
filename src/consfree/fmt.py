"""Reading and writing rewrite systems in the `.trs` text format.

    (VAR x xs)
    (RULES
      start(nil) -> true          ; comments run to end of line
      start(cons(0, xs)) -> start(xs)
    )

Identifiers are nonempty runs of [A-Za-z0-9_'].  Whitespace is insignificant.
Symbol arities are inferred from first use and must stay consistent; the
defined/constructor split is inferred from rule heads.  Files are UTF-8.

One `re.findall` gives the tokens as bare strings.  A loop with an explicit
stack notes each term's names in post-order, and one more loop builds every
term from that order, one App per occurrence.  Tokens carry no offsets: an
error scans the text again for the line and column of its token.

The decision interface, `DECISION_INTERFACE`, is the reserved vocabulary for
deciding bit strings: start/1 (defined) plus constructors cons/2, nil/0,
true/0, false/0, 0/0, 1/0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

from .terms import App, Kind, Rule, Symbol, Term, Trs, Var, format_term, variables

IDENT = re.compile(r"[A-Za-z0-9_']+")

START = Symbol("start", 1, Kind.DEFINED)
CONS = Symbol("cons", 2, Kind.CONSTRUCTOR)
NIL = Symbol("nil", 0, Kind.CONSTRUCTOR)
TRUE = Symbol("true", 0, Kind.CONSTRUCTOR)
FALSE = Symbol("false", 0, Kind.CONSTRUCTOR)
ZERO = Symbol("0", 0, Kind.CONSTRUCTOR)
ONE = Symbol("1", 0, Kind.CONSTRUCTOR)
DECISION_INTERFACE = (START, CONS, NIL, TRUE, FALSE, ZERO, ONE)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span.line}:{span.column}: {message}")
        self.message = message
        self.span = span


# identifier, arrow, punctuation, comment, or any other non-blank character
# (a stray one): `findall` yields the tokens as bare strings, `finditer`
# their offsets, which are only looked for when an error is reported
_TOKEN = re.compile(rf"{IDENT.pattern}|->|[(),]|;[^\n]*|[^ \t\r\n]")
_NOT_NAME = frozenset(("(", ")", ",", "->", ""))

# a token is its text, without offset; "" ends the token list
Token = str
# the token indices of one term's names in post-order, a node's arguments
# before it; `arity[k]` counts the arguments of the node named at k
Raw = list[int]


def _error(src: str, message: str, offset: int, text: str) -> ParseError:
    """The error at the token `text` that starts at `offset` (end of input: "")."""
    line = src.count("\n", 0, offset) + 1
    column = offset - src.rfind("\n", 0, offset)
    return ParseError(message, SourceSpan(line, column, len(text) or 1))


def _error_at(src: str, k: int, message: str) -> ParseError:
    """The error at token k (the token count: end of input), located by
    scanning `src` again.  The first stray character is reported instead,
    wherever it is: with it, `src` is no list of tokens at all."""
    toks = [m for m in _TOKEN.finditer(src) if m[0][0] != ";"]
    for j, m in enumerate(toks):
        c = m[0]
        if len(c) == 1 and c not in "()," and not IDENT.match(c):
            k = j
            message = "stray '-'" if c == "-" else f"unexpected character {c!r}"
            break
    if k < len(toks):
        return _error(src, message, toks[k].start(), toks[k][0])
    comment = src.find(";", src.rfind("\n") + 1)  # input ending in one ends there
    return _error(src, message, len(src) if comment < 0 else comment, "")


def _tokens(src: str) -> list[Token]:
    toks = _TOKEN.findall(src)
    if ";" in src:
        toks = [t for t in toks if t[0] != ";"]
    toks.append("")
    return toks


def _expect(src: str, toks: list[Token], i: int, *words: str) -> int:
    """The index after `words`, which must be the tokens from i on."""
    for word in words:
        if toks[i] != word:
            what = repr(word) if word else "end of file"
            found = toks[i] or "end of input"
            raise _error_at(src, i, f"expected {what}, found {found!r}")
        i += 1
    return i


def _term(src: str, toks: list[Token], i: int, arity: list[int]) -> tuple[Raw, int]:
    """The term at token i and the index after it; a stack of the open nodes
    keeps nesting depth away from the recursion limit."""
    post: Raw = []
    open_nodes: list[int] = []
    while True:
        if toks[i] in _NOT_NAME:
            found = toks[i] or "end of input"
            raise _error_at(src, i, f"expected a term, found {found!r}")
        k = i
        i += 1
        if toks[i] == "(":
            i += 1
            if toks[i] != ")":
                open_nodes.append(k)
                continue
            i += 1
        post.append(k)
        while open_nodes:  # a node is complete: close the lists it ends
            arity[open_nodes[-1]] += 1
            if toks[i] == ",":
                i += 1
                break
            i = _expect(src, toks, i, ")")
            post.append(open_nodes.pop())
        else:
            return post, i


def _build(toks: list[Token], arity: list[int], post, heads, defined) -> list[Term]:
    """The terms `post` lists one after another, one App per node.  A name
    `heads` lacks becomes a symbol of this use's arity, defined if it is in
    `defined`.  Raises ValueError for a node that does not fit its head."""
    built: list[Term] = []
    for k in post:
        name, n = toks[k], arity[k]
        head = heads.get(name)
        if head is None:
            kind = Kind.DEFINED if name in defined else Kind.CONSTRUCTOR
            head = heads[name] = Symbol(name, n, kind)
        if head.__class__ is Var:
            if n:
                raise ValueError(f"variable {name} applied to arguments")
            built.append(head)
        elif n:
            built[-n:] = [App(head, tuple(built[-n:]))]
        else:
            built.append(App(head))
    return built


def _misfit(
    src: str, toks: list[Token], arity: list[int], raws, heads, grow: bool
) -> ParseError | None:
    """The error of the first node of `raws`, in pre-order, that misfits
    `heads`: a variable applied to arguments, an unknown name (with `grow`,
    a new symbol of the first use's arity), or a symbol's other arity."""
    want = {name: h.arity for name, h in heads.items() if not isinstance(h, Var)}
    for k in sorted(k for raw in raws for k in raw):  # the names' pre-order
        name, n = toks[k], arity[k]
        if isinstance(heads.get(name), Var):
            if n:
                return _error_at(src, k, f"variable {name} applied to arguments")
        elif name not in want and not grow:
            return _error_at(src, k, f"unknown symbol {name}")
        elif want.setdefault(name, n) != n:
            message = f"{name} used with {n} arguments but has arity {want[name]}"
            return _error_at(src, k, message)
    return None


def _rules_error(
    src: str, toks: list[Token], arity: list[int], raws: list[Raw], var_of
) -> ParseError | None:
    """Why the rules in `raws`, left and right sides in turn, make no system:
    arity errors come first, then variable lhs, then loose rhs variables."""
    if error := _misfit(src, toks, arity, raws, var_of, True):
        return error
    for lhs in raws[::2]:
        if toks[lhs[-1]] in var_of:
            return _error_at(src, lhs[-1], "left-hand side must not be a variable")
    for lhs, rhs in zip(raws[::2], raws[1::2]):
        bound = {toks[k] for k in lhs}
        loose = [k for k in rhs if toks[k] in var_of and toks[k] not in bound]
        if loose:
            name = min(toks[k] for k in loose)
            message = f"right-hand side variable {name} does not occur on the left"
            return _error_at(src, loose[0], message)
    return None


def parse_trs(src: str) -> Trs:
    toks = _tokens(src)
    arity = [0] * len(toks)
    i = _expect(src, toks, 0, "(", "VAR")
    var_of = {}
    while toks[i] not in _NOT_NAME:
        var_of[toks[i]] = Var(toks[i])
        i += 1
    i = _expect(src, toks, i, ")", "(", "RULES")
    raws: list[Raw] = []  # each rule's left and right side
    while toks[i] != ")":
        lhs, i = _term(src, toks, i, arity)
        rhs, i = _term(src, toks, _expect(src, toks, i, "->"), arity)
        raws += lhs, rhs
    _expect(src, toks, i, ")", "")
    defined = {toks[lhs[-1]] for lhs in raws[::2]}  # roots are last in post-order
    heads = dict(var_of)
    try:
        terms = _build(toks, arity, chain.from_iterable(raws), heads, defined)
        trs = Trs(tuple(map(Rule, terms[::2], terms[1::2])))
    except ValueError as failure:
        raise _rules_error(src, toks, arity, raws, var_of) or failure
    for name in heads:  # a stray character read as a name
        if not IDENT.fullmatch(name):
            raise _error_at(src, toks.index(name), "")
    return trs


def print_trs(trs: Trs) -> str:
    """Render deterministically; parse_trs(print_trs(t)) equals t up to
    rule-variable renaming."""
    var_names = sorted(
        {v for r in trs.rules for v in variables(r.lhs) | variables(r.rhs)}
    )
    head = "(VAR" + ("" if not var_names else " " + " ".join(var_names)) + ")"
    lines = [head, "(RULES"]
    for rule in trs.rules:
        lines.append(f"  {format_term(rule.lhs)} -> {format_term(rule.rhs)}")
    lines.append(")")
    return "\n".join(lines) + "\n"


def parse_term(src: str, trs: Trs) -> Term:
    """Parse one ground term against an existing signature (CLI input)."""
    toks = _tokens(src)
    arity = [0] * len(toks)
    post, i = _term(src, toks, 0, arity)
    if toks[i]:
        raise _error_at(src, i, f"expected end of term, found {toks[i]!r}")
    if misfit := _misfit(src, toks, arity, [post], trs.by_name, False):
        raise misfit
    return _build(toks, arity, post, dict(trs.by_name), ())[0]


def encode_input(bits: str) -> Term:
    """Encode a bit string as start(b1 :: ... :: bn :: nil)."""
    acc: Term = App(NIL)
    for b in reversed(bits):
        if b not in ("0", "1"):
            raise ValueError(f"input must consist of 0 and 1, got {b!r}")
        acc = App(CONS, (App(ONE if b == "1" else ZERO), acc))
    return App(START, (acc,))


def has_decision_interface(trs: Trs) -> bool:
    try:
        require_decision_interface(trs)
    except ValueError:
        return False
    return True


def require_decision_interface(trs: Trs) -> None:
    for sym in DECISION_INTERFACE:
        got = trs.by_name.get(sym.name)
        if got is None:
            raise ValueError(f"decision interface symbol {sym} missing")
        if got is not sym:
            raise ValueError(
                f"decision interface needs {sym} ({sym.kind.value}), "
                f"found {got} ({got.kind.value})"
            )
