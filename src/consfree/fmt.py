"""Reading and writing rewrite systems in the `.trs` text format.

    (VAR x xs)
    (RULES
      start(nil) -> true          ; comments run to end of line
      start(cons(0, xs)) -> start(xs)
    )

Identifiers are nonempty runs of [A-Za-z0-9_'].  Whitespace is insignificant.
Symbol arities are inferred from first use and must stay consistent; the
defined/constructor split is inferred from rule heads.  Files are UTF-8.

The decision interface is the reserved vocabulary for deciding bit strings:
start/1 (defined) plus constructors cons/2, nil/0, true/0, false/0, 0/0, 1/0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .terms import App, Kind, Rule, Symbol, Term, Trs, Var, format_term, variables

IDENT_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'"
)

DECISION_INTERFACE: tuple[tuple[str, int, Kind], ...] = (
    ("start", 1, Kind.DEFINED),
    ("cons", 2, Kind.CONSTRUCTOR),
    ("nil", 0, Kind.CONSTRUCTOR),
    ("true", 0, Kind.CONSTRUCTOR),
    ("false", 0, Kind.CONSTRUCTOR),
    ("0", 0, Kind.CONSTRUCTOR),
    ("1", 0, Kind.CONSTRUCTOR),
)


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


@dataclass(frozen=True)
class _Token:
    kind: str  # "(" ")" "," "->" "id" "eof"
    text: str
    span: SourceSpan


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == ";":
            while i < n and src[i] != "\n":
                i += 1
        elif c in "(),":
            toks.append(_Token(c, c, SourceSpan(line, col, 1)))
            i += 1
            col += 1
        elif c == "-":
            if i + 1 < n and src[i + 1] == ">":
                toks.append(_Token("->", "->", SourceSpan(line, col, 2)))
                i += 2
                col += 2
            else:
                raise ParseError("stray '-'", SourceSpan(line, col, 1))
        elif c in IDENT_CHARS:
            j = i
            while j < n and src[j] in IDENT_CHARS:
                j += 1
            toks.append(_Token("id", src[i:j], SourceSpan(line, col, j - i)))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", SourceSpan(line, col, 1))
    toks.append(_Token("eof", "", SourceSpan(line, col, 1)))
    return toks


@dataclass
class _Raw:
    name: str
    args: list["_Raw"]
    span: SourceSpan


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self, kind: str, what: str = "") -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != kind:
            expected = what or f"'{kind}'"
            found = tok.text or "end of input"
            raise ParseError(f"expected {expected}, found {found!r}", tok.span)
        self.pos += 1
        return tok

    def keyword(self, word: str) -> None:
        tok = self.take("id", f"'{word}'")
        if tok.text != word:
            raise ParseError(f"expected '{word}', found {tok.text!r}", tok.span)

    def term(self) -> _Raw:
        head = self.take("id", "a term")
        args: list[_Raw] = []
        if self.peek().kind == "(":
            self.take("(")
            if self.peek().kind != ")":
                args.append(self.term())
                while self.peek().kind == ",":
                    self.take(",")
                    args.append(self.term())
            self.take(")")
        return _Raw(head.text, args, head.span)

    def file(self) -> tuple[list[tuple[str, SourceSpan]], list[tuple[_Raw, _Raw]]]:
        self.take("(")
        self.keyword("VAR")
        var_list: list[tuple[str, SourceSpan]] = []
        while self.peek().kind == "id":
            tok = self.take("id")
            var_list.append((tok.text, tok.span))
        self.take(")")
        self.take("(")
        self.keyword("RULES")
        raw_rules: list[tuple[_Raw, _Raw]] = []
        while self.peek().kind != ")":
            lhs = self.term()
            self.take("->", "'->'")
            rhs = self.term()
            raw_rules.append((lhs, rhs))
        self.take(")")
        self.take("eof", "end of file")
        return var_list, raw_rules


def parse_trs(src: str) -> Trs:
    var_list, raw_rules = _Parser(src).file()
    var_names = {name for name, _ in var_list}
    arities: dict[str, tuple[int, SourceSpan]] = {}

    def check_arities(raw: _Raw) -> None:
        if raw.name in var_names:
            if raw.args:
                raise ParseError(
                    f"variable {raw.name} applied to arguments", raw.span
                )
        else:
            known = arities.get(raw.name)
            if known is None:
                arities[raw.name] = (len(raw.args), raw.span)
            elif known[0] != len(raw.args):
                raise ParseError(
                    f"{raw.name} used with {len(raw.args)} arguments "
                    f"but has arity {known[0]}",
                    raw.span,
                )
        for a in raw.args:
            check_arities(a)

    for lhs, rhs in raw_rules:
        check_arities(lhs)
        check_arities(rhs)

    defined = set()
    for lhs, _ in raw_rules:
        if lhs.name in var_names:
            raise ParseError(
                "left-hand side must not be a variable", lhs.span
            )
        defined.add(lhs.name)
    symbols = {
        name: Symbol(
            name,
            arity,
            Kind.DEFINED if name in defined else Kind.CONSTRUCTOR,
        )
        for name, (arity, _) in arities.items()
    }

    def build(raw: _Raw) -> Term:
        if raw.name in var_names:
            return Var(raw.name)
        return App(symbols[raw.name], tuple(build(a) for a in raw.args))

    rules = []
    for lhs, rhs in raw_rules:
        lt, rt = build(lhs), build(rhs)
        loose = variables(rt) - variables(lt)
        if loose:

            def find(raw: _Raw) -> Optional[SourceSpan]:
                if raw.name in loose:
                    return raw.span
                for a in raw.args:
                    hit = find(a)
                    if hit is not None:
                        return hit
                return None

            raise ParseError(
                f"right-hand side variable {sorted(loose)[0]} "
                "does not occur on the left",
                find(rhs) or rhs.span,
            )
        rules.append(Rule(lt, rt))
    signature = tuple(symbols[name] for name in sorted(symbols))
    return Trs(signature, tuple(rules))


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
    parser = _Parser(src)
    raw = parser.term()
    parser.take("eof", "end of term")
    by_name = {s.name: s for s in trs.signature}

    def build(r: _Raw) -> Term:
        sym = by_name.get(r.name)
        if sym is None:
            raise ParseError(f"unknown symbol {r.name}", r.span)
        if sym.arity != len(r.args):
            raise ParseError(
                f"{r.name} used with {len(r.args)} arguments "
                f"but has arity {sym.arity}",
                r.span,
            )
        return App(sym, tuple(build(a) for a in r.args))

    return build(raw)


_START = Symbol("start", 1, Kind.DEFINED)
_CONS = Symbol("cons", 2, Kind.CONSTRUCTOR)
_NIL = Symbol("nil", 0, Kind.CONSTRUCTOR)
_BITS = {
    "0": Symbol("0", 0, Kind.CONSTRUCTOR),
    "1": Symbol("1", 0, Kind.CONSTRUCTOR),
}


def encode_input(bits: str) -> Term:
    """Encode a bit string as start(b1 :: ... :: bn :: nil)."""
    acc: Term = App(_NIL)
    for b in reversed(bits):
        if b not in _BITS:
            raise ValueError(f"input must consist of 0 and 1, got {b!r}")
        acc = App(_CONS, (App(_BITS[b]), acc))
    return App(_START, (acc,))


def has_decision_interface(trs: Trs) -> bool:
    try:
        require_decision_interface(trs)
    except ValueError:
        return False
    return True


def require_decision_interface(trs: Trs) -> None:
    by_name = {s.name: s for s in trs.signature}
    for name, arity, kind in DECISION_INTERFACE:
        got = by_name.get(name)
        if got is None:
            raise ValueError(f"decision interface symbol {name}/{arity} missing")
        if got != Symbol(name, arity, kind):
            raise ValueError(
                f"decision interface needs {name}/{arity} ({kind.value}), "
                f"found {got.name}/{got.arity} ({got.kind.value})"
            )
