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

import re
from dataclasses import dataclass
from typing import Callable

from .terms import (
    App,
    Kind,
    Rule,
    Symbol,
    Term,
    Trs,
    Var,
    build,
    format_term,
    variables,
)

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


# groups: identifier, punctuation, comment, any other character; whitespace
# matches no group
_TOKEN = re.compile(r"([A-Za-z0-9_']+)|(->|[(),])|[ \t\r\n]+|(;[^\n]*)|(.)")

# (kind, text, offset): kind is "id", "eof" or the punctuation itself
Token = tuple[str, str, int]
# (name, args, offset of the name): a parsed term before symbols are known
Raw = tuple[str, list, int]


def _error(src: str, message: str, offset: int, text: str) -> ParseError:
    """The error at the token `text` that starts at `offset` (end of input: "")."""
    line = src.count("\n", 0, offset) + 1
    column = offset - src.rfind("\n", 0, offset)
    return ParseError(message, SourceSpan(line, column, len(text) or 1))


def _tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    end = len(src)
    for m in _TOKEN.finditer(src):
        group = m.lastindex
        if group == 1:
            toks.append(("id", m[1], m.start()))
        elif group == 2:
            toks.append((m[2], m[2], m.start()))
        elif group == 3 and m.end() == len(src):
            end = m.start()  # input ending in a comment ends where it starts
        elif group == 4:
            c = m[4]
            message = "stray '-'" if c == "-" else f"unexpected character {c!r}"
            raise _error(src, message, m.start(), c)
    toks.append(("eof", "", end))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def take(self, kind: str, what: str = "") -> Token:
        tok = self.toks[self.pos]
        if tok[0] != kind:
            found = tok[1] or "end of input"
            message = f"expected {what or repr(kind)}, found {found!r}"
            raise _error(self.src, message, tok[2], tok[1])
        self.pos += 1
        return tok

    def keyword(self, word: str) -> None:
        _, text, offset = self.take("id", f"'{word}'")
        if text != word:
            message = f"expected '{word}', found {text!r}"
            raise _error(self.src, message, offset, text)

    def term(self) -> Raw:
        """One term, with a stack of the terms whose argument lists are still
        open, so that nesting depth meets no recursion limit."""
        open_terms: list[Raw] = []
        while True:
            _, name, offset = self.take("id", "a term")
            raw: Raw = (name, [], offset)
            if self.peek() == "(":
                self.pos += 1
                if self.peek() != ")":
                    open_terms.append(raw)
                    continue
                self.take(")")
            while open_terms:  # `raw` is complete: close the lists it ends
                open_terms[-1][1].append(raw)
                if self.peek() == ",":
                    self.pos += 1
                    break
                self.take(")")
                raw = open_terms.pop()
            else:
                return raw

    def file(self) -> tuple[list[str], list[tuple[Raw, Raw]]]:
        self.take("(")
        self.keyword("VAR")
        var_names: list[str] = []
        while self.peek() == "id":
            var_names.append(self.take("id")[1])
        self.take(")")
        self.take("(")
        self.keyword("RULES")
        raw_rules: list[tuple[Raw, Raw]] = []
        while self.peek() != ")":
            lhs = self.term()
            self.take("->", "'->'")
            raw_rules.append((lhs, self.term()))
        self.take(")")
        self.take("eof", "end of file")
        return var_names, raw_rules


def _arity_error(src: str, raw: Raw, arity: int) -> ParseError:
    name, args, offset = raw
    message = f"{name} used with {len(args)} arguments but has arity {arity}"
    return _error(src, message, offset, name)


def _build(raw: Raw, resolve: Callable[[Raw], Var | Symbol]) -> Term:
    """The term `raw` stands for.  `resolve` checks each node in pre-order,
    so the first error in pre-order is raised, and gives its variable or
    symbol."""
    order: list[Var | Symbol] = []
    todo = [raw]
    while todo:
        r = todo.pop()
        order.append(resolve(r))
        if r[1]:
            todo.extend(reversed(r[1]))
    return build(order)


def parse_trs(src: str) -> Trs:
    var_names, raw_rules = _Parser(src).file()
    var_of = {name: Var(name) for name in var_names}
    defined = {lhs[0] for lhs, _ in raw_rules}
    symbols: dict[str, Symbol] = {}  # arity and kind fixed by the first use

    def resolve(raw: Raw, seen: dict[str, int]) -> Var | Symbol:
        """Check `raw`'s node; note each variable's first offset in `seen`."""
        name, args, offset = raw
        var = var_of.get(name)
        if var is not None:
            if args:
                message = f"variable {name} applied to arguments"
                raise _error(src, message, offset, name)
            seen.setdefault(name, offset)
            return var
        sym = symbols.get(name)
        if sym is None:
            kind = Kind.DEFINED if name in defined else Kind.CONSTRUCTOR
            sym = symbols[name] = Symbol(name, len(args), kind)
        elif sym.arity != len(args):
            raise _arity_error(src, raw, sym.arity)
        return sym

    rules = []
    loose_error = None
    for lhs, rhs in raw_rules:
        lhs_vars: dict[str, int] = {}
        rhs_vars: dict[str, int] = {}
        lt = _build(lhs, lambda raw: resolve(raw, lhs_vars))
        rt = _build(rhs, lambda raw: resolve(raw, rhs_vars))
        loose = [v for v in rhs_vars if v not in lhs_vars]
        if loose:
            if loose_error is None:
                message = (
                    f"right-hand side variable {min(loose)} does not occur on the left"
                )
                loose_error = _error(src, message, rhs_vars[loose[0]], loose[0])
        elif isinstance(lt, App):
            rules.append(Rule(lt, rt))
    # arity errors anywhere come first, then variable left-hand sides
    for (name, _, offset), _ in raw_rules:
        if name in var_of:
            message = "left-hand side must not be a variable"
            raise _error(src, message, offset, name)
    if loose_error is not None:
        raise loose_error
    return Trs(tuple(rules))


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

    def resolve(r: Raw) -> Symbol:
        name, args, offset = r
        sym = by_name.get(name)
        if sym is None:
            raise _error(src, f"unknown symbol {name}", offset, name)
        if sym.arity != len(args):
            raise _arity_error(src, r, sym.arity)
        return sym

    return _build(raw, resolve)


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
        if got is not Symbol(name, arity, kind):
            raise ValueError(
                f"decision interface needs {name}/{arity} ({kind.value}), "
                f"found {got.name}/{got.arity} ({got.kind.value})"
            )
