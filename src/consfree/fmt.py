"""Reading and writing rewrite systems in the `.trs` text format.

    (VAR x xs)
    (RULES
      start(nil) -> true          ; comments run to end of line
      start(cons(0, xs)) -> start(xs)
    )

Identifiers are nonempty runs of [A-Za-z0-9_'].  Whitespace is insignificant.
Symbol arities are inferred from first use and must stay consistent; the
defined/constructor split is inferred from rule heads.  Files are UTF-8.

The decision interface, `DECISION_INTERFACE`, is the reserved vocabulary for
deciding bit strings: start/1 (defined) plus constructors cons/2, nil/0,
true/0, false/0, 0/0, 1/0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


# groups: identifier, punctuation, comment, any other character; whitespace
# matches no group
_TOKEN = re.compile(rf"({IDENT.pattern})|(->|[(),])|[ \t\r\n]+|(;[^\n]*)|(.)")

# (kind, text, offset): kind is "id", "eof" or the punctuation itself
Token = tuple[str, str, int]
# [name, argument count, offset of the name]: a parsed node before symbols
# are known; the count grows while the node's argument list is read
Raw = list


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

    def term(self) -> list[Raw]:
        """One term's nodes in the order their names are read, pre-order,
        with a stack of the nodes whose argument lists are still open, so
        that nesting depth meets no recursion limit."""
        nodes: list[Raw] = []
        open_nodes: list[Raw] = []
        while True:
            _, name, offset = self.take("id", "a term")
            raw: Raw = [name, 0, offset]
            nodes.append(raw)
            if self.peek() == "(":
                self.pos += 1
                if self.peek() != ")":
                    open_nodes.append(raw)
                    continue
                self.take(")")
            while open_nodes:  # a node is complete: close the lists it ends
                open_nodes[-1][1] += 1
                if self.peek() == ",":
                    self.pos += 1
                    break
                self.take(")")
                open_nodes.pop()
            else:
                return nodes

    def file(self) -> tuple[list[str], list[tuple[list[Raw], list[Raw]]]]:
        self.take("(")
        self.keyword("VAR")
        var_names: list[str] = []
        while self.peek() == "id":
            var_names.append(self.take("id")[1])
        self.take(")")
        self.take("(")
        self.keyword("RULES")
        raw_rules: list[tuple[list[Raw], list[Raw]]] = []
        while self.peek() != ")":
            lhs = self.term()
            self.take("->", "'->'")
            raw_rules.append((lhs, self.term()))
        self.take(")")
        self.take("eof", "end of file")
        return var_names, raw_rules


def _arity_error(src: str, raw: Raw, arity: int) -> ParseError:
    name, count, offset = raw
    message = f"{name} used with {count} arguments but has arity {arity}"
    return _error(src, message, offset, name)


def parse_trs(src: str) -> Trs:
    var_names, raw_rules = _Parser(src).file()
    var_of = {name: Var(name) for name in var_names}
    defined = {lhs[0][0] for lhs, _ in raw_rules}
    symbols: dict[str, Symbol] = {}  # arity and kind fixed by the first use

    def resolve(raw: Raw, seen: dict[str, int]) -> Var | Symbol:
        """Check `raw`'s node; note each variable's first offset in `seen`.
        Nodes are resolved in pre-order, so the first error in pre-order is
        raised."""
        name, count, offset = raw
        var = var_of.get(name)
        if var is not None:
            if count:
                message = f"variable {name} applied to arguments"
                raise _error(src, message, offset, name)
            seen.setdefault(name, offset)
            return var
        sym = symbols.get(name)
        if sym is None:
            kind = Kind.DEFINED if name in defined else Kind.CONSTRUCTOR
            sym = symbols[name] = Symbol(name, count, kind)
        elif sym.arity != count:
            raise _arity_error(src, raw, sym.arity)
        return sym

    rules = []
    loose_error = None
    for lhs, rhs in raw_rules:
        lhs_vars: dict[str, int] = {}
        rhs_vars: dict[str, int] = {}
        lt = build([resolve(raw, lhs_vars) for raw in lhs])
        rt = build([resolve(raw, rhs_vars) for raw in rhs])
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
    for lhs, _ in raw_rules:
        name, _, offset = lhs[0]
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
    nodes = parser.term()
    parser.take("eof", "end of term")

    def resolve(r: Raw) -> Symbol:
        name, count, offset = r
        sym = trs.by_name.get(name)
        if sym is None:
            raise _error(src, f"unknown symbol {name}", offset, name)
        if sym.arity != count:
            raise _arity_error(src, r, sym.arity)
        return sym

    return build([resolve(r) for r in nodes])


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
