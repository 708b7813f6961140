"""Deterministic Turing machines: parsing, simulation, compilation.

compile_tm turns a machine with polynomial step bound n^k + n + 1 into a
rewrite system over the decision interface that never builds new data.  The
key obstacles and the tricks used:

- Numbers.  Times and tape positions are base-(n+1) counters; a digit of
  value d is the length-d suffix of the input list, most significant digit
  first.  Times need k+1 digits.  Positions are shifted by (n+1)^(k+1) so
  the two-way infinite tape never goes negative, which takes one digit more.
  Since counters cannot be returned as tuples (that would build data), each
  digit of a successor/predecessor is its own defined symbol succJ/predJ.
- Recurrences.  st(w, t) is the machine state after t steps, headJ(w, t) the
  J-th digit of the head position, rd(w, t, p) the tape symbol at p, and
  hd(w, t, p) whether the head sits at p; each recurses on t-1 and reads the
  tape only along the head trajectory.  Transition lookups dispatch on
  nullary state/symbol constructors (stx/wrx/mvx), one rule per delta entry.
- Semi-linearity.  A bare variable argument may be used at most once on a
  right-hand side, so every multiply-read argument is destructured into its
  nil / cons(h, t) shapes (components of a deeper pattern are exempt from
  the restriction); that is why the recurrence rules fan out over digit
  shape combinations.
- Strictness.  if_eq evaluates both branches under call-by-value, so every
  helper is total on the arguments the computation can demand (e.g. sl
  returns nil once the scan runs off the list).

The step bound digit decomposition is hardwired per degree: k = 1 uses
T = (1, n), k = 2 uses T = (0, n, 1).  Higher degrees also decompose, for
inputs long enough, into digits that are constants or n minus a constant,
but that construction is not implemented yet, so compile_tm rejects them.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from .fmt import DECISION_INTERFACE, IDENT
from .terms import CONSTRUCTOR, DEFINED, App, Kind, Rule, Symbol, Term, Trs, Var

_MOVES = ("L", "R", "S")
# every key but delta, which may repeat; all are required but clock-degree
_KEYS = (
    "states", "start", "accept", "reject", "blank", "tape-alphabet", "clock-degree"
)


class TmParseError(ValueError):
    pass


@dataclass
class TmSpec:
    """A deterministic single-tape machine plus its polynomial step bound.

    delta maps (state, tape symbol) to (state, written symbol, move); it is
    total on non-halting states, and the halting states are absorbing
    (self-loops that stay put).  The input alphabet is fixed to {0, 1}.
    """

    states: frozenset[str]
    start_state: str
    accept_state: str
    reject_state: str
    blank: str
    tape_alphabet: frozenset[str]
    delta: dict[tuple[str, str], tuple[str, str, str]]
    clock_degree: int

    def fuel(self, n: int) -> int:
        return n**self.clock_degree + n + 1


def _idents(value: str, what: str, lineno: int) -> list[str]:
    names = value.split()
    if not names:
        raise TmParseError(f"line {lineno}: empty {what} list")
    for name in names:
        if not IDENT.fullmatch(name):
            raise TmParseError(f"line {lineno}: bad {what} name {name!r}")
    if len(set(names)) != len(names):
        raise TmParseError(f"line {lineno}: duplicate {what} name")
    return names


def parse_tm(text: str) -> TmSpec:
    fields: dict[str, tuple[int, str]] = {}
    delta_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not sep:
            raise TmParseError(f"line {lineno}: expected 'key: value'")
        if key == "delta":
            delta_lines.append((lineno, value))
            continue
        if key not in _KEYS:
            raise TmParseError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise TmParseError(f"line {lineno}: duplicate {key!r} line")
        fields[key] = (lineno, value)

    for req in _KEYS:
        if req not in fields and req != "clock-degree":
            raise TmParseError(f"missing {req!r} line")

    states = _idents(fields["states"][1], "state", fields["states"][0])
    alphabet = _idents(
        fields["tape-alphabet"][1], "tape symbol", fields["tape-alphabet"][0]
    )
    named = {}
    for key in ("start", "accept", "reject"):
        lineno, value = fields[key]
        if value not in states:
            raise TmParseError(f"line {lineno}: {key} state {value!r} not declared")
        named[key] = value
    if named["accept"] == named["reject"]:
        raise TmParseError("accept and reject state must differ")
    lineno, blank = fields["blank"]
    if blank not in alphabet:
        raise TmParseError(f"line {lineno}: blank {blank!r} not in tape alphabet")
    for bit in ("0", "1"):
        if bit not in alphabet:
            raise TmParseError(f"input symbol {bit!r} missing from tape alphabet")

    if "clock-degree" in fields:
        lineno, value = fields["clock-degree"]
        try:
            clock_degree = int(value)
        except ValueError:
            raise TmParseError(f"line {lineno}: clock-degree must be an integer")
        if clock_degree < 1:
            raise TmParseError(f"line {lineno}: clock-degree must be positive")
    else:
        warnings.warn("no clock-degree line, defaulting to 1", stacklevel=2)
        clock_degree = 1

    halting = {named["accept"], named["reject"]}
    delta: dict[tuple[str, str], tuple[str, str, str]] = {}
    for lineno, value in delta_lines:
        tokens = value.split()
        if len(tokens) != 6 or tokens[2] != "->":
            raise TmParseError(
                f"line {lineno}: delta needs the form 'q s -> q2 s2 M'"
            )
        q, s, _, q2, s2, move = tokens
        for state in (q, q2):
            if state not in states:
                raise TmParseError(f"line {lineno}: unknown state {state!r}")
        for sym in (s, s2):
            if sym not in alphabet:
                raise TmParseError(f"line {lineno}: unknown tape symbol {sym!r}")
        if move not in _MOVES:
            raise TmParseError(f"line {lineno}: move must be one of L, R, S")
        if (q, s) in delta:
            raise TmParseError(f"line {lineno}: duplicate transition for ({q}, {s})")
        if q in halting and (q2, s2, move) != (q, s, "S"):
            raise TmParseError(
                f"line {lineno}: halting state {q!r} must be absorbing"
            )
        delta[(q, s)] = (q2, s2, move)

    for q in states:
        for s in alphabet:
            if (q, s) in delta:
                continue
            if q in halting:
                delta[(q, s)] = (q, s, "S")  # complete the absorbing self-loops
            else:
                # unlisted pairs reject in place, so machines only need to
                # spell out the combinations they can actually reach
                delta[(q, s)] = (named["reject"], s, "S")

    return TmSpec(
        states=frozenset(states),
        start_state=named["start"],
        accept_state=named["accept"],
        reject_state=named["reject"],
        blank=blank,
        tape_alphabet=frozenset(alphabet),
        delta=delta,
        clock_degree=clock_degree,
    )


def simulate_tm(tm: TmSpec, bits: str, fuel: int) -> str:
    """Run directly on a two-way infinite tape; "accept", "reject" or
    "timeout" after at most fuel steps."""
    tape = {i: b for i, b in enumerate(bits)}
    state, pos = tm.start_state, 0
    shift = {"L": -1, "R": 1, "S": 0}
    for _ in range(fuel):
        if state in (tm.accept_state, tm.reject_state):
            break
        seen = tape.get(pos, tm.blank)
        state, written, move = tm.delta[(state, seen)]
        tape[pos] = written
        pos += shift[move]
    if state == tm.accept_state:
        return "accept"
    if state == tm.reject_state:
        return "reject"
    return "timeout"


@dataclass
class CompiledTrs:
    trs: Trs
    symbol_manifest: dict[str, str]  # generated symbol name -> role


def _ap(sym: Symbol, *args: Term) -> App:
    return App(sym, tuple(args))


def compile_tm(tm: TmSpec) -> CompiledTrs:
    k = tm.clock_degree
    if k not in (1, 2):
        raise ValueError(
            f"cannot compile clock degree {k}: only degrees 1 and 2 are "
            "implemented so far"
        )
    td, pd = k + 1, k + 2  # digits per time / position counter

    start, cons, nil, true, false, zero, one = DECISION_INTERFACE
    roles = dict.fromkeys((s.name for s in DECISION_INTERFACE), "driver")

    def sym(name: str, arity: int, role: str, kind: Kind = DEFINED) -> Symbol:
        """A generated symbol, its role noted for the manifest."""
        roles[name] = role
        return Symbol(name, arity, kind)

    con = CONSTRUCTOR
    stc = {q: sym(f"st_{q}", 0, "state lookup", con) for q in sorted(tm.states)}
    syc = {a: sym(f"sy_{a}", 0, "tape lookup", con) for a in sorted(tm.tape_alphabet)}
    mvc = {m: sym(f"mv{m}", 0, "head predicate", con) for m in _MOVES}
    sx = sym("sx", 1, "driver")
    st, stx = sym("st", 1 + td, "state lookup"), sym("stx", 2, "state lookup")
    rd, wrx = sym("rd", 1 + td + pd, "tape lookup"), sym("wrx", 2, "tape lookup")
    bitat, b2sym = sym("bitat", 2, "tape lookup"), sym("b2sym", 1, "tape lookup")
    hd, mvx = sym("hd", 1 + td + pd, "head predicate"), sym("mvx", 2, "head predicate")
    mvsel = sym("mvsel", 4, "head predicate")
    head = [sym(f"head{j}", 1 + td, "head predicate") for j in range(pd)]

    arith = "counter arithmetic"
    succ = [sym(f"succ{j}", j + 2, arith) for j in range(pd)]
    pred = [sym(f"pred{j}", j + 2, arith) for j in range(pd)]
    allmax = {j: sym(f"allmax{j}", j + 1, arith) for j in range(1, pd)}
    allzero = {j: sym(f"allzero{j}", j, arith) for j in range(1, pd)}
    eqlen, sl, lst = sym("eqlen", 2, arith), sym("sl", 2, arith), sym("lst", 1, arith)
    if_eq, and_ = sym("if_eq", 3, arith), sym("and", 2, arith)

    NIL, TRUE, FALSE = _ap(nil), _ap(true), _ap(false)
    x, xs, y, ys, z, zs, w, b = (Var(n) for n in "x xs y ys z zs w b".split())
    W = _ap(cons, x, xs)  # every input this system is run on is non-empty
    DJ = _ap(cons, y, ys)
    rules: list[Rule] = []

    # combinators; if_eq and mvsel are strict, their helpers total
    rules += [
        Rule(_ap(if_eq, TRUE, Var("u"), Var("v")), Var("u")),
        Rule(_ap(if_eq, FALSE, Var("u"), Var("v")), Var("v")),
        Rule(_ap(and_, TRUE, b), b),
        Rule(_ap(and_, FALSE, b), FALSE),
        Rule(_ap(eqlen, NIL, NIL), TRUE),
        Rule(_ap(eqlen, NIL, DJ), FALSE),
        Rule(_ap(eqlen, W, NIL), FALSE),
        Rule(_ap(eqlen, W, DJ), _ap(eqlen, xs, ys)),
        # sl(d, s): the suffix of d one element longer than suffix s
        Rule(_ap(sl, NIL, Var("s")), NIL),
        Rule(_ap(sl, W, NIL), _ap(if_eq, _ap(eqlen, xs, NIL), W, _ap(sl, xs, NIL))),
        Rule(_ap(sl, W, DJ), _ap(if_eq, _ap(eqlen, xs, DJ), W, _ap(sl, xs, DJ))),
        Rule(_ap(lst, NIL), NIL),
        Rule(_ap(lst, _ap(cons, x, NIL)), _ap(cons, x, NIL)),
        Rule(_ap(lst, _ap(cons, x, DJ)), _ap(lst, DJ)),
        # bitat(v, s): input symbol |s| places from the front of v
        Rule(_ap(bitat, NIL, Var("s")), _ap(syc[tm.blank])),
        Rule(_ap(bitat, _ap(cons, z, zs), NIL), _ap(b2sym, z)),
        Rule(_ap(bitat, _ap(cons, z, zs), DJ), _ap(bitat, zs, ys)),
        Rule(_ap(b2sym, _ap(zero)), _ap(syc["0"])),
        Rule(_ap(b2sym, _ap(one)), _ap(syc["1"])),
        Rule(_ap(mvsel, _ap(mvc["R"]), Var("u"), Var("v"), Var("q")), Var("u")),
        Rule(_ap(mvsel, _ap(mvc["S"]), Var("u"), Var("v"), Var("q")), Var("v")),
        Rule(_ap(mvsel, _ap(mvc["L"]), Var("u"), Var("v"), Var("q")), Var("q")),
    ]

    # digit arithmetic: succJ/predJ(w, dJ, ..., d0) give digit J of the
    # counter's successor/predecessor, rippling carries from the digits below
    for j in range(pd):
        low = [Var(f"d{i}") for i in range(j)]
        dj = Var("dj")
        if j == 0:
            rules += [
                Rule(_ap(succ[0], NIL, dj), NIL),
                Rule(_ap(succ[0], W, NIL), _ap(sl, W, NIL)),
                Rule(
                    _ap(succ[0], W, DJ),
                    _ap(if_eq, _ap(eqlen, DJ, W), NIL, _ap(sl, W, DJ)),
                ),
                Rule(_ap(pred[0], w, NIL), w),
                Rule(_ap(pred[0], w, DJ), ys),
            ]
        else:
            rules += [
                Rule(_ap(succ[j], NIL, dj, *low), NIL),
                Rule(
                    _ap(succ[j], W, NIL, *low),
                    _ap(if_eq, _ap(allmax[j], W, *low), _ap(sl, W, NIL), NIL),
                ),
                Rule(
                    _ap(succ[j], W, DJ, *low),
                    _ap(
                        if_eq,
                        _ap(allmax[j], W, *low),
                        _ap(if_eq, _ap(eqlen, DJ, W), NIL, _ap(sl, W, DJ)),
                        DJ,
                    ),
                ),
                Rule(
                    _ap(pred[j], w, NIL, *low),
                    _ap(if_eq, _ap(allzero[j], *low), w, NIL),
                ),
                Rule(
                    _ap(pred[j], w, DJ, *low),
                    _ap(if_eq, _ap(allzero[j], *low), ys, DJ),
                ),
            ]

    d0 = Var("d0")
    rules.append(Rule(_ap(allmax[1], w, d0), _ap(eqlen, d0, w)))
    rules += [
        Rule(_ap(allzero[1], NIL), TRUE),
        Rule(_ap(allzero[1], DJ), FALSE),
    ]
    for j in range(2, pd):
        low = [Var(f"d{i}") for i in range(j)]
        rules += [
            Rule(_ap(allmax[j], NIL, *low), TRUE),
            Rule(
                _ap(allmax[j], W, *low),
                _ap(and_, _ap(eqlen, low[0], W), _ap(allmax[j - 1], W, *low[1:])),
            ),
            Rule(_ap(allzero[j], NIL, *low[1:]), _ap(allzero[j - 1], *low[1:])),
            Rule(_ap(allzero[j], DJ, *low[1:]), FALSE),
        ]

    ZEROS_T = [NIL] * td

    def patterns(prefix: str, shapes: tuple[int, ...]) -> list[Term]:
        # digit shapes: 0 is nil, 1 is cons(<prefix>ih, <prefix>it)
        return [
            NIL if s == 0 else _ap(cons, Var(f"{prefix}{i}h"), Var(f"{prefix}{i}t"))
            for i, s in enumerate(shapes)
        ]

    # one entry per time t > 0: its digit patterns, the digits of t - 1 and
    # the head digits after t - 1 steps (most significant first), and the
    # state and symbol that step t - 1 reads; st, rd and headJ at t each
    # apply delta to that one read
    steps = []
    for shapes in list(itertools.product((0, 1), repeat=td))[1:]:  # skip t = 0
        tpats = patterns("t", shapes)
        prev = [_ap(pred[td - 1 - i], W, *tpats[i:]) for i in range(td)]
        heads = [_ap(head[pd - 1 - i], W, *prev) for i in range(pd)]
        read = (_ap(st, W, *prev), _ap(rd, W, *prev, *heads))
        steps.append((tpats, prev, heads, read))

    # st(w, t): machine state after t steps
    rules.append(Rule(_ap(st, W, *ZEROS_T), _ap(stc[tm.start_state])))
    for tpats, _, _, read in steps:
        rules.append(Rule(_ap(st, W, *tpats), _ap(stx, *read)))

    # rd(w, 0, p): the initial tape; input cell i sits at position
    # (n+1)^(k+1) + i, whose digits are (1, 0, ..., 0, i)
    p0 = Var("p0")
    top_shapes = [
        NIL,
        _ap(cons, Var("q0h"), NIL),
        _ap(cons, Var("q0h"), _ap(cons, Var("q1h"), Var("q1t"))),
    ]
    for top in range(3):
        for mids in itertools.product((0, 1), repeat=pd - 2):
            mpats = patterns("m", mids)
            if top == 1 and not any(mids):
                rhs: Term = _ap(bitat, W, p0)
            else:
                rhs = _ap(syc[tm.blank])
            rules.append(Rule(_ap(rd, W, *ZEROS_T, top_shapes[top], *mpats, p0), rhs))

    # rd(w, t, p), t > 0: rewritten by the head, otherwise carried over
    for tpats, prev, _, read in steps:
        written = _ap(wrx, *read)
        for pshapes in itertools.product((0, 1), repeat=pd):
            ppats = patterns("p", pshapes)
            rules.append(
                Rule(
                    _ap(rd, W, *tpats, *ppats),
                    _ap(
                        if_eq,
                        _ap(hd, W, *prev, *ppats),
                        written,
                        _ap(rd, W, *prev, *ppats),
                    ),
                )
            )

    # hd(w, t, p): does the head sit at p after t steps
    pvars = [Var(f"p{i}") for i in range(pd)]
    for shapes in itertools.product((0, 1), repeat=td):
        tpats = patterns("t", shapes)
        eqs = [
            _ap(eqlen, pvars[i], _ap(head[pd - 1 - i], W, *tpats))
            for i in range(pd)
        ]
        chain = eqs[-1]
        for eq in reversed(eqs[:-1]):
            chain = _ap(and_, eq, chain)
        rules.append(Rule(_ap(hd, W, *tpats, *pvars), chain))

    # headJ(w, t): digit J of the head position; starts at the shift
    # (n+1)^(k+1) = (1, 0, ..., 0) and follows the moves of delta
    for j in range(pd):
        at_zero = _ap(lst, W) if j == pd - 1 else NIL
        rules.append(Rule(_ap(head[j], W, *ZEROS_T), at_zero))
    for tpats, _, heads, read in steps:
        move = _ap(mvx, *read)
        for j in range(pd):
            low = heads[pd - 1 - j :]
            rules.append(
                Rule(
                    _ap(head[j], W, *tpats),
                    _ap(
                        mvsel,
                        move,
                        _ap(succ[j], W, *low),
                        heads[pd - 1 - j],
                        _ap(pred[j], W, *low),
                    ),
                )
            )

    # transition table, one rule per (state, symbol)
    for (q, s), (q2, s2, move) in sorted(tm.delta.items()):
        lhs_args = (_ap(stc[q]), _ap(syc[s]))
        rules += [
            Rule(_ap(stx, *lhs_args), _ap(stc[q2])),
            Rule(_ap(wrx, *lhs_args), _ap(syc[s2])),
            Rule(_ap(mvx, *lhs_args), _ap(mvc[move])),
        ]

    for q in sorted(tm.states):
        verdict = TRUE if q == tm.accept_state else FALSE
        rules.append(Rule(_ap(sx, _ap(stc[q])), verdict))

    # driver: state after exactly n^k + n + 1 steps, with the empty input
    # folded in at compile time (its counters would be base 1)
    empty = simulate_tm(tm, "", tm.fuel(0))
    rules.append(Rule(_ap(start, NIL), TRUE if empty == "accept" else FALSE))
    clock = [_ap(lst, W), W] if k == 1 else [NIL, W, _ap(lst, W)]
    rules.append(Rule(_ap(start, W), _ap(sx, _ap(st, W, *clock))))

    trs = Trs(tuple(rules), DECISION_INTERFACE)
    return CompiledTrs(trs=trs, symbol_manifest=roles)
