import hashlib
import random
import warnings

import pytest

from consfree.analysis import check_cons_free, check_semi_linear
from consfree.engine import reachable_data
from consfree.fmt import (
    DECISION_INTERFACE,
    START,
    encode_input,
    has_decision_interface,
    parse_term,
    print_trs,
)
from consfree.tabulation import decide, nf, run_tabulation
from consfree.terms import apply, format_term, match
from consfree.tm import TmParseError, TmSpec, compile_tm, parse_tm, simulate_tm

from conftest import load_machine

MINIMAL = """
states: q0 qacc qrej
start: q0
accept: qacc
reject: qrej
blank: _
tape-alphabet: 0 1 _
clock-degree: 1
delta: q0 1 -> qacc 1 S
"""


def test_parse_minimal_and_fill_in():
    tm = parse_tm(MINIMAL)
    assert tm.states == {"q0", "qacc", "qrej"}
    assert tm.clock_degree == 1
    # delta is completed to a total function
    assert len(tm.delta) == 9
    # halting states become absorbing self-loops
    assert tm.delta[("qacc", "0")] == ("qacc", "0", "S")
    # unlisted non-halting pairs reject in place
    assert tm.delta[("q0", "0")] == ("qrej", "0", "S")
    assert tm.delta[("q0", "_")] == ("qrej", "_", "S")


def test_fuel():
    tm = parse_tm(MINIMAL)
    assert tm.fuel(0) == 1
    assert tm.fuel(5) == 11
    tm2 = parse_tm(MINIMAL.replace("clock-degree: 1", "clock-degree: 2"))
    assert tm2.fuel(5) == 31


def test_comments_and_blank_lines():
    tm = parse_tm("# heading\n" + MINIMAL.replace("delta: q0 1 -> qacc 1 S",
                                                  "delta: q0 1 -> qacc 1 S # take it"))
    assert tm.delta[("q0", "1")] == ("qacc", "1", "S")


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda s: s.replace("states: q0 qacc qrej\n", ""), "missing 'states'"),
        (lambda s: s.replace("start: q0", "start: nowhere"), "not declared"),
        (lambda s: s.replace("accept: qacc", "accept: qrej"), "must differ"),
        (lambda s: s.replace("blank: _", "blank: bb"), "not in tape alphabet"),
        (lambda s: s.replace("tape-alphabet: 0 1 _", "tape-alphabet: 1 _"),
         "input symbol '0' missing"),
        (lambda s: s.replace("clock-degree: 1", "clock-degree: zero"),
         "must be an integer"),
        (lambda s: s.replace("clock-degree: 1", "clock-degree: 0"),
         "must be positive"),
        (lambda s: s + "delta: q0 1 -> qacc 1 S\n", "duplicate transition"),
        (lambda s: s + "delta: q0 0 -> q0 0 X\n", "move must be one of"),
        (lambda s: s + "delta: q0 0 -> qmissing 0 S\n", "unknown state"),
        (lambda s: s.lstrip().replace("states: q0", "states: r-x q0"),
         "line 1: bad state name 'r-x'"),
        (lambda s: s.lstrip().replace("q0 1 -> qacc", "q0 2 -> qacc"),
         "line 8: unknown tape symbol '2'"),
        (lambda s: s + "delta: qacc 0 -> q0 0 R\n", "must be absorbing"),
        (lambda s: s + "delta: q0 0 q0 0 S\n", "delta needs the form"),
        (lambda s: s + "oops: 1\n", "unknown key"),
        (lambda s: s + "start: q0\n", "duplicate 'start'"),
        (lambda s: s.replace("states: q0 qacc qrej", "states: q0 q0 qacc qrej"),
         "duplicate state"),
        (lambda s: s.replace("states: q0 qacc qrej", "states:"), "empty state list"),
    ],
)
def test_parse_errors(mangle, message):
    with pytest.raises(TmParseError, match=message):
        parse_tm(mangle(MINIMAL))


def test_missing_clock_degree_warns_and_defaults():
    src = MINIMAL.replace("clock-degree: 1\n", "")
    with pytest.warns(UserWarning, match="clock-degree"):
        tm = parse_tm(src)
    assert tm.clock_degree == 1


def test_simulate_minimal():
    tm = parse_tm(MINIMAL)
    assert simulate_tm(tm, "1", tm.fuel(1)) == "accept"
    assert simulate_tm(tm, "0", tm.fuel(1)) == "reject"
    assert simulate_tm(tm, "", tm.fuel(0)) == "reject"


def test_simulate_timeout():
    tm = parse_tm(MINIMAL + "delta: q0 0 -> q0 0 S\n")
    assert simulate_tm(tm, "0", 50) == "timeout"


def test_simulate_stops_at_a_halting_state_that_is_not_absorbing():
    # built directly, so nothing makes qacc and qrej self-loops: the run
    # ends when it first enters one, and the fuel decides only before that
    tm = parse_tm(MINIMAL)
    looping = TmSpec(**{**vars(tm), "delta": {
        ("q0", "1"): ("qacc", "1", "R"), ("q0", "0"): ("qrej", "0", "R"),
        ("qacc", "_"): ("q0", "1", "L"), ("qrej", "_"): ("q0", "0", "L"),
    }})
    assert [simulate_tm(looping, "1", n) for n in (0, 1, 5)] == ["timeout", "accept", "accept"]
    assert [simulate_tm(looping, "0", n) for n in (0, 1, 5)] == ["timeout", "reject", "reject"]


def test_parity_machine_semantics():
    tm = load_machine("parity")
    expected = {
        "": "reject",
        "1": "accept",
        "11": "reject",
        "101": "reject",
        "111": "accept",
        "0110": "reject",
    }
    for bits, verdict in expected.items():
        assert simulate_tm(tm, bits, tm.fuel(len(bits))) == verdict, bits


def test_contains11_machine_semantics():
    tm = load_machine("contains11")
    for bits in ("", "0", "1", "10", "0101", "110", "0110", "10110"):
        want = "accept" if "11" in bits else "reject"
        assert simulate_tm(tm, bits, tm.fuel(len(bits))) == want, bits


def test_square_machine_accepts_square_lengths():
    """The quadratic-clock machine accepts exactly inputs of square length."""
    tm = load_machine("square")
    assert tm.clock_degree == 2
    squares = {0, 1, 4, 9}
    for n in range(13):
        want = "accept" if n in squares else "reject"
        # verdict depends only on the length, never the bits
        for bits in ("0" * n, ("01" * 7)[:n]):
            assert simulate_tm(tm, bits, tm.fuel(n)) == want, n


def test_square_machine_halts_within_fuel():
    # exact halting times, frozen from a hand-checked simulation
    tm = load_machine("square")
    frozen = [1, 2, 7, 8, 9, 24, 31, 38, 39, 40, 63, 74, 85]
    shift = {"L": -1, "R": 1, "S": 0}
    for n, want_steps in enumerate(frozen):
        tape = {i: c for i, c in enumerate(("01" * 7)[:n])}
        state, pos, steps = tm.start_state, 0, 0
        while state not in (tm.accept_state, tm.reject_state):
            state, written, move = tm.delta[(state, tape.get(pos, tm.blank))]
            tape[pos] = written
            pos += shift[move]
            steps += 1
            assert steps <= tm.fuel(n), n
        assert steps == want_steps, n


def test_compile_rule_counts_and_static_checks():
    for name, count in (("parity", 136), ("contains11", 136), ("square", 569)):
        compiled = compile_tm(load_machine(name))
        assert len(compiled.trs.rules) == count, name
        assert check_cons_free(compiled.trs) == [], name
        assert all(check_semi_linear(r) for r in compiled.trs.rules), name
        assert has_decision_interface(compiled.trs), name


def test_compile_manifest_covers_signature():
    compiled = compile_tm(load_machine("parity"))
    names = {s.name for s in compiled.trs.signature}
    assert names <= set(compiled.symbol_manifest)
    for sym in DECISION_INTERFACE:
        assert compiled.symbol_manifest[sym.name] == "driver"
    assert compiled.symbol_manifest["st"] == "state lookup"


def test_compile_rejects_high_degree():
    src = MINIMAL.replace("clock-degree: 1", "clock-degree: 3")
    with pytest.raises(ValueError, match="clock degree 3"):
        compile_tm(parse_tm(src))


def test_compiled_counter_arithmetic():
    """Digit helpers on the compiled system, against integer arithmetic.

    Counters are base-(n+1); a digit of value d is the length-d suffix of the
    input.  For the all-zero input of length 3: nil is 0, cons(0, nil) is 1,
    and the whole input is 3 (the top digit value).
    """
    ctrs = compile_tm(load_machine("parity")).trs
    w = "cons(0, cons(0, cons(0, nil)))"
    s1 = "cons(0, nil)"
    s2 = "cons(0, cons(0, nil))"
    cases = {
        f"succ0({w}, nil)": {s1},
        f"succ0({w}, {w})": {"nil"},  # wraps at the base
        f"pred0({w}, nil)": {w},  # borrows from above
        f"pred0({w}, {s2})": {s1},
        f"succ1({w}, nil, {w})": {s1},  # carry ripples up
        f"succ1({w}, nil, {s1})": {"nil"},  # no carry, digit unchanged
        f"pred1({w}, {s1}, nil)": {"nil"},
    }
    for expr, want in cases.items():
        got = reachable_data(ctrs, parse_term(expr, ctrs), "cbv")
        assert got.complete, expr
        assert {format_term(t) for t in got.results} == want, expr


def test_compiled_empty_input_is_precomputed():
    compiled = compile_tm(load_machine("parity"))
    got = reachable_data(compiled.trs, parse_term("start(nil)", compiled.trs), "cbv")
    assert {format_term(t) for t in got.results} == {"false"}


def test_compiled_agrees_with_simulation_small():
    tm = load_machine("parity")
    compiled = compile_tm(tm)
    for n in range(4):
        for i in range(2**n):
            bits = format(i, f"0{n}b") if n else ""
            want = simulate_tm(tm, bits, tm.fuel(n)) == "accept"
            got, _ = decide(compiled.trs, bits, mode="demand")
            assert got == want, bits


def test_compiled_text_is_pinned():
    """The compiled systems, byte for byte: a refactor of compile_tm must
    not change what it prints."""
    digests = {
        "parity": "f8f0771afbc92eeb330899b20fbc1ccaa4daa0a6b05056cc6c150b115b9b47a2",
        "contains11": "ddcce32d8da3d36f25ddda273027307eac44da4296706191232619ca6dcde5c6",
        "square": "186563f55857aebba0c807db24e0f3fcea6f09ee27ff90827dc83d72217fbe0e",
    }
    for name, want in digests.items():
        text = print_trs(compile_tm(load_machine(name)).trs)
        assert hashlib.sha256(text.encode()).hexdigest() == want, name


def random_machine(rng: random.Random, degree: int, halting: bool) -> TmSpec:
    """A machine with 2-4 working states q0, q1, ... over tape symbols 0 1 _.

    With `halting`, delta may enter qa (accept) or qr (reject), and about one
    working pair in ten is left unlisted, so it rejects in place.  Without
    it, delta is total on the working states and never leaves them, so no
    run halts before the clock."""
    work = [f"q{i}" for i in range(rng.randint(2, 4))]
    targets = work + ["qa", "qr"] if halting else work
    lines = [
        f"states: {' '.join(work)} qa qr",
        "start: q0",
        "accept: qa",
        "reject: qr",
        "blank: _",
        "tape-alphabet: 0 1 _",
        f"clock-degree: {degree}",
    ]
    for q in work:
        for s in "01_":
            if halting and rng.random() < 0.1:
                continue
            q2, s2, move = rng.choice(targets), rng.choice("01_"), rng.choice("LRS")
            lines.append(f"delta: {q} {s} -> {q2} {s2} {move}")
    return parse_tm("\n".join(lines))


def run_steps(tm: TmSpec, bits: str, steps: int) -> str:
    """The state after exactly `steps` steps."""
    tape = dict(enumerate(bits))
    state, pos = tm.start_state, 0
    shift = {"L": -1, "R": 1, "S": 0}
    for _ in range(steps):
        state, tape[pos], move = tm.delta[(state, tape.get(pos, tm.blank))]
        pos += shift[move]
    return state


INPUTS_UP_TO_4 = [
    format(i, f"0{n}b") if n else "" for n in range(5) for i in range(2**n)
]


@pytest.mark.parametrize("degree", [1, 2])
def test_compiled_verdicts_on_random_machines(degree):
    rng = random.Random(degree)
    for _ in range(10):
        tm = random_machine(rng, degree, halting=True)
        trs = compile_tm(tm).trs
        for bits in INPUTS_UP_TO_4:
            want = simulate_tm(tm, bits, tm.fuel(len(bits))) == "accept"
            got, _ = decide(trs, bits, mode="demand")
            assert got == want, (sorted(tm.delta.items()), bits)


@pytest.mark.parametrize("degree", [1, 2])
def test_compiled_state_at_the_exact_clock(degree):
    """The state the driver reads is the state after exactly T(n) steps.

    A verdict cannot tell a clock one step short when no run halts near
    the clock, so this reads the `st(w, clock)` argument of the driver
    rule `start(cons(x, xs)) -> sx(st(...))` on machines that never halt."""
    rng = random.Random(100 + degree)
    for _ in range(10):
        tm = random_machine(rng, degree, halting=False)
        trs = compile_tm(tm).trs
        (driver,) = [r for _, r in trs.by_head[START] if r.lhs.args[0].args]
        for bits in INPUTS_UP_TO_4[1:]:
            w = encode_input(bits)
            clocked = apply(match(driver.lhs, w), driver.rhs.args[0])
            got = nf(run_tabulation(trs, w, "demand"), clocked)
            want = run_steps(tm, bits, tm.fuel(len(bits)))
            assert {format_term(t) for t in got} == {f"st_{want}"}, (
                sorted(tm.delta.items()),
                bits,
            )
