import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from consfree import __version__, cli, engine
from consfree.cli import main
from consfree.fmt import parse_trs, print_trs
from consfree.terms import Trs
from consfree.tm import compile_tm, parse_tm
from consfree.transforms import bottom_extend

from conftest import CORPUS, MACHINES, ROOT
from test_fuzz import MUTANTS, SEED, mutate

MEM = str(CORPUS / "membership.trs")
DUP = str(CORPUS / "dup_first.trs")
MIX = str(CORPUS / "mix.trs")
LOOP = str(CORPUS / "loop42.trs")
PARITY = str(MACHINES / "parity.tm")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_ok(capsys):
    code, out, _ = run(capsys, "check", MEM)
    assert code == 0
    assert out.splitlines() == [
        "cons-free: ok",
        "semi-linear: ok (all rules)",
        "constrained: ok (A = {mem})",
    ]


def test_check_non_semi_linear_but_constrained(capsys):
    code, out, _ = run(capsys, "check", DUP)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cons-free: ok"
    assert lines[1] == "semi-linear: rule(s) 2 duplicate a direct variable"
    assert lines[2] == "constrained: ok (A = {g})"


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", MIX, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cons_free"] is True
    assert payload["semi_linear"] is False
    assert payload["non_semi_linear_rules"] == [2]
    assert payload["constrained"] is True
    assert payload["witness"] == ["g", "h"]
    assert payload["version"] == __version__


def test_check_violations(capsys, tmp_path):
    bad = tmp_path / "bad.trs"
    bad.write_text("(VAR x)(RULES f(x, x) -> cons(x, nil))\n")
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "cons-free: 2 violation(s)" in out
    assert "constrained: skipped (requires cons-free)" in out


def test_check_not_constrained(capsys, tmp_path):
    src = tmp_path / "notc.trs"
    src.write_text(
        "(VAR x y)(RULES f(x) -> g(x, x) g(x, y) -> h(x, x) h(x, y) -> x)\n"
    )
    code, out, _ = run(capsys, "check", str(src))
    assert code == 0  # cons-free holds, so the command succeeds
    assert "constrained: no (" in out


def test_check_deep_file_under_default_recursion_limit(capsys, tmp_path):
    # the reader, the term builder, the witness search, the system check and
    # the transforms are iterative: a right-hand side nested 2000 deep meets
    # no recursion limit
    deep = tmp_path / "deep.trs"
    deep.write_text(f"(VAR x)(RULES f(x) -> {'g(' * 2000}x{')' * 2000} g(x) -> x)\n")
    code, out, _ = run(capsys, "check", str(deep))
    assert code == 0
    assert out.splitlines() == [
        "cons-free: ok",
        "semi-linear: ok (all rules)",
        "constrained: ok (A = {g})",
    ]
    for xform in ("semilin", "bottom", "both"):
        code, out, _ = run(capsys, "transform", str(deep), "--pass", xform)
        assert code == 0, xform
        assert print_trs(parse_trs(out)) == out, xform


@pytest.mark.parametrize("mode", ["dense", "demand"])
def test_decide_deep_rhs_under_default_recursion_limit(capsys, tmp_path, mode):
    # compiling a right-hand side nested 2000 deep into a rule plan is iterative
    deep = tmp_path / "deep.trs"
    deep.write_text(
        f"(VAR x xs)(RULES start(x) -> {'g(' * 2000}true{')' * 2000} g(x) -> x\n"
        "  h(cons(0, xs)) -> false  h(cons(1, nil)) -> false)\n"
    )
    code, out, _ = run(capsys, "decide", str(deep), "01", "--table-mode", mode)
    assert code == 0
    assert out.splitlines()[0] == "yes"


def test_run_deep_rhs_under_default_recursion_limit(capsys, tmp_path):
    # the oracle builds a right-hand side nested 2000 deep without recursion,
    # and the trace replays it through the iterative apply
    deep = tmp_path / "deep.trs"
    deep.write_text(f"(VAR x)(RULES f(x) -> {'g(' * 2000}x{')' * 2000} g(x) -> x h -> a)\n")
    code, out, _ = run(capsys, "run", str(deep), "f(a)", "--max-steps", "3")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [["e", "0"], ["e", "1"], ["e", "1"]]
    assert lines[-1] == f"result: {'g(' * 1998}a{')' * 1998}"


@pytest.mark.parametrize("engine", ["oracle-full", "oracle-cbv"])
def test_decide_oracle_deep_rhs_under_default_recursion_limit(capsys, tmp_path, engine):
    # the rhs is built without recursion; it is larger than the default size
    # budget, so the search is cut and the verdict is unknown (exit 3)
    deep = tmp_path / "deep.trs"
    deep.write_text(
        f"(VAR x xs)(RULES start(x) -> f(x) f(x) -> {'g(' * 2000}x{')' * 2000}\n"
        "  g(x) -> true  g(x) -> x  h(cons(0, xs)) -> false  h(cons(1, nil)) -> false)\n"
    )
    code, out, _ = run(capsys, "decide", str(deep), "01", "--engine", engine)
    assert code == 3
    assert out.splitlines() == [
        "unknown",
        "explored=2 complete=false truncated_by=size_budget",
    ]


def test_decide_oracle_admits_deep_terms_within_a_step_budget(capsys, tmp_path):
    # the size budget lets the 2000-deep terms in; rewriting g(x) -> x at
    # different depths builds distinct equal terms, which == compares without
    # recursion, and the step budget ends the search after true is reached
    deep = tmp_path / "deep.trs"
    deep.write_text(
        f"(VAR x xs)(RULES start(x) -> f(x) f(x) -> {'g(' * 2000}x{')' * 2000}\n"
        "  g(x) -> true  g(x) -> x  h(cons(0, xs)) -> false  h(cons(1, nil)) -> false)\n"
    )
    code, out, _ = run(capsys, "decide", str(deep), "01", "--engine", "oracle-full",
                       "--max-term-size", "5000", "--max-terms", "50")
    assert code == 0
    assert out.splitlines()[0] == "yes"


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "no/such/file.trs")
    assert code == 2
    assert err


def test_check_parse_error(capsys, tmp_path):
    src = tmp_path / "broken.trs"
    src.write_text("(VAR x)(RULES x -> x)\n")
    code, _, err = run(capsys, "check", str(src))
    assert code == 2
    assert err.startswith("parse error:")


def test_decide_table_yes(capsys):
    code, out, _ = run(capsys, "decide", MEM, "0000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "yes"
    stats = json.loads(lines[1])
    assert stats["generations"] == 7
    assert stats["basic_ops"] == 304
    assert stats["version"] == __version__


@pytest.mark.parametrize("mode", ["dense", "demand"])
def test_decide_long_input_under_default_recursion_limit(mode):
    # its own process, so conftest's raised recursion limit does not apply;
    # a crash would exit 1, the code for "no"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "consfree.cli", "decide", MEM, "0" * 300,
         "--table-mode", mode],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "yes"


def test_decide_ten_thousand_bits_in_demand_mode():
    # every walk on the demand path is iterative: no RecursionError, which
    # would exit 1, the code for "no"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "consfree.cli", "decide", MEM, "0" * 10_000,
         "--table-mode", "demand"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "yes"


def test_decide_table_no(capsys):
    code, out, _ = run(capsys, "decide", MEM, "0100", "--table-mode", "demand")
    assert code == 1
    assert out.splitlines()[0] == "no"


def test_decide_oracle_cbv(capsys):
    code, out, _ = run(capsys, "decide", MEM, "00", "--engine", "oracle-cbv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "yes"
    assert lines[1].startswith("explored=")
    assert "complete=true" in lines[1]
    assert "truncated_by=none" in lines[1]


def test_decide_oracle_unknown_budget(capsys):
    code, out, _ = run(
        capsys, "decide", MEM, "0000", "--engine", "oracle-full", "--max-terms", "2"
    )
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "unknown"
    assert "truncated_by=step_budget" in lines[1]


@pytest.mark.parametrize("engine", ["table", "oracle-full", "oracle-cbv"])
def test_decide_rejects_nonpositive_budget(capsys, engine):
    code, _, err = run(capsys, "decide", MEM, "01", "--engine", engine,
                       "--max-terms", "0")
    assert code == 2
    assert "budgets must be positive" in err


def test_decide_needs_interface(capsys):
    code, _, err = run(capsys, "decide", LOOP, "01")
    assert code == 2
    assert "decision interface" in err


def test_decide_rejects_non_bits(capsys):
    code, _, err = run(capsys, "decide", MEM, "012")
    assert code == 2
    assert "0 and 1" in err


def test_run_prints_trace_and_result(capsys):
    code, out, _ = run(capsys, "run", MEM, "start(cons(0, nil))")
    assert code == 0
    assert out.splitlines() == [
        "e 0 mem(cons(0, nil))",
        "e 2 mem(nil)",
        "e 1 true",
        "result: true",
    ]


def test_run_normal_form(capsys):
    code, out, _ = run(capsys, "run", MEM, "nil")
    assert code == 0
    assert out == "result: nil\n"


def test_run_cbv_strategy(capsys):
    code, out, _ = run(capsys, "run", LOOP, "f(a)", "--strategy", "cbv",
                       "--max-steps", "3")
    assert code == 0
    # call-by-value can only spin on the argument
    assert out.splitlines()[-1] == "result: f(a)"


def test_run_prints_deep_terms(capsys, tmp_path):
    # each step nests f once more; format_term is iterative, so 1201 levels
    # meet no recursion limit
    src = tmp_path / "grow.trs"
    src.write_text("(VAR x)(RULES f(x) -> f(f(x)) g(a) -> a)\n")
    code, out, _ = run(capsys, "run", str(src), "f(a)", "--max-steps", "1200")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1201
    assert lines[-1] == f"result: {'f(' * 1201}a{')' * 1201}"


def test_run_replays_its_trace_once(capsys, tmp_path, monkeypatch):
    # the printed trace and the result come from one replay: one match a step
    src = tmp_path / "grow.trs"
    src.write_text("(VAR x)(RULES f(x) -> f(f(x)) g(a) -> a)\n")
    calls = []
    original = engine.match
    monkeypatch.setattr(engine, "match", lambda p, s: calls.append(p) or original(p, s))
    code, out, _ = run(capsys, "run", str(src), "f(a)", "--max-steps", "40")
    assert code == 0
    assert len(calls) == len(out.splitlines()) - 1 == 40


def test_run_bad_term(capsys):
    code, _, err = run(capsys, "run", MEM, "mem(")
    assert code == 2
    assert "parse error" in err


def test_transform_semilin(capsys):
    code, out, _ = run(capsys, "transform", DUP, "--pass", "semilin")
    assert code == 0
    assert "dup(cons(x, xs), y, y__2) -> g(y, y__2)" in out
    parse_trs(out)  # output must be valid input again


def test_transform_bottom(capsys):
    code, out, _ = run(capsys, "transform", LOOP, "--pass", "bottom")
    assert code == 0
    assert "f(x1) -> bot" in out


def test_transform_both_with_verify(capsys):
    code, out, err = run(capsys, "transform", DUP, "--pass", "both",
                         "--verify", "4")
    assert code == 0
    assert "bot" in out
    assert err.strip().endswith("verify: ok")


def test_transform_trace_map(capsys):
    code, _, err = run(capsys, "transform", DUP, "--pass", "semilin",
                       "--trace-map")
    assert code == 0
    lines = err.splitlines()
    assert "rule 0 -> rule 0" in lines
    assert any(l.startswith("added rule 5:") for l in lines)


def test_transform_not_constrained(capsys, tmp_path):
    src = tmp_path / "notc.trs"
    src.write_text(
        "(VAR x y)(RULES f(x) -> g(x, x) g(x, y) -> h(x, x) h(x, y) -> x)\n"
    )
    code, _, err = run(capsys, "transform", str(src), "--pass", "semilin")
    assert code == 1
    assert err.startswith("not constrained:")


def test_transform_verify_reports_each_failure(capsys, monkeypatch):
    def drop_a_bot(trs):  # bottom_extend without the escape rule of a
        out = bottom_extend(trs)
        return Trs(tuple(r for r in out.rules if str(r) != "a -> bot"), out.signature)

    monkeypatch.setattr(cli, "bottom_extend", drop_a_bot)
    code, out, err = run(capsys, "transform", LOOP, "--pass", "bottom",
                         "--verify", "2")
    assert code == 1
    assert "f(x1) -> bot" in out and "a -> bot" not in out
    assert err.splitlines() == [
        "verify[bottom]: f(a): {b} != {}",
        "verify: FAILED",
    ]


NOT_CONS_FREE = (
    "(VAR x xs)(RULES start(xs) -> f(cons(0, xs)) f(cons(x, xs)) -> true "
    "f(nil) -> false g(1) -> false)\n"
)


@pytest.mark.parametrize(
    "argv",
    [["decide", "01"], ["bench", "--sizes", "2"], ["transform", "--pass", "both"]],
    ids=lambda argv: argv[0],
)
def test_not_cons_free_is_reported_once(capsys, tmp_path, argv):
    src = tmp_path / "builds.trs"
    src.write_text(NOT_CONS_FREE)
    code, out, err = run(capsys, argv[0], str(src), *argv[1:])
    assert code == 1
    assert out == ""
    assert err == (
        "not cons-free: rule 0 (start(xs) -> f(cons(0, xs))): right-hand side "
        "builds new data at cons(0, xs)\n"
    )


def test_compile_tm_to_stdout(capsys):
    code, out, _ = run(capsys, "compile-tm", PARITY)
    assert code == 0
    trs = parse_trs(out)
    assert len(trs.rules) == 136


def test_compile_tm_output_file_and_manifest(capsys, tmp_path):
    dest = tmp_path / "parity.trs"
    code, out, _ = run(capsys, "compile-tm", PARITY, "-o", str(dest),
                       "--manifest")
    assert code == 0
    assert len(parse_trs(dest.read_text()).rules) == 136
    assert "st\tstate lookup" in out.splitlines()


@pytest.mark.parametrize(
    "argv, option, low",
    [
        (["transform", MEM, "--pass", "both", "--verify", "0"], "--verify", 1),
        (["compile-tm", PARITY, "--selftest", "-1"], "--selftest", 0),
        (["run", MEM, "start(nil)", "--max-steps", "-3"], "--max-steps", 0),
    ],
)
def test_counts_below_their_minimum_exit_2(capsys, argv, option, low):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {option}: must be at least {low}" in out.err


def test_compile_tm_selftest(capsys):
    code, out, _ = run(capsys, "compile-tm", PARITY, "--selftest", "3")
    assert code == 0
    assert out.splitlines()[-1] == "15/15 inputs agree"


def test_compile_tm_selftest_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "simulate_tm", lambda tm, bits, fuel: "reject")
    code, out, _ = run(capsys, "compile-tm", PARITY, "--selftest", "3")
    assert code == 1
    agree, total = out.splitlines()[-1].split()[0].split("/")
    assert total == "15" and int(agree) < 15


def test_compile_tm_rejects_high_degree(capsys, tmp_path):
    src = tmp_path / "deg3.tm"
    src.write_text(
        "states: q0 qacc qrej\nstart: q0\naccept: qacc\nreject: qrej\n"
        "blank: _\ntape-alphabet: 0 1 _\nclock-degree: 3\n"
        "delta: q0 1 -> qacc 1 S\n"
    )
    code, _, err = run(capsys, "compile-tm", str(src))
    assert code == 1
    assert err.startswith("cannot compile:")


def test_compile_tm_bad_machine(capsys, tmp_path):
    src = tmp_path / "bad.tm"
    src.write_text("states q0\n")
    code, _, err = run(capsys, "compile-tm", str(src))
    assert code == 1
    assert err.startswith("cannot compile:")


def test_compile_tm_unreadable_file_exits_2(capsys, tmp_path):
    # a file that is not UTF-8 is an input error, as for every other command
    src = tmp_path / "bad.tm"
    src.write_bytes(b"states: q\xff\n")
    code, out, err = run(capsys, "compile-tm", str(src))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", MEM, "--sizes", "4,8")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "n", "k", "generations", "basic_ops", "bound_value", "version", "slope",
    ]
    assert len(rows) == 3
    assert rows[1][0] == "10" and rows[2][0] == "18"  # node counts of start(w)
    assert rows[1][5] == __version__
    float(rows[1][6])  # slope is a number when two sizes are present
    assert rows[1][6] == rows[2][6]


def test_bench_single_size_has_no_slope(capsys):
    code, out, _ = run(capsys, "bench", MEM, "--sizes", "4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    assert rows[1][6] == ""


def test_bench_repeated_size_has_no_slope(capsys):
    # a fit needs two distinct sizes; a repeated one is not a second size
    code, out, _ = run(capsys, "bench", MEM, "--sizes", "4,4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3
    assert rows[1][6] == rows[2][6] == ""


def test_bench_bad_sizes(capsys):
    for sizes in ("4,x", "-3"):
        code, out, err = run(capsys, "bench", MEM, f"--sizes={sizes}")
        assert code == 2, sizes
        assert "bad --sizes" in err, sizes
        assert out == "", sizes


def test_bench_needs_a_size(capsys):
    code, out, err = run(capsys, "bench", MEM, "--sizes", ",")
    assert code == 2
    assert out == ""
    assert err == "at least one size is required\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == f"consfree {__version__}"


def test_console_script_installed(tmp_path):
    # Build the wrapper pip would install from [project.scripts] and run it
    # as its own process, so the declared entry point is checked without an
    # install.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["consfree"]
    module, func = spec.split(":")
    exe = tmp_path / "consfree"
    exe.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    exe.chmod(0o755)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )

    def run_script(bits):
        return subprocess.run(
            [str(exe), "decide", MEM, bits],
            capture_output=True,
            text=True,
            env=env,
        )

    proc = run_script("01")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[0] == "no"
    proc = run_script("00")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "yes"


def test_module_runs_from_a_checkout():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "consfree", "check", "corpus/membership.trs"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "cons-free: ok"


CHECK_DIGEST = "7fb31a7dcc2a06243db683b16ded3922b67ad243e99185d0e5ed23c91e94917b"


def test_check_outcomes_are_pinned(capsys, tmp_path):
    # exit code, stdout and stderr of `check` and `check --json` on each
    # corpus file and the fuzz suite's seeded mutants of it, and on the three
    # compiled machines printed and read back
    sources = []
    for source in sorted(CORPUS.glob("*.trs")):
        rng = random.Random(f"{SEED}:{source.name}")
        text = source.read_text(encoding="utf-8")
        sources += [text, *(mutate(rng, text) for _ in range(MUTANTS))]
    for machine in sorted(MACHINES.glob("*.tm")):
        sources.append(print_trs(compile_tm(parse_tm(machine.read_text())).trs))
    path = tmp_path / "input.trs"
    records, parsed = [], []
    for text in sources:
        path.write_text(text, encoding="utf-8")
        for options in ((), ("--json",)):
            outcome = run(capsys, "check", str(path), *options)
            records.append(repr(outcome))
        if outcome[1]:
            parsed.append(json.loads(outcome[1]))
    assert (len(sources), len(parsed)) == (12 * (MUTANTS + 1) + 3, 217)
    assert sum(not v["cons_free"] for v in parsed) == 12
    assert sum(not v["semi_linear"] for v in parsed) == 36
    assert str(tmp_path) not in "".join(records)
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert digest == CHECK_DIGEST
