"""End-to-end acceptance checks.

One test per criterion; the pytest verdict line is the pass/fail signal, and
each test also prints a one-line summary with the measured numbers (visible
with -s or on failure).  The transformation sweeps in criteria 3 and 4 walk
every eligible start term up to seven nodes, so this module dominates the
suite's runtime.
"""

import itertools
import math
import random
import statistics
import time

import pytest

from consfree.analysis import (
    b_safe_terms,
    check_cons_free,
    check_constrained,
    check_semi_linear,
    compute_b,
    is_b_safe,
    verify_constrained_witness,
)
from consfree.engine import Oracle, reachable_data, step_full
from consfree.fmt import encode_input, parse_term
from consfree.tabulation import decide, nf, run_tabulation, stats_bound_check
from consfree.terms import App, format_term, is_data
from consfree.tm import compile_tm, simulate_tm
from consfree.transforms import (
    bottom_extend,
    compute_counts,
    phi,
    semi_linearize,
    verify_bottom_extension,
    verify_semi_linearization,
)

from conftest import CORPUS_NAMES, load_machine, load_system

# pinned start inputs keeping every per-run data universe small
TABLE_INPUTS = {
    "alternating": "01",
    "any0": "10",
    "bools": "10",
    "choose": "01",
    "diag": "01",
    "dup_first": "01",
    "last1": "01",
    "membership": "00",
    "mix": "10",
    "pairs": "01",
    "parity": "10",
}


def pinned_start(name, trs):
    if name == "loop42":
        return parse_term("f(a)", trs)
    return encode_input(TABLE_INPUTS[name])


def test_criterion_1_table_matches_oracle_on_every_cell(corpus):
    """Criterion 1: tabulation agrees with the call-by-value oracle."""
    t0 = time.perf_counter()
    assert len(corpus) >= 10
    cells = 0
    for name, trs in corpus.items():
        assert max(s.arity for s in trs.defined()) <= 2, name
        start = pinned_start(name, trs)
        table = run_tabulation(trs, start, "dense")
        assert len(table.b) <= 12, name
        for sym in trs.defined():
            for combo in itertools.product(table.items, repeat=sym.arity):
                call = App(sym, combo)
                oracle = reachable_data(trs, call, "cbv")
                assert oracle.complete, (name, format_term(call))
                assert nf(table, call) == oracle.results, (name, format_term(call))
                cells += 1
    elapsed = time.perf_counter() - t0
    assert cells >= 500
    assert elapsed < 10.0
    print(
        f"criterion 1: PASS - {cells} table cells across {len(corpus)} systems "
        f"match the call-by-value oracle in {elapsed:.2f}s"
    )


def test_criterion_2_random_reductions_never_leave_the_universe(corpus):
    """Criterion 2: 1000 seeded random traces per system stay B-safe."""
    rng = random.Random(1729)
    checked = 0
    for name, trs in corpus.items():
        # data terms are already normal forms, so sample real work only
        pool = [
            t
            for t in itertools.islice(b_safe_terms(trs, 5), 8000)
            if not is_data(t)
        ]
        for _ in range(1000):
            start = pool[rng.randrange(len(pool))]
            b = compute_b(trs, start)
            term = start
            for _ in range(50):
                steps = step_full(trs, term)
                if not steps:
                    break
                term = steps[rng.randrange(len(steps))].after
                assert is_b_safe(b, term), (
                    f"{name}: {format_term(start)} stepped outside its "
                    f"universe at {format_term(term)}"
                )
                checked += 1
    print(
        f"criterion 2: PASS - {len(corpus) * 1000} random traces, "
        f"{checked} steps, zero safety violations"
    )


@pytest.fixture(scope="module")
def transform_sweeps(corpus):
    """The transform verifiers on every start term up to 7 nodes: one
    unbudgeted oracle each for the original and the semi-linearized system
    under full rewriting, and for the bottom extension under call-by-value."""
    out = {}
    for name, trs in corpus.items():
        star = semi_linearize(trs)
        counts = compute_counts(trs)
        terms = list(b_safe_terms(trs, 7))
        phis = [phi(trs, counts, t) for t in terms]
        star_full = Oracle(star, "full")
        bottom_cbv = Oracle(bottom_extend(star), "cbv")
        out[name] = {
            "star": star,
            "terms": len(terms),
            "semilin": verify_semi_linearization(
                Oracle(trs, "full"), star_full, terms, phis
            ),
            "bottom": verify_bottom_extension(star_full, bottom_cbv, phis),
        }
    return out


def test_criterion_3_semi_linearization_preserves_results(corpus, transform_sweeps):
    """Criterion 3: same reachable data before and after widening."""
    total = 0
    for name, trs in corpus.items():
        sweep = transform_sweeps[name]
        star = sweep["star"]
        assert check_cons_free(star) == [], name
        assert all(check_semi_linear(r) for r in star.rules), name
        assert sweep["semilin"] == [], name
        total += sweep["terms"]
    print(
        f"criterion 3: PASS - reachable data preserved on {total} start terms "
        f"across {len(corpus)} systems"
    )


def test_criterion_4_bottom_extension_makes_cbv_complete(corpus, transform_sweeps):
    """Criterion 4: call-by-value plus the escape hatch equals full rewriting."""
    total = 0
    for name in corpus:
        sweep = transform_sweeps[name]
        assert sweep["bottom"] == [], name
        total += sweep["terms"]
    print(
        f"criterion 4: PASS - call-by-value results match full rewriting "
        f"(minus bot) on {total} terms"
    )


def test_criterion_5_strategy_gap_demonstrated_exactly():
    """Criterion 5: the looping-argument example behaves exactly as documented."""
    loop = load_system("loop42")
    fa = parse_term("f(a)", loop)
    b = App(loop.symbol("b"))

    full = reachable_data(loop, fa, "full")
    assert full.complete and full.results == frozenset({b})

    cbv = reachable_data(loop, fa, "cbv")
    assert cbv.complete and cbv.results == frozenset()

    extended = bottom_extend(loop)
    bot = App(extended.symbol("bot"))
    ext_cbv = reachable_data(extended, fa, "cbv")
    assert ext_cbv.complete and ext_cbv.results == frozenset({b, bot})
    print(
        "criterion 5: PASS - full reaches {b}, call-by-value reaches nothing, "
        "the extension reaches {b, bot}"
    )


def test_criterion_6_operation_count_stays_polynomial():
    """Criterion 6: basic operations within c * n^(3k+3), exponent well below 6.5."""
    t0 = time.perf_counter()
    mem = load_system("membership")
    rows = []
    for n in (4, 8, 16, 32):
        yes, stats = decide(mem, "0" * n, mode="dense")
        assert yes, n  # the all-zero string is in the language
        rows.append(stats)
    c = rows[0].basic_ops / rows[0].bound_value
    for stats in rows:
        assert stats_bound_check(stats, c), stats
    fit = statistics.linear_regression(
        [math.log(r.input_size) for r in rows],
        [math.log(r.basic_ops) for r in rows],
    )
    elapsed = time.perf_counter() - t0
    assert fit.slope <= 6.5
    assert elapsed < 30.0
    print(
        f"criterion 6: PASS - ops {[r.basic_ops for r in rows]} under "
        f"c*n^6 with c={c:.2e}, log-log slope {fit.slope:.2f} in {elapsed:.2f}s"
    )


def test_criterion_7_compiled_machines_agree_with_simulation():
    """Criterion 7: compiled machines decide exactly like direct simulation."""
    t0 = time.perf_counter()
    total = 0
    for name in ("parity", "contains11", "square"):
        tm = load_machine(name)
        compiled = compile_tm(tm).trs
        assert check_cons_free(compiled) == [], name
        assert all(check_semi_linear(r) for r in compiled.rules), name
        for length in range(7):
            for tup in itertools.product("01", repeat=length):
                bits = "".join(tup)
                want = simulate_tm(tm, bits, tm.fuel(length)) == "accept"
                got, _ = decide(compiled, bits, mode="demand")
                assert got == want, (name, bits)
                total += 1
    elapsed = time.perf_counter() - t0
    assert total == 3 * 127
    assert elapsed < 60.0
    print(
        f"criterion 7: PASS - {total} machine inputs agree with simulation "
        f"in {elapsed:.2f}s"
    )


def test_criterion_8_witnesses_survive_independent_reverification(corpus):
    """Criterion 8: every found witness passes the direct checker."""
    for name, trs in corpus.items():
        witness = check_constrained(trs)
        assert verify_constrained_witness(trs, witness), name
    print(
        f"criterion 8: PASS - {len(corpus)} witness sets re-verified "
        "by the independent checker"
    )


def test_corpus_names_are_stable():
    # the pinned inputs cover exactly the bundled systems
    assert set(TABLE_INPUTS) | {"loop42"} == set(CORPUS_NAMES)
