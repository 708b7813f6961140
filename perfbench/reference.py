"""References the benchmark checks consfree against, and the pinned probe.

The corpus languages are written by hand from each file's header comment,
so a dense verdict is never compared with the code under test.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path
from typing import Callable


def _bools(b: str) -> bool:
    # first bit implies second bit; one bit decides itself; empty rejects
    if not b:
        return False
    if len(b) == 1:
        return b == "1"
    return not (b[0] == "1" and b[1] == "0")


CORPUS_LANGUAGES: dict[str, Callable[[str], bool]] = {
    "alternating": lambda b: all(x != y for x, y in zip(b, b[1:])),
    "any0": lambda b: "0" in b,
    "bools": _bools,
    "choose": lambda b: True,
    "diag": lambda b: True,
    "dup_first": lambda b: b.startswith("1"),
    "last1": lambda b: b.endswith("1"),
    "membership": lambda b: "1" not in b,
    "mix": lambda b: b.startswith("1"),
    "pairs": lambda b: b.startswith("1"),
    "parity": lambda b: b.count("1") % 2 == 0,
}

# dense membership counts frozen in tests/test_tabulation.py and criterion 6
PINNED_DENSE_OPS = {4: 304, 8: 788, 16: 2428, 32: 8396}
PINNED_REJECT = ("0100", 225)


def run_cli(api, argv: list[str]) -> tuple[int, str, str]:
    """consfree's CLI in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def probe(api, root: Path, enter: Callable[[str], None]) -> tuple[list[str], dict[int, int]]:
    """Pinned counts plus one small call into every traced layer.

    Returns (problems, dense membership basic_ops by input length).  The
    pinned dense membership counts show that the benchmark drives the
    procedure the unit tests freeze; the rest is criteria 3 to 5 and
    compile-tm in miniature, so every layer the traced run reports is
    exercised on every workload.
    """
    problems: list[str] = []
    corpus = root / "corpus"

    enter("membership")
    mem_path = corpus / "membership.trs"
    mem = api.fmt.parse_trs(mem_path.read_text(encoding="utf-8"))
    ops = {}
    for n in PINNED_DENSE_OPS:
        enter(f"membership n={n}")
        yes, stats = api.tabulation.decide(mem, "0" * n, mode="dense")
        ops[n] = stats.basic_ops
        if not yes:
            problems.append(f"membership dense rejects 0^{n}")
    if ops != PINNED_DENSE_OPS:
        problems.append(f"membership dense basic_ops {ops} != {PINNED_DENSE_OPS}")
    enter("membership")
    bits, want_ops = PINNED_REJECT
    yes, stats = api.tabulation.decide(mem, bits, mode="dense")
    if yes or stats.basic_ops != want_ops:
        problems.append(f"membership dense on {bits}: {yes}, {stats.basic_ops} ops")

    witness = api.analysis.check_constrained(mem)
    if {s.name for s in witness.a_set} != {"mem"}:
        problems.append("membership witness is not {mem}")
    star = api.transforms.semi_linearize(mem)
    counts = api.transforms.compute_counts(mem)
    terms = list(api.analysis.b_safe_terms(mem, 4))
    phis = [api.transforms.phi(mem, counts, t) for t in terms]
    before = api.engine.data_results(mem, terms, "full")
    after = api.engine.data_results(star, phis, "full")
    if any(before[t] != after[p] for t, p in zip(terms, phis)):
        problems.append("membership semi-linearization changed a result")
    code, out, _ = run_cli(api, ["check", str(mem_path)])
    if code != 0 or not out.startswith("cons-free: ok"):
        problems.append(f"consfree check membership exited {code}")

    # criterion 5: f(a) with a -> a; the cycle sends data_results to its
    # breadth-first fallback
    enter("loop42")
    loop = api.fmt.parse_trs((corpus / "loop42.trs").read_text(encoding="utf-8"))
    fa = api.fmt.parse_term("f(a)", loop)
    b = api.terms.App(loop.symbol("b"))
    extended = api.transforms.bottom_extend(loop)
    bot = api.terms.App(extended.symbol("bot"))
    got = (
        api.engine.data_results(loop, [fa], "full")[fa],
        api.engine.data_results(loop, [fa], "cbv")[fa],
        api.engine.data_results(extended, [fa], "cbv")[fa],
    )
    if got != ({b}, set(), {b, bot}):
        problems.append("loop42 f(a) results differ from criterion 5")

    enter("parity.tm")
    tm = api.tm.parse_tm((root / "machines" / "parity.tm").read_text(encoding="utf-8"))
    compiled = api.tm.compile_tm(tm).trs
    api.fmt.print_trs(compiled)
    if api.analysis.check_cons_free(compiled):
        problems.append("compiled parity machine is not cons-free")
    yes, _ = api.tabulation.decide(compiled, "011", mode="demand")
    if yes != (api.tm.simulate_tm(tm, "011", tm.fuel(3)) == "accept"):
        problems.append("compiled parity machine disagrees with simulation on 011")
    return problems, ops
