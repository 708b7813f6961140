"""The four workloads.

Each is a closed loop with one caller: the next item starts when the last
one has finished.  Items come in rounds (one item per system, or per system
and input class), and a run measures whole rounds.  The mix of a run is the
same whatever its seed: input classes are dealt in fixed proportions, and
the seed only picks the bits and start terms inside each class.

A workload sets up once per run (`setup`) and then yields rounds of items
(`round`).  An item's `call` is the only timed code and goes through the
public functions of consfree alone; its `check` compares the outcome with a
reference that is never the code under test, outside the timed region.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reference import CORPUS_LANGUAGES, run_cli

MACHINES = ("parity", "contains11", "square")
MACHINE_MAX_LENGTH = 6  # criterion 7 decides every input up to length 6
DENSE_LENGTHS = (0, 1, 2, 4, 8, 16, 32)
CLI_MAX_LENGTH = 3
DECK_MAX_LENGTH = 8
ORACLE_TERM_SIZE = 7  # the criterion 3/4 sweep's start terms
# Start terms per item; they share one memo per system.  The criterion 3/4
# sweep instead calls data_results once over a system's whole pool (up to
# 156585 terms; mix under cbv takes about 95 s on a 2-core x86-64 VM), far
# more than one run.  With 128, a 25 s run holds about 400 items, so its
# p90 tail has about 40 items beyond it.  A batch shares less memo than the
# whole pool, so an item costs more per term than the sweep does.
ORACLE_BATCH = 128


@dataclass(frozen=True)
class Item:
    label: str  # the system the item runs on
    key: str  # the generated input
    call: Callable[[], object]  # the timed call into consfree
    check: Callable[[object], tuple[bool, str]]  # (agrees, verdict); untimed


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (api, root, workdir, enter) -> state
    round: Callable  # (api, state, draw) -> list[Item]
    setup_reps: int  # set-ups per run; setup_s is their median
    tail_percentile: int  # fixed; a run needs >= 10 items beyond it
    trace_rounds: int  # rounds in one pass of a traced run


class Draw:
    """The seeded inputs of one run.

    Values of one class (say, the bit strings of one length for one system)
    are dealt from a shuffled deck holding each value once, reshuffled when
    spent, so a run covers the short classes evenly whatever its seed.
    Strings longer than DECK_MAX_LENGTH are drawn at random.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._decks: dict[tuple, list] = {}

    def deal(self, key: tuple, values) -> object:
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = list(values)
            self.rng.shuffle(deck)
        return deck.pop()

    def bits(self, stream: str, length: int) -> str:
        if length > DECK_MAX_LENGTH:
            return "".join(self.rng.choice("01") for _ in range(length))
        every = ("".join(t) for t in itertools.product("01", repeat=length))
        return self.deal((stream, length), every)

    def weighted_bits(self, stream: str, max_length: int) -> str:
        """Every string up to max_length once per deck, as criterion 7 decides
        them, so length n has weight 2^n.  The strings of each length are
        shuffled and then spread evenly over the deck, so every prefix of it
        holds each length in proportion too."""
        deck = self._decks.get(("weighted", stream))
        if not deck:
            slots = []
            for length in range(max_length + 1):
                strings = ["".join(t) for t in itertools.product("01", repeat=length)]
                self.rng.shuffle(strings)
                slots += [((i + 0.5) / len(strings), length, s) for i, s in enumerate(strings)]
            deck = self._decks[("weighted", stream)] = [s for _, _, s in sorted(slots, reverse=True)]
        return deck.pop()


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _verdict(want: bool) -> Callable[[bool], tuple[bool, str]]:
    return lambda got: (got is want, "yes" if got else "no")


def _decide(api, trs, bits: str, mode: str) -> bool:
    return api.tabulation.decide(trs, bits, mode=mode)[0]


def _accepts(api, tm, bits: str) -> bool:
    return api.tm.simulate_tm(tm, bits, tm.fuel(len(bits))) == "accept"


def _compile_machines(api, root: Path, enter) -> dict[str, tuple]:
    out = {}
    for name in MACHINES:
        enter(name)
        tm = api.tm.parse_tm(_read(root / "machines" / f"{name}.tm"))
        trs = api.tm.compile_tm(tm).trs
        out[name] = (tm, trs, api.fmt.print_trs(trs))
    return out


def _corpus(api, root: Path, enter) -> dict[str, object]:
    out = {}
    for path in sorted((root / "corpus").glob("*.trs")):
        enter(path.stem)
        out[path.stem] = api.fmt.parse_trs(_read(path))
    return out


# -- machines_demand ----------------------------------------------------------


def machines_setup(api, root: Path, workdir: Path, enter) -> dict:
    return {name: (tm, trs) for name, (tm, trs, _) in _compile_machines(api, root, enter).items()}


def machines_round(api, state: dict, draw: Draw) -> list[Item]:
    items = []
    for name, (tm, trs) in state.items():
        bits = draw.weighted_bits(name, MACHINE_MAX_LENGTH)
        items.append(
            Item(
                name,
                f"{name}:{bits}",
                lambda trs=trs, bits=bits: _decide(api, trs, bits, "demand"),
                _verdict(_accepts(api, tm, bits)),
            )
        )
    return items


# -- corpus_dense -------------------------------------------------------------


def dense_setup(api, root: Path, workdir: Path, enter) -> dict:
    systems = {
        name: trs
        for name, trs in _corpus(api, root, enter).items()
        if api.fmt.has_decision_interface(trs)
    }
    if set(systems) != set(CORPUS_LANGUAGES):
        raise RuntimeError(
            f"corpus decision systems {sorted(systems)} do not match the "
            f"hand-written languages {sorted(CORPUS_LANGUAGES)}"
        )
    return systems


def dense_round(api, state: dict, draw: Draw) -> list[Item]:
    items = []
    for name, trs in state.items():
        for length in DENSE_LENGTHS:
            bits = draw.bits(name, length)
            items.append(
                Item(
                    name,
                    f"{name}:{bits}",
                    lambda trs=trs, bits=bits: _decide(api, trs, bits, "dense"),
                    _verdict(CORPUS_LANGUAGES[name](bits)),
                )
            )
    return items


# -- cli_compiled -------------------------------------------------------------


def cli_setup(api, root: Path, workdir: Path, enter) -> dict:
    out = {}
    for name, (tm, _, text) in _compile_machines(api, root, enter).items():
        path = workdir / f"{name}.trs"
        path.write_text(text, encoding="utf-8")
        out[name] = (tm, str(path))
    return out


def _check_ok(outcome) -> tuple[bool, str]:
    code, out, _ = outcome
    return code == 0 and out.startswith("cons-free: ok"), f"exit {code}"


def _decide_ok(want: bool) -> Callable:
    def check(outcome) -> tuple[bool, str]:
        code, out, _ = outcome
        verdict = "yes" if want else "no"
        return code == (0 if want else 1) and out.split("\n", 1)[0] == verdict, f"exit {code}"

    return check


def cli_round(api, state: dict, draw: Draw) -> list[Item]:
    items = []
    for name, (tm, path) in state.items():
        bits = draw.bits(name, draw.deal((name,), range(CLI_MAX_LENGTH + 1)))
        argv = ["decide", path, bits, "--table-mode", "demand"]
        items.append(Item(name, f"check {name}", lambda p=path: run_cli(api, ["check", p]), _check_ok))
        items.append(
            Item(name, f"decide {name} {bits}", lambda a=argv: run_cli(api, a), _decide_ok(_accepts(api, tm, bits)))
        )
    return items


# -- oracle_sweep -------------------------------------------------------------


@dataclass(frozen=True)
class _Sweep:
    trs: object
    star: object  # semi-linearized
    bottom: object  # semi-linearized, then bottom-extended
    bot: object  # the term bot
    counts: object
    pool: list  # every B-safe start term up to ORACLE_TERM_SIZE nodes


def oracle_setup(api, root: Path, workdir: Path, enter) -> dict:
    out = {}
    for name, trs in _corpus(api, root, enter).items():
        enter(name)
        star = api.transforms.semi_linearize(trs)
        bottom = api.transforms.bottom_extend(star)
        out[name] = _Sweep(
            trs,
            star,
            bottom,
            api.terms.App(bottom.symbol("bot")),
            api.transforms.compute_counts(trs),
            list(api.analysis.b_safe_terms(trs, ORACLE_TERM_SIZE)),
        )
    return out


def _sweep(api, s: _Sweep, batch: list) -> tuple:
    phis = [api.transforms.phi(s.trs, s.counts, t) for t in batch]
    return (
        phis,
        api.engine.data_results(s.trs, batch, "full"),
        api.engine.data_results(s.star, phis, "full"),
        api.engine.data_results(s.bottom, phis, "cbv"),
    )


def _criteria_3_4(s: _Sweep, batch: list) -> Callable:
    def check(outcome) -> tuple[bool, str]:
        phis, orig, star, bottom = outcome
        ok = all(
            orig[t] == star[p] and star[p] == bottom[p] - {s.bot}
            for t, p in zip(batch, phis)
        )
        return ok, ",".join(str(len(orig[t])) for t in batch)

    return check


def oracle_round(api, state: dict, draw: Draw) -> list[Item]:
    items = []
    for name, s in state.items():
        picks = sorted(draw.rng.sample(range(len(s.pool)), min(ORACLE_BATCH, len(s.pool))))
        batch = [s.pool[i] for i in picks]
        items.append(
            Item(
                name,
                f"{name}:{picks}",
                lambda s=s, batch=batch: _sweep(api, s, batch),
                _criteria_3_4(s, batch),
            )
        )
    return items


WORKLOADS = {
    w.name: w
    for w in (
        # criterion 7 traffic: demand tabulation and per-input analysis of
        # the compiled machines dominate; no parsing
        Workload(
            "machines_demand",
            machines_setup,
            machines_round,
            setup_reps=7,
            tail_percentile=90,
            trace_rounds=8,
        ),
        # the paper's reference procedure: dense sweeps over every key, and
        # arity-2 diag shows the n^(3k+3) growth
        Workload(
            "corpus_dense",
            dense_setup,
            dense_round,
            setup_reps=11,
            tail_percentile=99,
            trace_rounds=2,
        ),
        # shell traffic: every check/decide call re-reads and re-parses a
        # compiled machine, so fmt and cli dominate
        Workload(
            "cli_compiled",
            cli_setup,
            cli_round,
            setup_reps=7,
            tail_percentile=75,
            trace_rounds=1,
        ),
        # criterion 3/4 oracle sweeps: engine matching and rewriting
        # dominate, tabulation is idle
        Workload(
            "oracle_sweep",
            oracle_setup,
            oracle_round,
            setup_reps=3,
            tail_percentile=90,
            trace_rounds=2,
        ),
    )
}
