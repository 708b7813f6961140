"""Seeded mutation fuzz of the CLI's exit code contract.

Each bundled `.trs` and `.tm` file is mutated by a few line and token edits,
and every mutant goes through the subcommands in-process.  No exception may
escape `cli.main`, and every exit code is 0-3: 0 and 1 for a verdict, 2 for
bad input (argparse exits 2 too), 3 for an unknown.  Every oracle run and
every reduction gets a small budget, so the slow deep-term shapes listed as
known red in ROADMAP.md cannot hang the suite.
"""

import random
import re

import pytest

from consfree.cli import main

from conftest import CORPUS, MACHINES

SEED = 21
MUTANTS = 40  # per file
TOKEN = re.compile(r"(\w+|->|\S)")
WORD = re.compile(r"\w")
BUDGET = ("--max-terms", "200", "--max-term-size", "40")
BITS = "01"
TERM = "start(cons(0, cons(1, nil)))"
TRS_COMMANDS = (
    ("check",),
    ("check", "--json"),
    ("decide", BITS),
    ("decide", BITS, "--table-mode", "demand"),
    ("decide", BITS, "--engine", "oracle-full", *BUDGET),
    ("decide", BITS, "--engine", "oracle-cbv", *BUDGET),
    ("transform", "--pass", "both"),
    ("run", TERM, "--max-steps", "20"),
)
TM_COMMANDS = (("compile-tm",), ("compile-tm", "--selftest", "2"))


def mutate(rng: random.Random, text: str) -> str:
    """`text` with one to three edits: a line deleted or repeated, a word
    replaced by another of the file's words, two words swapped, or any one
    token deleted."""
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(5)
        if edit < 2:
            lines = text.splitlines(keepends=True)
            lines[rng.randrange(len(lines))] *= edit * 2
            text = "".join(lines)
            continue
        parts = TOKEN.split(text)  # the odd parts are the tokens
        tokens = range(1, len(parts), 2)
        words = [i for i in tokens if WORD.match(parts[i])]
        i, j = rng.choice(words), rng.choice(words)
        if edit == 2:
            parts[i] = parts[j]
        elif edit == 3:
            parts[i], parts[j] = parts[j], parts[i]
        else:
            parts[rng.choice(tokens)] = ""
        text = "".join(parts)
    return text


def exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as stop:  # argparse rejects the arguments
        return stop.code


@pytest.mark.filterwarnings("ignore:no clock-degree line")
@pytest.mark.parametrize(
    "source",
    sorted(CORPUS.glob("*.trs")) + sorted(MACHINES.glob("*.tm")),
    ids=lambda p: p.name,
)
def test_mutants_keep_the_exit_code_contract(capsys, tmp_path, source):
    rng = random.Random(f"{SEED}:{source.name}")
    text = source.read_text(encoding="utf-8")
    path = tmp_path / source.name
    commands = TM_COMMANDS if source.suffix == ".tm" else TRS_COMMANDS
    for n in range(MUTANTS):
        path.write_text(mutate(rng, text), encoding="utf-8")
        for command, *options in commands:
            argv = [command, str(path), *options]
            code = exit_code(argv)
            capsys.readouterr()
            assert code in (0, 1, 2, 3), (n, argv, path.read_text(encoding="utf-8"))
