"""Shared fixtures: the bundled example systems and machines."""

from __future__ import annotations

from pathlib import Path

import pytest

from consfree.fmt import parse_trs
from consfree.tm import parse_tm

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
MACHINES = ROOT / "machines"

CORPUS_NAMES = sorted(p.stem for p in CORPUS.glob("*.trs"))


def load_system(name: str):
    return parse_trs((CORPUS / f"{name}.trs").read_text(encoding="utf-8"))


def load_machine(name: str):
    return parse_tm((MACHINES / f"{name}.tm").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def corpus():
    return {name: load_system(name) for name in CORPUS_NAMES}
