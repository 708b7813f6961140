"""Determinism check of the benchmark itself.

    python3 perfbench/determinism.py [--seed 1] [--seconds 4]

For every workload, runs `run.py --trace 1` twice with one seed and once
with the next seed, each in its own process (so with its own hash seed).
The two same-seed runs must agree exactly on the verdicts and on every
exact count: tabulation.basic_ops, tabulation.generations,
analysis.b_size.mean, engine.match_calls and all `.calls`.  The other seed
must change the inputs.  Every run also checks the pinned dense membership
counts (reference.PINNED_DENSE_OPS) and must report itself correct.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import sys

from layers import traced_run
from workloads import WORKLOADS

EXACT = ("tabulation.basic_ops", "tabulation.generations", "analysis.b_size.mean", "engine.match_calls")


def exact_counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name in EXACT or name.endswith(".calls")
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args()

    failed = []
    for name in WORKLOADS:
        first, again, other = (
            traced_run(name, seed, args.seconds) for seed in (args.seed, args.seed, args.seed + 1)
        )
        checks = {
            "every run correct": all(r["correct"] for r in (first, again, other)),
            "same seed, same verdicts": first["verdicts_sha"] == again["verdicts_sha"],
            "same seed, same exact counts": exact_counts(first) == exact_counts(again),
            "other seed, other inputs": first["inputs_sha"] != other["inputs_sha"],
        }
        for check, ok in checks.items():
            print(f"{name:16} {check:30} {'PASS' if ok else 'FAIL'}")
            if not ok:
                failed.append((name, check))
        print(f"{name:16} exact counts: {exact_counts(first)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
