"""Per-layer report: calls, self time and mean per call of every span, in
every workload, from one traced run each.

    python3 perfbench/layers.py [--seed 1] [--seconds 10]

Runs `run.py --trace 1` once per workload, one after another, prints the
span table of each and then the rows of ROADMAP's baseline table as read
off those spans.  The rows also go to `.bench_build/perfbench/layers-seed<n>.json`
as {name, seconds, calls, basic_ops, python, nproc}.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_build" / "perfbench"

# (row name, workload, phase, system, span): mean self seconds per call of
# the span, or with span None the summed self time of every span there
# (the decide and all it called)
BASELINE = (
    ("square parse_trs", "cli_compiled", "item", "square", "fmt.parse_trs"),
    ("square compile_tm", "machines_demand", "setup", "square", "tm.compile_tm"),
    ("square print_trs", "machines_demand", "setup", "square", "fmt.print_trs"),
    ("square check_cons_free", "machines_demand", "item", "square", "analysis.check_cons_free"),
    ("square check_constrained", "cli_compiled", "item", "square", "analysis.check_constrained"),
    ("square compute_b", "machines_demand", "item", "square", "analysis.compute_b"),
    ("square demand run_tabulation, criterion 7 mix", "machines_demand", "item", "square", "tabulation.run_tabulation"),
    ("membership dense n=32 decide", "corpus_dense", "probe", "membership n=32", None),
)


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload}: traced run exited {done.returncode}")
    with open(OUT / f"result-{workload}-seed{seed}-trace1.json", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    results = {}
    for name in WORKLOADS:
        r = results[name] = traced_run(name, args.seed, args.seconds)
        env = r["environment"]
        print(f"== {name}: seed {env['seed']}, {r['traced_passes']} traced passes, "
              f"python {env['python']}, nproc {env['nproc']}, {env['platform']}")
        print(f"   {'phase':5} {'system':16} {'span':28} {'calls':>7} {'self_s':>10} {'mean_ms':>10}")
        for s in r["spans"]:
            print(f"   {s['phase']:5} {s['label']:16} {s['name']:28} {s['calls']:7d} "
                  f"{s['self_s']:10.6f} {1000 * s['self_s'] / s['calls']:10.4f}")
        for metric, m in r["metrics"].items():
            print(f"   {metric} = {m['value']:.6g} {m['unit']}")

    print("== baseline rows (mean self time per call)")
    rows = []
    for row, workload, phase, label, span in BASELINE:
        r = results[workload]
        hits = [
            s for s in r["spans"]
            if (s["phase"], s["label"]) == (phase, label) and span in (None, s["name"])
        ]
        counted = span or "tabulation.decide"
        calls = sum(s["calls"] for s in hits if s["name"] == counted)
        seconds = sum(s["self_s"] for s in hits) / calls if calls else float("nan")
        ops = r["probe_dense_ops"]["32"] if span is None else None
        rows.append({
            "name": row,
            "seconds": seconds,
            "calls": calls,
            "basic_ops": ops,
            "python": r["environment"]["python"],
            "nproc": r["environment"]["nproc"],
        })
        print(f"   {row:44} {1000 * seconds:10.3f} ms  ({calls} calls, {workload})")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"layers-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
