"""consfree benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload machines_demand --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory and the inputs come from `corpus/` and `machines/`.

--trace 0 measures the end-to-end metrics: set-up time (median of several
set-ups, each re-importing consfree), items per second of busy time,
median and tail item latency, peak resident memory and the share of items
that agree with their reference.  It measures whole rounds until --seconds
have passed and the workload's fixed tail percentile has at least ten items
beyond it; a run that reaches the time cap first is reported as not correct.
Times are scaled to a nominal host speed (see speed.py); the times as
measured are printed and recorded too.

--trace 1 measures the per-layer metrics instead.  It wraps consfree's
public functions from outside (see tracing.py) and alternates traced and
untraced passes over one fixed, seed-derived list of items, for --seconds.
Each pass sets up afresh and runs the pinned probe (reference.probe), so
set-up layers show too.  Counts must repeat exactly from pass to pass.

The last line of standard output is the result as JSON; the lines before it
say the same for a reader, with the environment, and the result also goes to
`.bench_build/perfbench/`, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import reference
import tracing
from speed import REFERENCE_S, HostSpeed
from workloads import WORKLOADS, Draw, Item, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
MODULES = ("terms", "fmt", "analysis", "tabulation", "engine", "transforms", "tm", "cli")
SPEED_EVERY_S = 0.25  # sample the host speed at the first item end after this
TIME_CAP_S = 140.0  # stop measuring by then, whatever --seconds says, to end within 180 s;
# a run stopped there before its tail has ten items beyond it is not correct

PER_LAYER_SPANS = (
    "fmt.parse_trs",
    "fmt.print_trs",
    "tm.compile_tm",
    "analysis.check_cons_free",
    "analysis.compute_b",
    "analysis.check_constrained",
    "analysis.b_safe_terms",
    "tabulation.run_tabulation",
    "tabulation.nf",
    "engine.data_results",
    "transforms.semi_linearize",
    "transforms.bottom_extend",
    "transforms.phi",
    "cli.main",
)
PER_LAYER_CALLS = (
    "fmt.parse_trs",
    "analysis.check_cons_free",
    "analysis.compute_b",
    "tabulation.run_tabulation",
    "engine.data_results",
    "engine.reachable_data",
    "transforms.phi",
    "cli.main",
)


def import_fresh() -> SimpleNamespace:
    """Import consfree from scratch, so set-up time includes the imports."""
    for name in list(sys.modules):
        if name == "consfree" or name.startswith("consfree."):
            del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"consfree.{m}") for m in MODULES})


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (p = 1..99), interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def beyond(n: int, p: int) -> int:
    """How many of n sorted samples lie past the p-th percentile's rank."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def run_item(item: Item) -> tuple[float, bool, str]:
    """(seconds, agrees with reference, verdict); only the call is timed."""
    start = time.perf_counter()
    try:
        outcome = item.call()
    except Exception as exc:  # a crash of the program is a counted failure
        elapsed = time.perf_counter() - start
        return elapsed, False, f"{type(exc).__name__}: {str(exc)[:200]}"
    elapsed = time.perf_counter() - start
    try:
        ok, verdict = item.check(outcome)
    except Exception as exc:  # an outcome the reference cannot read is wrong too
        return elapsed, False, f"unreadable outcome, {type(exc).__name__}: {str(exc)[:200]}"
    return elapsed, ok, verdict


class Digest:
    """Hashes of the inputs and of the verdicts, in item order."""

    def __init__(self) -> None:
        self.inputs = hashlib.sha256()
        self.verdicts = hashlib.sha256()

    def add(self, key: str, verdict: str) -> None:
        self.inputs.update(key.encode() + b"\n")
        self.verdicts.update(key.encode() + b"=" + verdict.encode() + b"\n")

    def values(self) -> tuple[str, str]:
        return self.inputs.hexdigest()[:16], self.verdicts.hexdigest()[:16]


def environment(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def no_label(label: str) -> None:
    pass


def run_plain(w: Workload, seed: int, seconds: float, workdir: Path, t0: float) -> dict:
    speed = HostSpeed()
    raw_setup, setup = [], []
    for _ in range(w.setup_reps):
        state = None
        gc.collect()
        speed.factor()
        start = time.perf_counter()
        api = import_fresh()
        state = w.setup(api, ROOT, workdir, no_label)
        raw_setup.append(time.perf_counter() - start)
        setup.append(raw_setup[-1] * speed.factor())
    gc.collect()

    draw = Draw(seed)
    digest = Digest()
    rounds: list[list[float]] = []  # item times per round, scaled to the nominal host
    raw: list[float] = []
    failures: list[str] = []
    pending: list[tuple[int, float]] = []  # (round, time) since the last speed sample

    def scale_pending() -> None:
        f = speed.factor()
        for r, elapsed in pending:
            raw.append(elapsed)
            rounds[r].append(elapsed * f)
        pending.clear()

    speed.factor()
    start = time.perf_counter()
    attempted = 0
    tail = w.tail_percentile
    while time.perf_counter() - start < seconds or beyond(attempted, tail) < 10:
        if rounds and time.perf_counter() - t0 > TIME_CAP_S:
            break
        rounds.append([])
        for item in w.round(api, state, draw):
            elapsed, ok, verdict = run_item(item)
            pending.append((len(rounds) - 1, elapsed))
            attempted += 1
            digest.add(item.key, verdict)
            if not ok:
                failures.append(f"{item.key}: {verdict}")
            if speed.since() >= SPEED_EVERY_S:
                scale_pending()
    scale_pending()
    latencies = [t for r in rounds for t in r]
    measured = time.perf_counter() - start

    problems, ops = reference.probe(api, ROOT, no_label)
    if beyond(attempted, tail) < 10:
        problems.append(
            f"time cap of {TIME_CAP_S:g} s reached with {beyond(attempted, tail)} items "
            f"beyond p{tail}; latency_tail_ms needs 10"
        )
    failed = len(failures)
    inputs_sha, verdicts_sha = digest.values()
    raw_metrics = {
        "setup_s": statistics.median(raw_setup),
        "items_per_s": len(raw) / sum(raw),
        "latency_p50_ms": statistics.median(raw) * 1000,
        "latency_tail_ms": percentile(raw, tail) * 1000,
    }
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "latency_tail_ms": (percentile(latencies, tail) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
        },
        "record": {
            "inputs_sha": inputs_sha,
            "verdicts_sha": verdicts_sha,
            "tail_percentile": tail,
            "rounds": len(rounds),
            "measured_s": measured,
            "as_measured": raw_metrics,
            "reference_loop_s": speed.samples,
            "probe_dense_ops": ops,
        },
        "notes": [
            f"rounds={len(rounds)} items/round={attempted // len(rounds)} measured_s={measured:.3f}",
            f"latency_tail_ms is p{tail} of {attempted} items ({beyond(attempted, tail)} beyond)",
            f"failed_share = {failed / attempted:.6f} ratio",
            "times scaled to the nominal host; reference loop median "
            f"{statistics.median(speed.samples) * 1000:.3f} ms (nominal {REFERENCE_S * 1000:g} ms)",
            "as measured: " + " ".join(f"{k}={v:.6g}" for k, v in raw_metrics.items()),
            f"inputs_sha={inputs_sha} verdicts_sha={verdicts_sha}",
            f"membership dense basic_ops at n=4/8/16/32: {list(ops.values())}",
            *problems,
            *failures[:10],
        ],
    }


def one_pass(api, w: Workload, tracer: tracing.Tracer, seed: int, tag: str, workdir: Path):
    """Set up, run the probe, then the fixed item list.

    Returns (items, input and verdict digests, failures, probe problems,
    dense membership basic_ops).
    """

    def enter(phase: str):
        def set_label(label: str) -> None:
            tracer.item, tracer.label = f"{phase}:{tag}", label

        return set_label

    state = w.setup(api, ROOT, workdir, enter("setup"))
    problems, ops = reference.probe(api, ROOT, enter("probe"))
    draw = Draw(seed)
    digest = Digest()
    failures = []
    items = 0
    for r in range(w.trace_rounds):
        for i, item in enumerate(w.round(api, state, draw)):
            tracer.item, tracer.label = f"{tag}.{r}.{i}", item.label
            _, ok, verdict = run_item(item)
            digest.add(item.key, verdict)
            items += 1
            if not ok:
                failures.append(f"{item.key}: {verdict}")
    return items, digest.values(), failures, problems, ops


def layer_metrics(passes: list[tracing.PassSummary], walls: dict) -> dict:
    first = passes[0]
    self_s = {name: tracing.median_self(passes, name) for name in first.calls}
    counts, calls = first.counts, first.calls

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {f"{n}.self_s": (self_s.get(n, 0.0), "s") for n in PER_LAYER_SPANS}
    m.update({f"{n}.calls": (calls[n], "count") for n in PER_LAYER_CALLS})
    m["fmt.parse_trs.bytes_per_s"] = (
        ratio(counts["fmt.parse_trs.bytes"], self_s.get("fmt.parse_trs", 0.0)),
        "B/s",
    )
    m["analysis.b_size.mean"] = (
        ratio(counts["analysis.b_size.sum"], calls["analysis.compute_b"]),
        "count",
    )
    m["tabulation.basic_ops"] = (counts["tabulation.basic_ops"], "count")
    m["tabulation.generations"] = (counts["tabulation.generations"], "count")
    m["tabulation.ops_per_s"] = (
        ratio(counts["tabulation.basic_ops"], self_s.get("tabulation.run_tabulation", 0.0)),
        "1/s",
    )
    m["tabulation.facts_per_kop"] = (
        ratio(1000 * counts["tabulation.yes_entries"], counts["tabulation.basic_ops"]),
        "count",
    )
    m["engine.match_calls"] = (counts["engine.match_calls"], "count")
    m["engine.match_hit_ratio"] = (
        ratio(counts["engine.match_hits"], counts["engine.match_calls"]),
        "ratio",
    )
    m["trace.overhead_ratio"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]),
        "ratio",
    )
    return m


def run_traced(w: Workload, seed: int, seconds: float, workdir: Path, t0: float) -> dict:
    api = import_fresh()
    tracer = tracing.Tracer(api)
    passes: list[tracing.PassSummary] = []
    walls: dict[bool, list[float]] = {True: [], False: []}
    digests = set()
    failures: list[str] = []
    problems: list[str] = []
    attempted = 0
    speed = HostSpeed()
    start = time.perf_counter()
    n = 0
    # an untimed warm-up pass, then at least one pair, in alternating order
    schedule = [None]
    while schedule or not walls[False] or (
        time.perf_counter() - start < seconds and time.perf_counter() - t0 < TIME_CAP_S
    ):
        if not schedule:
            schedule = [True, False] if len(passes) % 2 == 0 else [False, True]
        traced = schedule.pop(0)
        gc.collect()
        first, before = len(tracer.spans), tracer.counts.copy()
        speed.factor()
        if traced:
            tracer.install()
        began = time.perf_counter()
        try:
            items, digest, fails, probs, ops = one_pass(api, w, tracer, seed, f"p{n}", workdir)
        finally:
            wall = time.perf_counter() - began
            tracer.uninstall()
        f = speed.factor()
        if traced is not None:
            walls[traced].append(wall * f)
        if traced:
            passes.append(tracing.summarize_pass(tracer, first, before, f))
        attempted += items
        digests.add(digest)
        failures += fails
        problems += probs
        n += 1

    exact = {(p.calls == passes[0].calls and p.counts == passes[0].counts) for p in passes}
    if exact != {True}:
        problems.append("exact counts differ between traced passes")
    if len(digests) != 1:
        problems.append("verdicts differ between passes")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{w.name}-seed{seed}.jsonl")
    inputs_sha, verdicts_sha = sorted(digests)[0]
    metrics = layer_metrics(passes, walls)
    rows = tracing.span_table(tracer.spans)
    table = [
        f"{phase:5} {label:16} {name:28} calls {calls:7d}  self_s {t:10.6f}  mean_ms {1000 * t / calls:10.4f}"
        for phase, label, name, calls, t in rows
    ]
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "record": {
            "inputs_sha": inputs_sha,
            "verdicts_sha": verdicts_sha,
            "traced_passes": len(passes),
            "probe_dense_ops": ops,
            "spans": [
                {"phase": p, "label": lb, "name": nm, "calls": c, "self_s": t}
                for p, lb, nm, c, t in rows
            ],
        },
        "notes": [
            f"passes={len(passes)} traced + {len(walls[False])} untraced + 1 warm-up, "
            f"items/pass={attempted // n}",
            f"inputs_sha={inputs_sha} verdicts_sha={verdicts_sha}",
            "per span over all traced passes, as measured (phase, system, span):",
            *table,
            *problems,
            *failures[:10],
        ],
    }


def main(argv: list[str] | None = None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/consfree", "corpus", "machines") if not (ROOT / p).is_dir()]
    if missing:
        print(f"cannot run: {', '.join(missing)} missing under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    w = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_plain
        result = run(w, args.seed, args.seconds, workdir, t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(w.name, args.seed, args.trace)
    env.update(attempted=result["attempted"], failed=result["failed"])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in result["notes"]:
        print("# " + line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    with open(OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(
            {"environment": env, "correct": result["correct"], "metrics": metrics, **result["record"]},
            fh,
            indent=1,
        )
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
