"""Spans and counters around consfree's public functions, installed from
outside the package.

`Tracer.install` replaces each traced function in every consfree module that
holds it (so `consfree.analysis.compute_b` and the `compute_b` that
`consfree.tabulation` imported are both wrapped), and `uninstall` puts the
originals back.  Spans are kept in memory as (name, start, end, parent,
item, label) and written out by the caller when the run ends.  Self time of a
span is its duration minus the durations of its direct children; calls are
synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at top
    item: str  # id of the item or set-up step that caused the span
    label: str  # system the item or step works on


def _parse_bytes(counts: Counter, args: tuple, result: object) -> None:
    counts["fmt.parse_trs.bytes"] += len(args[0].encode("utf-8"))


def _b_size(counts: Counter, args: tuple, result: object) -> None:
    counts["analysis.b_size.sum"] += len(result)


def _tabulation(counts: Counter, args: tuple, result: object) -> None:
    counts["tabulation.basic_ops"] += result.stats.basic_ops
    counts["tabulation.generations"] += result.stats.generations
    counts["tabulation.yes_entries"] += sum(m.bit_count() for m in result.entries.values())


# (module, function, span name, hook reading counts off the arguments/result)
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("fmt", "parse_trs", "fmt.parse_trs", _parse_bytes),
    ("fmt", "print_trs", "fmt.print_trs", None),
    ("tm", "compile_tm", "tm.compile_tm", None),
    ("analysis", "check_cons_free", "analysis.check_cons_free", None),
    ("analysis", "check_constrained", "analysis.check_constrained", None),
    ("analysis", "compute_b", "analysis.compute_b", _b_size),
    ("analysis", "b_safe_terms", "analysis.b_safe_terms", None),
    ("tabulation", "decide", "tabulation.decide", None),
    ("tabulation", "run_tabulation", "tabulation.run_tabulation", _tabulation),
    ("tabulation", "nf", "tabulation.nf", None),
    ("engine", "data_results", "engine.data_results", None),
    ("engine", "reachable_data", "engine.reachable_data", None),
    ("transforms", "semi_linearize", "transforms.semi_linearize", None),
    ("transforms", "bottom_extend", "transforms.bottom_extend", None),
    ("transforms", "phi", "transforms.phi", None),
    ("cli", "main", "cli.main", None),
)

class Tracer:
    def __init__(self, api) -> None:
        self.api = api
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.item = "setup"
        self.label = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [getattr(self.api, name) for name in vars(self.api)]
        for module_name, attr, span_name, hook in TARGETS:
            original = getattr(getattr(self.api, module_name), attr)
            target = original
            if inspect.isgeneratorfunction(original):
                # drained inside the span, so that it covers the enumeration;
                # every caller in the benchmark drains it at once anyway
                target = functools.wraps(original)(
                    lambda *a, _f=original, **k: iter(list(_f(*a, **k)))
                )
            wrapper = self._wrap(span_name, target, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        # a bare counter: the oracle calls match millions of times
        self._patch(self.api.engine, "match", self._count_match(self.api.engine.match))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module: object, attr: str, replacement: object) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.item, self.label)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _count_match(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(pattern, subject):
            result = fn(pattern, subject)
            counts["engine.match_calls"] += 1
            if result is not None:
                counts["engine.match_hits"] += 1
            return result

        return wrapper

    def write(self, path) -> None:
        """All spans as JSON lines, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "parent": s.parent,
                    "item": s.item,
                    "label": s.label,
                }
                fh.write(json.dumps(row) + "\n")


def self_times(spans: list[Span], first: int = 0) -> list[float]:
    """Self time of spans[first:], whose parents lie in the same slice."""
    own = [s.end - s.start for s in spans[first:]]
    for s in spans[first:]:
        if s.parent >= first:
            own[s.parent - first] -= s.end - s.start
    return own


@dataclass
class PassSummary:
    """What one traced pass over the fixed item list did, per span name."""

    self_s: dict[str, float]
    calls: Counter
    counts: Counter


def summarize_pass(tracer: Tracer, first: int, counts_before: Counter, scale: float) -> PassSummary:
    """The pass made of spans[first:]; self times multiplied by scale."""
    spans = tracer.spans[first:]
    self_s: dict[str, float] = {}
    calls: Counter = Counter()
    for s, own in zip(spans, self_times(tracer.spans, first)):
        self_s[s.name] = self_s.get(s.name, 0.0) + own * scale
        calls[s.name] += 1
    counts = tracer.counts.copy()
    counts.subtract(counts_before)
    return PassSummary(self_s, calls, +counts)


def span_table(spans: list[Span]) -> list[tuple[str, str, str, int, float]]:
    """(phase, label, span name, calls, self seconds) over all given spans,
    phase being 'setup', 'probe' or 'item'."""
    rows: dict[tuple[str, str, str], list] = {}
    for s, own in zip(spans, self_times(spans)):
        phase = s.item.split(":", 1)[0] if ":" in s.item else "item"
        row = rows.setdefault((phase, s.label, s.name), [0, 0.0])
        row[0] += 1
        row[1] += own
    return [(*key, n, t) for key, (n, t) in sorted(rows.items())]


def median_self(passes: list[PassSummary], name: str) -> float:
    return statistics.median(p.self_s.get(name, 0.0) for p in passes)
