"""The benchmark's tracing hooks, run against the package as it is.

`perfbench/tracing.py` wraps consfree's functions by name and its hooks read
what they return, so a change to those names or results would otherwise
show only in a traced benchmark run.
"""

import importlib
import sys
from types import SimpleNamespace

from conftest import ROOT

PERFBENCH_MODULES = ("run", "tracing", "reference", "speed", "workloads")


def test_tracer_runs_the_probe_and_restores_every_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        run = importlib.import_module("run")
        tracing, reference = run.tracing, run.reference
        api = SimpleNamespace(
            **{m: importlib.import_module(f"consfree.{m}") for m in run.MODULES}
        )
        attrs = [attr for _, attr, _, _ in tracing.TARGETS] + ["match"]
        before = {
            (m, attr): getattr(getattr(api, m), attr, None)
            for m in run.MODULES
            for attr in attrs
        }
        tracer = tracing.Tracer(api)
        tracer.install()
        try:
            patched = {
                key
                for key, original in before.items()
                if getattr(getattr(api, key[0]), key[1], None) is not original
            }
            problems, ops = reference.probe(api, ROOT, lambda _: None)
        finally:
            tracer.uninstall()
    finally:
        for name in PERFBENCH_MODULES:
            sys.modules.pop(name, None)
    assert problems == []
    assert ops == reference.PINNED_DENSE_OPS
    assert tracer.counts["tabulation.basic_ops"] > 0
    assert tracer.counts["analysis.b_size.sum"] > 0
    # the table builds its universe through the name tabulation imported
    assert {("analysis", "compute_b"), ("tabulation", "compute_b")} <= patched
    assert ("engine", "match") in patched
    for (m, attr), original in before.items():
        assert getattr(getattr(api, m), attr, None) is original, (m, attr)
