"""bench/tracer.py finds every public name its per-layer metrics read."""

import importlib.util
import sys
from pathlib import Path

import longforce.cli  # noqa: F401  (the tracer wraps the loaded package modules)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_is_found(monkeypatch):
    # A public function removed or renamed in the package leaves a metric that reads
    # 0; layer_metrics names it, as the benchmark's traced run reports it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing written under bench/
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.layer_metrics(t, t, 1, 1.0, 1.0, 0.0, 0.0)[1] == []
    finally:
        t.uninstall()
