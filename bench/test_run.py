"""The metrics run.py reports are the ones BENCHMARK.json declares."""

import json
from pathlib import Path
from types import SimpleNamespace

import run

SPEC = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def declared(kind):
    return [(m["name"], m["unit"]) for m in SPEC[kind]]


def reported(metrics):
    return [(name, unit) for name, (_, unit) in metrics.items()]


def test_end_to_end_metrics_match_the_declaration():
    fake_run = SimpleNamespace(op_seconds={"a": [0.1, 0.3, 0.2], "b": [0.8, 9.0, 0.8]})
    metrics = run.end_to_end(fake_run, [1.0, 1.2], setup_s=0.5, cert_M=5.0)
    assert reported(metrics) == declared("end_to_end")
    assert abs(metrics["op_gmean_ms"][0] - 400.0) < 1e-9  # sqrt(200 * 800)
    assert metrics["wall_s"][0] == 1.1


def test_per_layer_metrics_match_the_declaration():
    tracer = SimpleNamespace(
        counters={"operators.operator_norm.calls": 10, "lmi.solve_feasibility.iterations": 7},
        totals=lambda: {"lmi.solve_feasibility": (2, 0.5, 0.4)},
    )
    metrics = run.per_layer(tracer, [2.0, 2.0], [1.0], import_s=0.1)
    assert reported(metrics) == declared("per_layer")
    assert metrics["operators.operator_norm.calls"][0] == 5
    assert metrics["lmi.solve_feasibility.calls"][0] == 1
    assert metrics["lmi.solve_feasibility.ms"][0] == 250.0
    assert metrics["trace.slowdown"][0] == 2.0
