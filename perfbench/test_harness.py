"""Tiny-size self-test of the benchmark harness.

    python3 -m pytest -q perfbench

Runs each workload kind at a few shapes and asserts that every metric
named in BENCHMARK.json is emitted with its unit, that the output checks
pass, and that the tracer survives a target the program no longer has.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import harness

harness.import_program()

import tracer  # noqa: E402  (imports numpy after the program path is set)

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "train-n12": dict(classes=2, per_class=4, views=6, dim=4),
    "stress-n80": dict(classes=2, per_class=2, views=12, dim=4),
    "retrieve-n12": dict(classes=2, per_class=4, views=6, dim=4,
                         fine_per_class=2, tau=harness.math.inf),
}


def tiny(name):
    return dataclasses.replace(harness.WORKLOADS[name], **TINY[name])


def emitted_units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_spec_lists_the_workloads_and_the_tracer_catalogue():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == tracer.PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, lines = harness.measure(tiny(name), seed=3, seconds=0.01,
                                    trace=trace, work=tmp_path)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert emitted_units(result) == {m["name"]: m["unit"] for m in listed}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
        assert parts + m["trace.unattributed_s"] == pytest.approx(
            m["trace.wall_s"], abs=1e-9)


def test_traced_retrieval_counts_layers(tmp_path):
    result, _ = harness.measure(tiny("retrieve-n12"), seed=4, seconds=0.01,
                                trace=True, work=tmp_path)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["graph.hrge_forward.calls"] == 2 * 8    # index + fine labels
    assert m["retrieval.predict_fine.calls"] > 0
    assert m["autograd.grad_fn_used_ratio"] == 0.0
    assert m["retrieval.kept_ratio"] == 1.0          # tau = inf keeps all


def test_missing_target_reports_zero_calls(tmp_path, monkeypatch):
    from hrgenet import autograd
    monkeypatch.delattr(autograd, "segment_sum_rows")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert "autograd.segment_sum_rows" not in t.names
    m = t.metrics(1.0, 1.0, 0, 0, 0.0)
    assert m["autograd.segment_sum_rows.calls"] == 0
    assert {name for name, _, _ in tracer.PER_LAYER} == set(m)


def test_uninstall_restores_every_binding():
    import hrgenet
    from hrgenet import cli, graph, training
    before = (graph.hrge_forward, training.hrge_forward, cli.hrge_forward,
              hrgenet.hrge_forward)
    t = tracer.Tracer()
    t.install()
    assert training.hrge_forward is not before[1]
    t.uninstall()
    assert (graph.hrge_forward, training.hrge_forward, cli.hrge_forward,
            hrgenet.hrge_forward) == before


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    bench = Path(harness.__file__).parent
    copy = tmp_path / bench.name
    copy.mkdir()
    for f in bench.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "train-n12",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
