"""The benchmark at toy sizes: checks pass, names match, tracing is exact.

Runs every workload once untraced and once traced (20 vehicles, 200
samples, 3 s of portal load at 20 rps), so a wrapper that stops
covering its layer, or a workload whose outputs go wrong, fails here
before anyone measures with it.
"""

import json

import pytest

from bench import harness

CONFIG = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {metric["name"]: metric["unit"] for metric in CONFIG[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in CONFIG["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_toy_run(workload):
    result = harness.run_workload(
        workload, harness.DEFAULT_SEED, 0.0, trace=True,
        params=harness.TOY_SIZES[workload],
    )
    assert result["correct"], result["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared(
        "per_layer"
    )
    for layer in harness.ACTIVE_LAYERS[workload]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
    assert metrics["trace.overhead"]["value"] > 0
    if workload != "portal-mixed":
        plain, traced = result["repeats"][0], result["traced"]
        assert plain["sim_events"] == traced["sim_events"]
        assert plain["digest"] == traced["digest"]


def test_untraced_toy_run_reports_end_to_end_metrics():
    result = harness.run_workload(
        "plugin-dataplane", harness.DEFAULT_SEED, 0.0, trace=False,
        params=harness.TOY_SIZES["plugin-dataplane"],
    )
    assert result["correct"], result["errors"]
    assert len(result["repeats"]) == harness.MIN_REPEATS
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared(
        "end_to_end"
    )
    assert all(m["value"] > 0 for m in metrics.values())
    line = json.loads(harness.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
