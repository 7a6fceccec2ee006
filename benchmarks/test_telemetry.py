"""TELEMETRY — bus throughput under load, soak-gate cost, drop bounds.

Producer of ``BENCH_telemetry.json`` (written at the repo root,
untracked, and uploaded as a CI artifact): quantifies the observability
pipeline.

* ``soak_gate_scenario`` — the acceptance scenario end to end: a
  plug-in that installs cleanly everywhere but traps during soak is
  rolled back by the :class:`~repro.telemetry.SoakPolicy`, while the
  same campaign without the anomaly promotes through every wave.
  Records each campaign's embedded metric snapshot (time-to-promote,
  rollback latency, outbox pressure, telemetry drop counts).
* ``bus_load`` — publish throughput and exact drop accounting while a
  diag storm overruns deliberately small ring buffers.
* ``registry_overhead`` — recording cost of counters and windowed
  histograms at bounded memory.
"""

import time
from dataclasses import replace
from pathlib import Path

from benchmarks.conftest import ROOT, record_section  # noqa: F401
from repro import FaultPlan, SoakPolicy
from repro.analysis import print_table
from repro.fes import canary_campaign
from repro.fes.example_platform import PHONE_ADDRESS, make_remote_control_app
from repro.fes.fleet import build_fleet
from repro.telemetry import MetricsRegistry, TelemetryBus

APP = "remote-control"
OUTPUT = Path(ROOT) / "BENCH_telemetry.json"


def _record(section, payload):
    record_section(OUTPUT, section, payload)


def _soaked_fleet(size, seed=9):
    fleet = build_fleet(size, seed=seed)
    fleet.server.api.store.upload(
        make_remote_control_app(PHONE_ADDRESS)
    ).unwrap()
    return fleet


def _soaked_spec():
    return replace(
        canary_campaign(APP, fractions=(0.2, 1.0), max_failure_rate=0.5),
        soak=SoakPolicy(max_trap_delta=2, min_samples=2),
    )


def test_soak_gate_scenario():
    """Clean install that traps during soak: gated run vs clean run."""

    def run(faults):
        fleet = _soaked_fleet(10)
        start = time.perf_counter()
        report = fleet.run_campaign(_soaked_spec(), faults=faults)
        wall = time.perf_counter() - start
        snapshot = fleet.api.telemetry.snapshot()
        return report, wall, snapshot

    trapping = FaultPlan(
        seed=5, soak_trap_vins={"VIN-0001"}, soak_trap_count=8
    )
    gated, wall_gated, bus_gated = run(trapping)
    clean, wall_clean, bus_clean = run(None)
    replay, _, _ = run(trapping)

    assert gated.status == "rolled_back"
    assert gated.waves[0].breaches == []  # installs were clean
    assert gated.waves[0].soak_breaches  # telemetry caught it
    assert clean.status == "succeeded"
    assert gated.to_dict() == replay.to_dict()  # byte-identical replay

    payload = {
        "fleet_size": 10,
        "gated": {
            "status": gated.status,
            "rolled_back": gated.rolled_back,
            "soak_samples": gated.waves[0].soak_samples,
            "metrics": gated.metrics,
            "bus": bus_gated,
            "wall_s": round(wall_gated, 3),
        },
        "clean": {
            "status": clean.status,
            "updated": clean.updated,
            "metrics": clean.metrics,
            "bus": bus_clean,
            "wall_s": round(wall_clean, 3),
        },
        "identical_across_runs": gated.to_dict() == replay.to_dict(),
    }
    rows = [
        ["gated (trap during soak)", gated.status,
         gated.metrics["rollback_latency_us"],
         gated.metrics["telemetry"]["published"]],
        ["clean", clean.status,
         clean.metrics["rollback_latency_us"],
         clean.metrics["telemetry"]["published"]],
    ]
    print_table(
        ["campaign", "status", "rollback latency us", "events published"],
        rows,
        title="TELEMETRY: soak gate scenario (fleet of 10)",
    )
    _record("soak_gate_scenario", payload)


def test_bus_load_and_drop_accounting():
    """Diag storm against small rings: throughput + exact drop counts."""
    rows, payload = [], []
    for capacity, publishes in ((64, 20_000), (512, 20_000), (4096, 20_000)):
        bus = TelemetryBus(default_capacity=capacity)
        start = time.perf_counter()
        for i in range(publishes):
            bus.publish(
                "diag", "report", i,
                vin=f"VIN-{i % 100:04d}", traps=i % 3, memory_used_blocks=4,
            )
        wall = time.perf_counter() - start
        assert bus.published("diag") == publishes
        assert bus.retained("diag") == min(capacity, publishes)
        assert bus.dropped("diag") == publishes - bus.retained("diag")
        rate = publishes / wall if wall else float("inf")
        payload.append(
            {
                "capacity": capacity,
                "published": publishes,
                "retained": bus.retained("diag"),
                "dropped": bus.dropped("diag"),
                "wall_s": round(wall, 4),
                "events_per_s": round(rate),
            }
        )
        rows.append(
            [capacity, publishes, bus.dropped("diag"), f"{rate:,.0f}/s"]
        )
    print_table(
        ["capacity", "published", "dropped", "throughput"],
        rows,
        title="TELEMETRY: bus load (20k diag events)",
    )
    _record("bus_load", payload)


def test_registry_overhead():
    """Metric recording cost at bounded memory."""
    registry = MetricsRegistry()
    observations = 50_000
    start = time.perf_counter()
    for i in range(observations):
        registry.inc("installs")
        registry.observe("latency_us", (i * 37) % 1000, time_us=i)
    wall = time.perf_counter() - start
    assert registry.counter_value("installs") == observations
    hist = registry.histogram("latency_us")
    assert hist.count <= hist.max_samples  # ring stayed bounded
    payload = {
        "observations": observations,
        "retained_samples": hist.count,
        "wall_s": round(wall, 4),
        "ops_per_s": round(2 * observations / wall) if wall else None,
        "summary": registry.summary(),
    }
    print_table(
        ["metric", "value"],
        [[key, str(value)] for key, value in payload.items()
         if key != "summary"],
        title="TELEMETRY: registry overhead (50k observations)",
    )
    _record("registry_overhead", payload)
