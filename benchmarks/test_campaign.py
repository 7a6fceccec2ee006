"""CAMPAIGN — staged-rollout scaling, canary cost, breach determinism.

Producer of ``BENCH_campaign.json`` (written at the repo root,
untracked, and uploaded as a CI artifact): quantifies the campaign
engine along the three ROADMAP axes.

* ``fleet_size_sweep`` — wall/simulated time to update whole fleets,
  per wave policy: one blast wave, fixed-size waves, and a percentage
  canary ladder.  Staging costs simulated time (gates serialize waves)
  but not meaningful wall time — the event-driven engine does no
  per-vehicle busy-waiting.
* ``canary_fraction_sweep`` — how the canary's size changes end-to-end
  rollout time on one fleet.
* ``breach_determinism`` — the acceptance scenario: 100 vehicles,
  5% -> 25% -> 100%, seeded faults above the health threshold; the
  canary breaches, promotion halts, the wave rolls back, and two runs
  produce byte-identical reports.
* ``statistical_scale_sweep`` — multi-fidelity headroom: one campaign
  spanning fleets the full ECU/VM simulation cannot reach, with a
  10-vehicle full-fidelity canary ahead of a statistical tail.
"""

import time
from dataclasses import replace
from pathlib import Path

from benchmarks.conftest import ROOT, record_section  # noqa: F401
from repro import FaultPlan, FixedWaves, PercentageWaves
from repro.analysis import print_table
from repro.fes import canary_campaign
from repro.fes.example_platform import PHONE_ADDRESS, make_remote_control_app
from repro.fes.fleet import build_fleet

APP = "remote-control"
OUTPUT = Path(ROOT) / "BENCH_campaign.json"


def _record(section, payload):
    record_section(OUTPUT, section, payload)


def _campaign(size, spec, faults=None, seed=3, repeats=1):
    """Run one campaign; with ``repeats`` > 1, report the best wall time.

    Minimum-of-repeats is the robust wall-clock estimator on shared CI
    hosts — the simulation is deterministic, so every repeat does
    identical work and the spread is pure scheduler noise.
    """
    walls = []
    for __ in range(repeats):
        fleet = build_fleet(size, seed=seed)
        fleet.server.api.store.upload(
            make_remote_control_app(PHONE_ADDRESS)
        ).unwrap()
        start = time.perf_counter()
        report = fleet.run_campaign(spec, faults=faults)
        walls.append(time.perf_counter() - start)
    return report, min(walls)


def test_fleet_size_sweep_per_wave_policy():
    policies = [
        ("blast", lambda size: FixedWaves(size)),
        ("fixed-10", lambda size: FixedWaves(10)),
        ("canary-pct", lambda size: PercentageWaves((0.1, 0.5, 1.0))),
    ]
    rows, payload = [], []
    for policy_name, make_policy in policies:
        for size in (10, 25, 50):
            spec = replace(canary_campaign(APP), waves=make_policy(size))
            report, wall = _campaign(size, spec, repeats=3)
            assert report.status == "succeeded"
            assert report.updated == size
            sim_time = report.finished_us - report.started_us
            payload.append(
                {
                    "policy": policy_name,
                    "fleet_size": size,
                    "waves": len(report.waves),
                    "sim_time_us": sim_time,
                    "wall_s": round(wall, 3),
                    "updated": report.updated,
                }
            )
            rows.append(
                [policy_name, size, len(report.waves),
                 f"{sim_time / 1000:.0f} ms", f"{wall:.2f} s"]
            )
    print_table(
        ["policy", "fleet", "waves", "sim time", "wall"],
        rows,
        title="CAMPAIGN: fleet-size sweep per wave policy",
    )
    _record("fleet_size_sweep", payload)


def test_canary_fraction_sweep():
    rows, payload = [], []
    for fraction in (0.1, 0.2, 0.4):
        spec = canary_campaign(APP, fractions=(fraction, 1.0))
        report, wall = _campaign(30, spec)
        assert report.status == "succeeded" and report.updated == 30
        sim_time = report.finished_us - report.started_us
        canary_size = len(report.waves[0].vins)
        payload.append(
            {
                "canary_fraction": fraction,
                "canary_size": canary_size,
                "sim_time_us": sim_time,
                "wall_s": round(wall, 3),
            }
        )
        rows.append(
            [fraction, canary_size, f"{sim_time / 1000:.0f} ms",
             f"{wall:.2f} s"]
        )
    print_table(
        ["canary fraction", "canary size", "sim time", "wall"],
        rows,
        title="CAMPAIGN: canary fraction sweep (fleet of 30)",
    )
    _record("canary_fraction_sweep", payload)


def test_breach_determinism():
    """The acceptance scenario, twice: identical reports, halted spread."""

    def run():
        spec = canary_campaign(
            APP, fractions=(0.05, 0.25, 1.0),
            max_failure_rate=0.1, retry_budget=0,
        )
        faults = FaultPlan(seed=13, install_failure_rate=0.5)
        return _campaign(100, spec, faults=faults)

    first, wall_a = run()
    second, wall_b = run()
    assert first.status == "rolled_back"
    assert first.waves[0].breaches  # the canary gate tripped
    assert first.waves[1].started_us is None  # promotion halted
    assert first.to_dict() == second.to_dict()
    payload = {
        "fleet_size": 100,
        "canary_fraction": 0.05,
        "status": first.status,
        "failed": first.waves[0].failed,
        "rolled_back": first.rolled_back,
        "needs_workshop": first.needs_workshop,
        "skipped": first.skipped,
        "event_count": len(first.events),
        "identical_across_runs": first.to_dict() == second.to_dict(),
        "wall_s": [round(wall_a, 3), round(wall_b, 3)],
    }
    print_table(
        ["metric", "value"],
        [[key, str(value)] for key, value in payload.items()],
        title="CAMPAIGN: canary breach determinism (100 vehicles)",
    )
    _record("breach_determinism", payload)


def test_statistical_scale_sweep():
    """Mixed-fidelity campaigns at fleet sizes well past the full-sim
    ceiling: 10 full vehicles canary, statistical tail behind them."""
    full = 10
    rows, payload = [], []
    for size in (1_000, 10_000):
        build_start = time.perf_counter()
        fleet = build_fleet(size, seed=3, full_vehicles=full)
        build_wall = time.perf_counter() - build_start
        fleet.server.api.store.upload(
            make_remote_control_app(PHONE_ADDRESS)
        ).unwrap()
        spec = replace(
            canary_campaign(APP),
            waves=PercentageWaves((full / size, 1.0)),
        )
        start = time.perf_counter()
        report = fleet.run_campaign(spec)
        wall = time.perf_counter() - start
        assert report.status == "succeeded"
        assert report.updated == size
        # The canary wave is exactly the full-fidelity prefix.
        assert report.waves[0].vins == fleet.vins[:full]
        sim_time = report.finished_us - report.started_us
        payload.append(
            {
                "fleet_size": size,
                "full_vehicles": full,
                "waves": len(report.waves),
                "sim_time_us": sim_time,
                # Build wall is reported separately so the sweep
                # distinguishes fleet-construction cost from run cost.
                "fleet_build_wall_s": round(build_wall, 3),
                "wall_s": round(wall, 3),
                "updated": report.updated,
            }
        )
        rows.append(
            [size, full, len(report.waves), f"{sim_time / 1000:.0f} ms",
             f"{build_wall:.2f} s", f"{wall:.2f} s"]
        )
    print_table(
        ["fleet", "full", "waves", "sim time", "build", "wall"],
        rows,
        title="CAMPAIGN: statistical fleet scale sweep",
    )
    _record("statistical_scale_sweep", payload)
