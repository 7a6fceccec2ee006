"""End-to-end soak gate tests: telemetry-driven promotion and rollback.

The scenario the whole pipeline exists for: a plug-in that installs
*cleanly* on every vehicle (every install resolves ACTIVE, the health
gate passes) but then misbehaves during the soak window — trapping
activations or leaking pool memory.  A blind canary pause promotes it;
a :class:`SoakPolicy` catches it from the fleet's own ``DiagMessage``
telemetry and rolls the wave back.  Replay determinism is pinned
byte-for-byte on the serialized report.
"""

import dataclasses
import json

from repro import Disposition, FaultPlan, SoakPolicy, build_fleet
from repro.fes import canary_campaign
from repro.fes.example_platform import (
    MODEL,
    PHONE_ADDRESS,
    make_remote_control_app,
)
from repro.server.services import FleetSelector as S

APP = "remote-control"


def make_fleet(size, seed=9):
    fleet = build_fleet(size, seed=seed, regions=("eu-north", "na-east"))
    fleet.server.api.store.upload(
        make_remote_control_app(PHONE_ADDRESS)
    ).unwrap()
    return fleet


def soaked_spec(**soak_overrides):
    spec = canary_campaign(
        APP,
        fractions=(0.34, 1.0),
        max_failure_rate=0.5,
        retry_budget=1,
        selector=S.model(MODEL),
    )
    soak = SoakPolicy(max_trap_delta=2, min_samples=2, **soak_overrides)
    return dataclasses.replace(spec, soak=soak)


def run_campaign(spec, faults=None, size=6, seed=9):
    fleet = make_fleet(size, seed=seed)
    return fleet, fleet.stage_campaign(spec, faults=faults).run()


class TestSoakPromotion:
    def test_clean_campaign_promotes_through_all_waves(self):
        fleet, report = run_campaign(soaked_spec())
        assert report.status == "succeeded"
        assert report.updated == 6
        for wave in report.waves:
            assert wave.soak_started_us is not None
            assert wave.soak_resolved_us is not None
            assert wave.soak_samples > 0
            assert wave.soak_anomalies == {}
            assert wave.soak_breaches == []
        kinds = [event.kind for event in report.events]
        assert kinds.count("soak_started") == 2
        assert kinds.count("soak_passed") == 2
        assert "soak: " in report.timeline()  # rendered in the timeline

    def test_soak_samples_ride_the_real_telemetry_path(self):
        fleet, report = run_campaign(soaked_spec())
        # Every soak sample is a DiagMessage that crossed SW-C -> ECM ->
        # server and landed on the control plane's bus.
        bus = fleet.api.telemetry
        diags = bus.events("diag")
        assert len(diags) >= report.waves[0].soak_samples
        assert {event.vin for event in diags} == set(fleet.vins)
        assert all("traps" in event.data for event in diags)
        # The campaign timeline is mirrored onto the bus too.
        campaign_kinds = {e.name for e in bus.events("campaign")}
        assert {"soak_started", "soak_passed", "campaign_done"} <= (
            campaign_kinds
        )

    def test_metrics_snapshot_embedded_in_report(self):
        fleet, report = run_campaign(soaked_spec())
        metrics = json.loads(json.dumps(report.to_dict()))["metrics"]
        assert metrics["campaign_duration_us"] > 0
        assert metrics["rollback_latency_us"] is None
        assert metrics["outbox"]["pushed"] > 0
        assert metrics["telemetry"]["published"] > 0
        for wave in metrics["waves"]:
            assert wave["soak_samples"] > 0
            assert wave["time_to_promote_us"] >= wave["soak_us"]


class TestSoakRollback:
    def test_clean_install_that_traps_during_soak_is_rolled_back(self):
        # VIN-0001 sits in the canary (fractions 0.34 over 6 vehicles).
        faults = FaultPlan(
            seed=5,
            soak_trap_vins={"VIN-0001"},
            soak_trap_count=8,
        )
        fleet, report = run_campaign(soaked_spec(), faults=faults)
        assert report.status == "rolled_back"
        wave = report.waves[0]
        # Installs were clean: the health gate passed, only soak failed.
        assert wave.updated == 3 and wave.breaches == []
        assert "VIN-0001" in wave.soak_anomalies
        assert "trap delta" in wave.soak_anomalies["VIN-0001"]
        assert wave.soak_breaches
        kinds = [event.kind for event in report.events]
        assert "gate_passed" in kinds
        assert "soak_failed" in kinds
        assert "gate_breached" not in kinds
        # Every canary vehicle was uninstalled; wave 1 never started.
        assert report.dispositions["VIN-0001"] is Disposition.ROLLED_BACK
        assert report.rolled_back == 3 and report.skipped == 3
        assert report.waves[1].started_us is None
        assert report.metrics["rollback_latency_us"] > 0

    def test_replay_is_byte_identical(self):
        def once():
            faults = FaultPlan(
                seed=5,
                soak_trap_vins={"VIN-0001"},
                soak_trap_count=8,
            )
            _, report = run_campaign(soaked_spec(), faults=faults)
            return json.dumps(report.to_dict(), sort_keys=True)

        assert once() == once()

    def test_seeded_trap_rate_is_deterministic(self):
        def once():
            faults = FaultPlan(seed=11, soak_trap_rate=0.5, soak_trap_count=9)
            fleet, report = run_campaign(soaked_spec(), faults=faults)
            return report.status, json.dumps(
                report.to_dict(), sort_keys=True
            )

        (status, blob), (again_status, again_blob) = once(), once()
        assert status == again_status and blob == again_blob

    def test_memory_drain_during_soak_is_rolled_back(self):
        # Calibrate: how many pool blocks does a clean install cost
        # across every hosting SW-C (the ECM hosts a plug-in too)?
        fleet, clean = run_campaign(
            soaked_spec(max_memory_growth_blocks=None)
        )
        assert clean.status == "succeeded"
        vehicle = fleet.vehicle("VIN-0001")
        footprint = sum(
            vehicle.pirte_of(p.instance_name).pool.used_blocks
            for p in vehicle.spec.all_placements()
        )
        assert footprint > 0

        # Allow exactly the install footprint: a clean run passes ...
        spec = soaked_spec(max_memory_growth_blocks=footprint)
        _, still_clean = run_campaign(spec)
        assert still_clean.status == "succeeded"

        # ... and a post-install leak of even a few extra blocks breaches.
        faults = FaultPlan(
            seed=5, soak_drain_vins={"VIN-0001"}, soak_drain_blocks=4
        )
        _, leaked = run_campaign(spec, faults=faults)
        assert leaked.status == "rolled_back"
        assert "memory growth" in leaked.waves[0].soak_anomalies["VIN-0001"]

    def test_fuel_burn_during_soak_is_rolled_back(self):
        # A generous fuel allowance passes clean runs: normal soak
        # activations burn orders of magnitude less than 10^9 units.
        spec = soaked_spec(max_fuel_delta=10**9)
        _, clean = run_campaign(spec)
        assert clean.status == "succeeded"

        # A plug-in that burns runaway compute — without ever trapping
        # or leaking memory — is caught by the fuel threshold alone.
        faults = FaultPlan(
            seed=5,
            soak_fuel_vins={"VIN-0001"},
            soak_fuel_amount=2 * 10**9,
        )
        _, burned = run_campaign(spec, faults=faults)
        assert burned.status == "rolled_back"
        wave = burned.waves[0]
        assert wave.updated == 3 and wave.breaches == []
        assert "fuel delta" in wave.soak_anomalies["VIN-0001"]
        assert burned.dispositions["VIN-0001"] is Disposition.ROLLED_BACK
        assert burned.waves[1].started_us is None

    def test_fuel_burn_invisible_without_fuel_thresholds(self):
        # The control case: same burn, no fuel threshold — the trap and
        # memory gates don't see fuel, so the campaign promotes.
        faults = FaultPlan(
            seed=5,
            soak_fuel_vins={"VIN-0001"},
            soak_fuel_amount=2 * 10**9,
        )
        _, report = run_campaign(soaked_spec(), faults=faults)
        assert report.status == "succeeded"
        assert report.updated == 6

    def test_seeded_fuel_rate_is_deterministic(self):
        def once():
            faults = FaultPlan(
                seed=11, soak_fuel_rate=0.5, soak_fuel_amount=2 * 10**9
            )
            _, report = run_campaign(
                soaked_spec(max_fuel_delta=10**9), faults=faults
            )
            return report.status, json.dumps(
                report.to_dict(), sort_keys=True
            )

        (status, blob), (again_status, again_blob) = once(), once()
        assert status == again_status and blob == again_blob

    def test_without_soak_policy_the_trap_ships(self):
        # The control case: same fault, no soak gate — the blind canary
        # pause promotes the misbehaving plug-in to the whole fleet.
        spec = dataclasses.replace(soaked_spec(), soak=None)
        faults = FaultPlan(
            seed=5, soak_trap_vins={"VIN-0001"}, soak_trap_count=8
        )
        _, report = run_campaign(spec, faults=faults)
        assert report.status == "succeeded"
        assert report.updated == 6

    def test_ten_vehicle_gated_run_beside_its_clean_control(self):
        # A 20% canary over 10 vehicles: the trap is caught and replays
        # byte for byte, and the same spec without it promotes.
        spec = dataclasses.replace(
            canary_campaign(APP, fractions=(0.2, 1.0), max_failure_rate=0.5),
            soak=SoakPolicy(max_trap_delta=2, min_samples=2),
        )
        faults = FaultPlan(
            seed=5, soak_trap_vins={"VIN-0001"}, soak_trap_count=8
        )
        _, gated = run_campaign(spec, faults=faults, size=10)
        _, clean = run_campaign(spec, size=10)
        _, replay = run_campaign(spec, faults=faults, size=10)
        assert gated.status == "rolled_back"
        assert gated.waves[0].breaches == [] and gated.waves[0].soak_breaches
        assert gated.metrics["rollback_latency_us"] > 0
        assert clean.status == "succeeded" and clean.updated == 10
        assert clean.metrics["rollback_latency_us"] is None
        assert gated.to_dict() == replay.to_dict()


class TestFuelRateSemantics:
    """Direct evaluate() coverage of the per-activation fuel rate."""

    @staticmethod
    def _judge(policy, baseline_fuel, baseline_acts, fuel, acts):
        from repro.telemetry.soak import SoakMonitor, VehicleBaseline

        monitor = SoakMonitor(["VIN-X"])
        monitor.observe("VIN-X", "swc", 0, acts, 0, fuel_used=fuel)
        baseline = {
            "VIN-X": VehicleBaseline(
                "VIN-X", activations=baseline_acts, fuel_used=baseline_fuel
            )
        }
        return policy.evaluate(baseline, monitor)

    def test_rate_breach_normalizes_by_activation_delta(self):
        policy = SoakPolicy(max_fuel_rate=50.0)
        # 1000 fuel over 10 activations = 100/activation > 50.
        verdict = self._judge(policy, 100, 5, 1100, 15)
        assert not verdict.passed
        ((vin, reason),) = verdict.anomalies
        assert vin == "VIN-X" and "fuel rate 100.0/activation" in reason

    def test_rate_within_allowance_passes(self):
        policy = SoakPolicy(max_fuel_rate=150.0)
        verdict = self._judge(policy, 100, 5, 1100, 15)
        assert verdict.passed and verdict.anomalies == ()

    def test_rate_skipped_without_activation_growth(self):
        # No activation delta: nothing to normalize by, rate check is
        # skipped (the absolute max_fuel_delta threshold covers this).
        policy = SoakPolicy(max_fuel_rate=1.0)
        verdict = self._judge(policy, 100, 5, 10_000, 5)
        assert verdict.passed

    def test_fuel_delta_checked_before_rate(self):
        policy = SoakPolicy(max_fuel_delta=500, max_fuel_rate=1.0)
        verdict = self._judge(policy, 100, 5, 1100, 15)
        ((_, reason),) = verdict.anomalies
        assert "fuel delta 1000 > 500" in reason

    def test_negative_thresholds_rejected(self):
        import pytest

        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SoakPolicy(max_fuel_delta=-1)
        with pytest.raises(ConfigurationError):
            SoakPolicy(max_fuel_rate=-0.5)


class TestSoakPersistence:
    def test_fuel_policy_round_trips(self):
        policy = SoakPolicy(max_fuel_delta=5_000, max_fuel_rate=12.5)
        assert SoakPolicy.from_dict(policy.to_dict()) == policy
        # Payloads persisted before the fuel thresholds existed load
        # with both checks disabled.
        legacy = dict(policy.to_dict())
        del legacy["max_fuel_delta"]
        del legacy["max_fuel_rate"]
        loaded = SoakPolicy.from_dict(legacy)
        assert loaded.max_fuel_delta is None
        assert loaded.max_fuel_rate is None

    def test_spec_with_soak_round_trips(self):
        from repro.campaign.spec import CampaignSpec

        spec = soaked_spec()
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        data = json.loads(json.dumps(spec.to_dict()))
        assert CampaignSpec.from_dict(data) == spec
        # Pre-soak payloads (no "soak" key) still load.
        legacy = dict(spec.to_dict())
        del legacy["soak"]
        assert CampaignSpec.from_dict(legacy).soak is None

    def test_stage_restart_resume_with_soak_is_byte_identical(self):
        spec = soaked_spec()
        faults = FaultPlan(
            seed=5, soak_trap_vins={"VIN-0001"}, soak_trap_count=8
        )

        baseline = make_fleet(6).stage_campaign(spec, faults=faults).run()
        assert baseline.status == "rolled_back"

        fleet = make_fleet(6)
        engine = fleet.stage_campaign(spec, faults=faults)
        fleet.server.restart()
        fleet.api.campaigns.load().unwrap()
        resumed = fleet.resume_campaign(engine.campaign_id)
        assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
            baseline.to_dict(), sort_keys=True
        )
