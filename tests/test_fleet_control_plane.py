"""Fleet control plane tests: envelopes, campaigns, admission.

Covers the resource-oriented server API end to end:

* uniform ``Response`` envelopes with structured error codes, including
  entity and authorization failures;
* the single installation-status code path;
* the portal query endpoint and selector-targeted ``deploy_to``;
* selector-attribute wave scheduling (``SelectorWaves``);
* concurrent campaigns with cross-campaign admission control — a VIN
  mid-rollback for one campaign cannot be targeted by another;
* campaign persistence: stage -> simulated server restart -> resume
  produces a byte-identical report;
* the pusher's global outbox memory budget with oldest-campaign-first
  eviction and a per-campaign drop breakdown.
"""

import json

import pytest

from repro import (
    ApiError,
    CampaignSpec,
    Disposition,
    ErrorCode,
    FaultPlan,
    FixedWaves,
    HealthPolicy,
    InstallStatus,
    RollbackPolicy,
    SelectorWaves,
    build_fleet,
)
from repro.errors import ConfigurationError
from repro.fes import canary_campaign
from repro.fes.example_platform import (
    MODEL,
    PHONE_ADDRESS,
    make_remote_control_app,
)
from repro.network.sockets import NetworkFabric
from repro.server.pusher import Pusher
from repro.server.services import FleetSelector as S
from repro.server.services import PHASE_ROLLING_BACK, PHASE_UPDATING
from repro.sim import SECOND, Simulator

APP = "remote-control"


def make_fleet(size, seed=3, regions=("eu-north", "na-east")):
    fleet = build_fleet(size, seed=seed, regions=regions)
    fleet.server.api.store.upload(
        make_remote_control_app(PHONE_ADDRESS)
    ).unwrap()
    return fleet


def even_vins(size):
    return [f"VIN-{i:04d}" for i in range(0, size, 2)]


def odd_vins(size):
    return [f"VIN-{i:04d}" for i in range(1, size, 2)]


# -- envelopes and error codes -------------------------------------------------


class TestEnvelopes:
    def test_structured_error_codes(self):
        fleet = make_fleet(2)
        api = fleet.api
        vin = fleet.vins[0]

        unknown = api.deployments.deploy(fleet.user_id, "VIN-9999", APP)
        assert not unknown.ok and unknown.code is ErrorCode.UNKNOWN_ENTITY

        api.vehicles.create_user("stranger", "Eve").unwrap()
        foreign = api.deployments.deploy("stranger", vin, APP)
        assert foreign.code is ErrorCode.UNAUTHORIZED

        accepted = api.deployments.deploy(fleet.user_id, vin, APP)
        assert accepted.ok and accepted.code is ErrorCode.OK
        assert accepted.report is not None and accepted.pushed_messages == 2
        assert api.deployments.installation_status(vin, APP) is (
            InstallStatus.PENDING
        )
        assert api.vehicles.health(vin).unwrap() == {}

        again = api.deployments.deploy(fleet.user_id, vin, APP)
        assert again.code is ErrorCode.ALREADY_INSTALLED

        missing = api.deployments.uninstall(fleet.user_id, fleet.vins[1], APP)
        assert missing.code is ErrorCode.NOT_INSTALLED

        duplicate = api.store.upload(make_remote_control_app(PHONE_ADDRESS))
        assert duplicate.code is ErrorCode.DUPLICATE_ENTITY

        with pytest.raises(ApiError) as err:
            duplicate.unwrap()
        assert err.value.code is ErrorCode.DUPLICATE_ENTITY

    def test_unified_installation_status_code_path(self, monkeypatch):
        """Platform and Deployment both flow through one method."""
        fleet = make_fleet(1)
        deployment = fleet.deploy(APP)
        sentinel = InstallStatus.ACTIVE
        monkeypatch.setattr(
            type(fleet.api.deployments),
            "installation_status",
            lambda self, vin, app_name: sentinel,
        )
        assert fleet.installation_status("any", "thing") is sentinel
        assert deployment.status(fleet.vins[0]) is sentinel

    def test_update_redeploy_failure_is_surfaced(self):
        """update() whose re-deploy is rejected must emit an event, not
        silently leave the vehicle with the app gone."""
        from repro.server.models import (
            App,
            ConnectionKind,
            ConnectionSpec,
            PluginDescriptor,
            SwConf,
        )
        from tests.helpers import make_fat_binary

        fleet = make_fleet(1)
        vin = fleet.vins[0]
        fleet.run(1 * SECOND)
        fleet.api.deployments.deploy(fleet.user_id, vin, APP).unwrap()
        fleet.sim.run_for(5 * SECOND)
        assert fleet.installation_status(vin, APP) is InstallStatus.ACTIVE
        # v2 blows the SW-C memory budget: accepted into the store, but
        # undeployable.
        fat = PluginDescriptor("fat_p", make_fat_binary(40_000), ("out",))
        conf = SwConf(
            model=MODEL,
            placements=(("fat_p", "swc2"),),
            connections=(
                ConnectionSpec(
                    ConnectionKind.VIRTUAL, "fat_p", "out",
                    target_virtual="V4",
                ),
            ),
        )
        fleet.api.store.upload_version(
            App(APP, "2.0", {"fat_p": fat}, [conf])
        ).unwrap()
        events = []
        fleet.api.deployments.add_listener(events.append)
        assert fleet.api.deployments.update(fleet.user_id, vin, APP).ok
        fleet.sim.run_for(5 * SECOND)
        assert fleet.installation_status(vin, APP) is None
        assert any(
            event.kind == "update_redeploy_failed" and event.vin == vin
            for event in events
        )
        # The failure is queryable (and restart-safe), so portals can
        # tell a failed update from a clean uninstall.
        reasons = fleet.api.deployments.update_failure(vin, APP)
        assert reasons and any("memory budget" in r for r in reasons)
        fleet.server.restart()
        assert fleet.api.deployments.update_failure(vin, APP) == reasons

    def test_stale_uninstall_ack_cannot_touch_fresh_record(self):
        """An uninstall ack arriving while no removal is in progress
        (e.g. from an old abandon()'s best-effort teardown) must be
        ignored, not delete the re-deployed installation record."""
        from repro.core import messages as msg

        fleet = make_fleet(1)
        vin = fleet.vins[0]
        fleet.api.deployments.deploy(fleet.user_id, vin, APP).unwrap()
        record = fleet.server.db.installation(vin, APP)
        assert record.status is InstallStatus.PENDING
        for plugin in record.plugins:
            stale = msg.AckMessage(
                plugin.plugin_name,
                plugin.swc_name,
                msg.MessageType.UNINSTALL,
                msg.AckStatus.OK,
            )
            fleet.server.pusher.inject_upstream(vin, stale.encode())
        assert fleet.server.db.installation(vin, APP) is record
        assert record.status is InstallStatus.PENDING
        assert not any(plugin.acked for plugin in record.plugins)

    def test_late_install_nack_cannot_wedge_a_removal(self):
        """A delayed install NACK arriving mid-uninstall must not flip
        the REMOVING record to FAILED and strand the teardown."""
        from repro.core import messages as msg

        fleet = make_fleet(1)
        vin = fleet.vins[0]
        fleet.run(1 * SECOND)
        fleet.api.deployments.deploy(fleet.user_id, vin, APP).unwrap()
        fleet.sim.run_for(5 * SECOND)
        record = fleet.server.db.installation(vin, APP)
        fleet.api.deployments.uninstall(fleet.user_id, vin, APP).unwrap()
        late_nack = msg.AckMessage(
            record.plugins[0].plugin_name,
            record.plugins[0].swc_name,
            msg.MessageType.INSTALL,
            msg.AckStatus.BAD_PACKAGE,
        )
        fleet.server.pusher.inject_upstream(vin, late_nack.encode())
        assert record.status is InstallStatus.REMOVING  # not FAILED
        fleet.sim.run_for(5 * SECOND)
        assert fleet.installation_status(vin, APP) is None

    def test_explicit_uninstall_cancels_pending_update(self):
        """uninstall() after update() removes the app for good — the
        stale pending update must not resurrect it."""
        fleet = make_fleet(1)
        vin = fleet.vins[0]
        fleet.run(1 * SECOND)
        fleet.api.deployments.deploy(fleet.user_id, vin, APP).unwrap()
        fleet.sim.run_for(5 * SECOND)
        fleet.api.store.upload_version(
            make_remote_control_app(PHONE_ADDRESS, version="2.0")
        ).unwrap()
        assert fleet.api.deployments.update(fleet.user_id, vin, APP).ok
        # The operator changes their mind before the uninstall resolves.
        assert fleet.api.deployments.uninstall(fleet.user_id, vin, APP).ok
        fleet.sim.run_for(10 * SECOND)
        assert fleet.installation_status(vin, APP) is None

    def test_restore_skips_mid_uninstall_records(self):
        """restore() on an ECU whose app is mid-uninstall must not race
        the pending uninstall acks with fresh install packages."""
        fleet = make_fleet(1)
        vin = fleet.vins[0]
        fleet.run(1 * SECOND)
        fleet.api.deployments.deploy(fleet.user_id, vin, APP).unwrap()
        fleet.sim.run_for(5 * SECOND)
        assert fleet.installation_status(vin, APP) is InstallStatus.ACTIVE
        fleet.api.deployments.uninstall(fleet.user_id, vin, APP).unwrap()
        restored = fleet.api.deployments.restore(vin, "ECU2")
        assert not restored.ok
        assert restored.code is ErrorCode.NOTHING_TO_DO
        fleet.sim.run_for(5 * SECOND)
        # The uninstall completed cleanly; nothing was resurrected.
        assert fleet.installation_status(vin, APP) is None
        from repro.core.plugin_swc import get_pirte

        swc2 = fleet.vehicle(vin).system.instance("swc2")
        assert "OP" not in get_pirte(swc2).plugins

    def test_compatibility_preview_has_no_side_effects(self):
        fleet = make_fleet(1)
        vin = fleet.vins[0]
        preview = fleet.api.store.compatibility(APP, vin)
        assert preview.ok and preview.value.ok
        # Nothing was deployed or pushed by the preview.
        assert fleet.api.deployments.installation_status(vin, APP) is None
        assert fleet.server.pusher.pushed == 0
        assert fleet.api.store.compatibility("ghost", vin).code is (
            ErrorCode.UNKNOWN_ENTITY
        )


# -- portal queries and selector targeting -------------------------------------


class TestPortalQueries:
    def test_query_rows_reflect_fleet_state(self):
        fleet = make_fleet(4)
        assert [v.vin for v in fleet.query(S.region("eu-north"))] == (
            even_vins(4)
        )
        # Nobody has dialled in yet: the online selector is empty ...
        assert fleet.select_vins(S.online()) == []
        fleet.run(1 * SECOND)
        # ... and refreshes from live pusher connectivity afterwards.
        assert fleet.select_vins(S.online()) == fleet.vins
        deployment = fleet.deploy_to(APP, S.region("na-east"))
        deployment.wait(30 * SECOND)
        rows = fleet.query(S.installed(APP, version="1.0"))
        assert [v.vin for v in rows] == odd_vins(4)
        assert all(row.apps[0][2] == "active" for row in rows)

    def test_deploy_to_selector_matches_explicit_vins(self):
        fleet = make_fleet(4)
        before = fleet.api.vehicles.queries
        deployment = fleet.deploy_to(APP, S.vins({"VIN-0001", "VIN-0002"}))
        assert sorted(deployment.results) == ["VIN-0001", "VIN-0002"]
        assert deployment.ok
        # Targeting uses the fast path, not the portal query endpoint.
        assert fleet.api.vehicles.queries == before


class TestSelectorWaves:
    def test_waves_cut_by_region(self):
        fleet = make_fleet(6)
        spec = CampaignSpec(
            APP,
            waves=SelectorWaves((S.region("eu-north"), S.region("na-east"))),
            canary=False,
        )
        report = fleet.run_campaign(spec)
        assert report.status == "succeeded"
        assert [wave.vins for wave in report.waves] == [
            even_vins(6), odd_vins(6),
        ]

    def test_remainder_wave_and_plain_partition_guard(self):
        waves = SelectorWaves((S.vins({"VIN-0000"}),))
        with pytest.raises(ConfigurationError):
            waves.partition(["VIN-0000"])
        with pytest.raises(ConfigurationError):
            SelectorWaves(())
        fleet = make_fleet(4)
        resolve = fleet.api.vehicles.resolve
        assert waves.partition_resolved(fleet.vins, resolve) == [
            ["VIN-0000"], ["VIN-0001", "VIN-0002", "VIN-0003"],
        ]
        no_remainder = SelectorWaves((S.vins({"VIN-0000"}),), remainder=False)
        assert no_remainder.partition_resolved(fleet.vins, resolve) == [
            ["VIN-0000"],
        ]

    def test_empty_selector_keeps_wave_indices_aligned(self):
        """A selector matching nothing yields an empty wave, so the
        canary stays the wave the operator declared as the canary."""
        fleet = make_fleet(4)
        resolve = fleet.api.vehicles.resolve
        waves = SelectorWaves((S.region("mars"), S.vins({"VIN-0000"})))
        assert waves.partition_resolved(fleet.vins, resolve) == [
            [], ["VIN-0000"], ["VIN-0001", "VIN-0002", "VIN-0003"],
        ]
        report = fleet.run_campaign(
            CampaignSpec(
                APP,
                waves=SelectorWaves(
                    (S.region("mars"), S.region("na-east")), remainder=False,
                ),
            )
        )
        assert report.status == "succeeded"
        # The declared canary wave is wave 0 even though it is empty.
        assert report.waves[0].canary and report.waves[0].vins == []
        assert report.waves[1].vins == odd_vins(4)
        assert not report.waves[1].canary
        assert report.updated == 2
        # The vacuous canary gate is called out in the event log.
        empty = [e for e in report.events if e.kind == "empty_wave"]
        assert len(empty) == 1 and empty[0].wave == 0
        assert "vacuously" in empty[0].detail


# -- concurrent campaigns and admission control --------------------------------


class TestConcurrentCampaigns:
    def _stage_breaching_campaign(self, fleet):
        """Campaign A: one wave, two doomed VINs, gate breach, rollback."""
        spec = CampaignSpec(
            APP,
            waves=FixedWaves(4),
            canary=False,
            health=HealthPolicy(max_failure_rate=0.1),
            rollback=RollbackPolicy(scope="wave", timeout_us=60 * SECOND),
            retry_budget=0,
        )
        faults = FaultPlan(seed=7, doomed_vins={"VIN-0001", "VIN-0003"})
        return fleet.stage_campaign(spec, faults=faults)

    def test_mid_rollback_vins_cannot_be_targeted(self):
        fleet = make_fleet(4)
        engine_a = self._stage_breaching_campaign(fleet)
        engine_a.start()
        # Drive the kernel until campaign A is mid-rollback: the gate
        # breached and the uninstalls are in flight, not yet acked.
        while not any(
            event.kind == "rollback_started"
            for event in engine_a.report.events
        ):
            assert fleet.sim.step()
        assert not engine_a.done
        rolling = {
            event.vin
            for event in engine_a.report.events
            if event.kind == "rollback_started"
        }
        assert rolling == {"VIN-0000", "VIN-0002"}
        for vin in rolling:
            assert fleet.api.campaigns.claimed_by(vin) == (
                engine_a.campaign_id, PHASE_ROLLING_BACK,
            )

        # Campaign B targets exactly the mid-rollback VINs: admission
        # control excludes every one of them up front.
        engine_b = fleet.stage_campaign(
            CampaignSpec(
                APP, waves=FixedWaves(4), selector=S.vins(rolling),
                canary=False,
            )
        )
        report_b = engine_b.run(timeout_us=120 * SECOND)
        assert report_b.status == "succeeded"
        assert report_b.updated == 0 and report_b.excluded == 2
        denials = [
            event
            for event in report_b.events
            if event.kind == "admission_denied"
        ]
        assert sorted(event.vin for event in denials) == sorted(rolling)
        for event in denials:
            assert engine_a.campaign_id in event.detail
            assert PHASE_ROLLING_BACK in event.detail

        # Campaign A finishes its rollback; the claims are released and
        # a third campaign now updates the same VINs normally.
        while not engine_a.done:
            assert fleet.sim.step()
        assert engine_a.report.status == "rolled_back"
        assert all(
            fleet.api.campaigns.claimed_by(vin) is None for vin in fleet.vins
        )
        report_c = fleet.run_campaign(
            CampaignSpec(
                APP, waves=FixedWaves(2), selector=S.vins(rolling),
                canary=False,
            )
        )
        assert report_c.status == "succeeded" and report_c.updated == 2

    def test_in_flight_updating_vins_denied(self):
        fleet = make_fleet(2)
        engine_a = fleet.stage_campaign(
            CampaignSpec(APP, waves=FixedWaves(2), canary=False)
        )
        engine_a.start()
        while fleet.api.campaigns.claimed_by("VIN-0000") is None:
            assert fleet.sim.step()
        assert fleet.api.campaigns.claimed_by("VIN-0000") == (
            engine_a.campaign_id, PHASE_UPDATING,
        )
        report_b = fleet.stage_campaign(
            CampaignSpec(APP, waves=FixedWaves(2), canary=False)
        ).run(timeout_us=120 * SECOND)
        assert report_b.excluded == 2 and report_b.updated == 0
        # The holder keeps going and completes untouched.
        while not engine_a.done:
            assert fleet.sim.step()
        assert engine_a.report.status == "succeeded"
        assert engine_a.report.updated == 2

    def test_campaign_scope_rollback_contention_is_recorded(self):
        """Campaign-scope rollback reaches back to VINs whose claims
        were released on success; if another campaign grabbed one in
        the meantime, the rollback proceeds but records the contention."""
        fleet = make_fleet(3)
        spec = CampaignSpec(
            APP, waves=FixedWaves(1), canary=False,
            health=HealthPolicy(max_failure_rate=0.1),
            rollback=RollbackPolicy(scope="campaign"),
            retry_budget=0, pause_us=100_000,
        )
        engine = fleet.stage_campaign(
            spec, faults=FaultPlan(seed=7, doomed_vins={"VIN-0001"})
        )
        engine.start()
        # Wave 0 (VIN-0000) succeeds and its claim is released.
        while not any(
            event.kind == "gate_passed" for event in engine.report.events
        ):
            assert fleet.sim.step()
        assert fleet.api.campaigns.claimed_by("VIN-0000") is None
        # Another campaign snatches VIN-0000 during the inter-wave pause.
        fleet.api.campaigns.claim("cmp-9999", ["VIN-0000"])
        # Wave 1 (doomed VIN-0001) breaches; campaign-scope rollback
        # targets VIN-0000 — contended, but still rolled back.
        while not engine.done:
            assert fleet.sim.step()
        assert engine.report.status == "rolled_back"
        assert engine.report.dispositions["VIN-0000"] is (
            Disposition.ROLLED_BACK
        )
        contended = [
            event
            for event in engine.report.events
            if event.kind == "rollback_contended"
        ]
        assert [event.vin for event in contended] == ["VIN-0000"]
        assert "cmp-9999" in contended[0].detail
        # The foreign claim was not stolen by the rollback's release.
        assert fleet.api.campaigns.claimed_by("VIN-0000") == (
            "cmp-9999", "updating",
        )

    def test_disjoint_concurrent_campaigns_both_succeed(self):
        fleet = make_fleet(4)
        engine_a = fleet.stage_campaign(
            CampaignSpec(
                APP, waves=FixedWaves(2),
                selector=S.vins(set(even_vins(4))), canary=False,
            )
        )
        engine_b = fleet.stage_campaign(
            CampaignSpec(
                APP, waves=FixedWaves(2),
                selector=S.vins(set(odd_vins(4))), canary=False,
            )
        )
        engine_a.start()
        engine_b.start()
        while not (engine_a.done and engine_b.done):
            assert fleet.sim.step()
        assert engine_a.report.status == "succeeded"
        assert engine_b.report.status == "succeeded"
        assert engine_a.report.updated == engine_b.report.updated == 2


# -- campaign persistence ------------------------------------------------------


def persistent_spec():
    return canary_campaign(
        APP,
        fractions=(0.34, 1.0),
        max_failure_rate=0.5,
        retry_budget=1,
        selector=S.model(MODEL),
    )


class TestCampaignPersistence:
    def test_spec_round_trips_through_dict(self):
        spec = persistent_spec()
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        data = json.loads(json.dumps(spec.to_dict()))  # JSON-safe
        assert CampaignSpec.from_dict(data) == spec
        selector_spec = CampaignSpec(
            APP,
            waves=SelectorWaves((S.region("eu-north") & ~S.online(),)),
        )
        assert CampaignSpec.from_dict(selector_spec.to_dict()) == (
            selector_spec
        )
        # Malformed payloads surface as ConfigurationError, not raw
        # KeyError/TypeError from deep inside the registry.
        from repro.campaign.spec import WavePolicy

        with pytest.raises(ConfigurationError):
            CampaignSpec.from_dict({"app_name": APP})
        with pytest.raises(ConfigurationError):
            WavePolicy.from_dict({"kind": "fixed"})

    def test_fault_plan_round_trips_with_soak_anomalies(self):
        plan = FaultPlan(
            seed=7,
            doomed_vins={"VIN-0002"},
            drop_rate=0.1,
            soak_trap_vins={"VIN-0001", "VIN-0003"},
            soak_trap_rate=0.25,
            soak_trap_count=9,
            soak_trap_after_us=300_000,
            soak_drain_vins={"VIN-0004"},
            soak_drain_rate=0.5,
            soak_drain_blocks=16,
            soak_drain_after_us=400_000,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        data = json.loads(json.dumps(plan.to_dict()))  # JSON-safe
        assert FaultPlan.from_dict(data) == plan
        # Pre-soak payloads without the anomaly keys still load.
        legacy = {
            key: value
            for key, value in plan.to_dict().items()
            if not key.startswith("soak_")
        }
        loaded = FaultPlan.from_dict(legacy)
        assert loaded.soak_trap_vins == frozenset()
        assert loaded.soak_drain_rate == 0.0
        # Soak anomalies alone make a plan active.
        assert FaultPlan(soak_trap_vins={"VIN-0001"}).active
        assert FaultPlan(soak_drain_rate=0.1).active
        with pytest.raises(ConfigurationError):
            FaultPlan(soak_trap_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(soak_drain_blocks=-1)

    def test_stage_restart_resume_byte_identical_report(self):
        spec = persistent_spec()
        faults = FaultPlan(seed=5, doomed_vins={"VIN-0004"})

        baseline = make_fleet(6, seed=9).stage_campaign(
            spec, faults=faults
        ).run()

        fleet = make_fleet(6, seed=9)
        engine = fleet.stage_campaign(spec, faults=faults)
        campaign_id = engine.campaign_id
        record = fleet.api.campaigns.get(campaign_id).unwrap()
        assert record.status == "staged" and record.persistable

        fleet.server.restart()  # process state gone, database survives
        resumable = fleet.api.campaigns.load().unwrap()
        assert [r.campaign_id for r in resumable] == [campaign_id]

        resumed = fleet.resume_campaign(campaign_id)
        assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
            baseline.to_dict(), sort_keys=True
        )
        record = fleet.api.campaigns.get(campaign_id).unwrap()
        assert record.status == resumed.status
        assert record.report == resumed.to_dict()
        assert record.started_us is not None
        assert record.finished_us == resumed.finished_us

    def test_restart_mid_run_marks_interrupted(self):
        fleet = make_fleet(2)
        engine = fleet.stage_campaign(
            CampaignSpec(APP, waves=FixedWaves(2), canary=False)
        )
        engine.start()
        fleet.sim.run_for(50_000)  # mid-wave, installs in flight
        assert fleet.api.campaigns.get(
            engine.campaign_id
        ).unwrap().status == "running"
        fleet.server.restart()
        fleet.api.campaigns.load()
        record = fleet.api.campaigns.get(engine.campaign_id).unwrap()
        assert record.status == "interrupted"
        assert any("restarted mid-run" in note for note in record.notes)

    def test_load_without_restart_leaves_live_campaigns_alone(self):
        """load() on a live service must not demote a running campaign
        whose engine is alive in this process — that would let a second
        engine run under the same campaign_id, bypassing admission."""
        fleet = make_fleet(2)
        engine = fleet.stage_campaign(
            CampaignSpec(APP, waves=FixedWaves(2), canary=False)
        )
        engine.start()
        fleet.sim.run_for(50_000)  # mid-wave
        resumable = fleet.api.campaigns.load().unwrap()
        record = fleet.api.campaigns.get(engine.campaign_id).unwrap()
        assert record.status == "running"
        assert engine.campaign_id not in [
            r.campaign_id for r in resumable
        ]
        while not engine.done:
            assert fleet.sim.step()
        assert engine.report.status == "succeeded"

    def test_orphaned_engine_is_inert_after_restart(self):
        """An engine whose server restarted under it must retire on its
        next callback — not abandon records or overwrite the campaign
        record owned by the post-restart control plane."""
        fleet = make_fleet(2)
        spec = CampaignSpec(
            APP, waves=FixedWaves(2), canary=False,
            wave_timeout_us=2 * SECOND,
        )
        engine = fleet.stage_campaign(spec)
        engine.start()
        fleet.sim.run_for(50_000)  # wave dispatched, installs in flight
        fleet.server.restart()
        fleet.api.campaigns.load()
        resumed = fleet.resume_campaign(engine.campaign_id)
        # Far past the old engine's wave timeout: its timer fired, it
        # retired quietly, nothing was abandoned, and the record keeps
        # the resumed run's outcome.
        fleet.sim.run_for(10 * SECOND)
        assert engine.done and engine.report.status == "orphaned"
        record = fleet.api.campaigns.get(engine.campaign_id).unwrap()
        assert record.status == resumed.status != "timed_out"
        for vin in fleet.vins:
            assert fleet.installation_status(vin, APP) is (
                InstallStatus.ACTIVE
            )

    def test_opaque_callable_selector_is_not_persistable(self):
        fleet = make_fleet(2)
        spec = CampaignSpec(
            APP, waves=FixedWaves(2), canary=False,
            selector=lambda vin: vin.endswith("0"),
        )
        engine = fleet.stage_campaign(spec)
        record = fleet.api.campaigns.get(engine.campaign_id).unwrap()
        assert not record.persistable
        assert any("not persistable" in note for note in record.notes)
        # It still runs fine in-process ...
        report = engine.run()
        assert report.status == "succeeded" and report.updated == 1
        # ... but a staged one cannot be revived after a restart.
        staged = fleet.stage_campaign(spec)
        fleet.server.restart()
        fleet.api.campaigns.load()
        response = fleet.api.campaigns.restage(staged.campaign_id)
        assert not response.ok
        assert response.code is ErrorCode.NOT_PERSISTABLE

    def test_custom_wave_policy_runs_as_non_persistable(self):
        """A user WavePolicy implementing only partition() must stage
        and run; it just cannot survive a restart."""
        from repro.campaign.spec import WavePolicy

        class EveryOtherWaves(WavePolicy):
            def partition(self, vins):
                return [list(vins[0::2]), list(vins[1::2])]

        fleet = make_fleet(4)
        engine = fleet.stage_campaign(
            CampaignSpec(APP, waves=EveryOtherWaves(), canary=False)
        )
        record = fleet.api.campaigns.get(engine.campaign_id).unwrap()
        assert not record.persistable
        assert any("to_dict" in note for note in record.notes)
        report = engine.run()
        assert report.status == "succeeded" and report.updated == 4
        assert [wave.vins for wave in report.waves] == [
            even_vins(4), odd_vins(4),
        ]

    def test_terminal_campaigns_cannot_be_resumed(self):
        fleet = make_fleet(2)
        report = fleet.run_campaign(
            CampaignSpec(APP, waves=FixedWaves(2), canary=False)
        )
        assert report.status == "succeeded"
        campaign_id = report.campaign_id
        response = fleet.api.campaigns.restage(campaign_id)
        assert response.code is ErrorCode.CAMPAIGN_STATE
        assert fleet.api.campaigns.list(status="succeeded").unwrap()

    def test_one_corrupt_record_does_not_abort_recovery(self):
        fleet = make_fleet(2)
        good = fleet.stage_campaign(persistent_spec())
        bad = fleet.stage_campaign(persistent_spec())
        # Simulate a record persisted by a newer/foreign server whose
        # wave-policy kind this build does not know.
        fleet.api.campaigns.get(bad.campaign_id).unwrap().spec["waves"][
            "kind"
        ] = "quantum"
        fleet.server.restart()
        resumable = fleet.api.campaigns.load().unwrap()
        assert [r.campaign_id for r in resumable] == [good.campaign_id]
        record = fleet.api.campaigns.get(bad.campaign_id).unwrap()
        assert any("failed to deserialize" in note for note in record.notes)
        response = fleet.api.campaigns.restage(bad.campaign_id)
        assert not response.ok
        assert response.code is ErrorCode.NOT_PERSISTABLE

    def test_campaign_records_are_dict_renderable(self):
        fleet = make_fleet(2)
        fleet.run_campaign(CampaignSpec(APP, waves=FixedWaves(2), canary=False))
        record = fleet.api.campaigns.list().unwrap()[0]
        rendered = json.dumps(record.to_dict())
        assert record.campaign_id in rendered


# -- pusher outbox: global memory budget (satellite) ---------------------------


class TestPusherMemoryBudget:
    def _pusher(self, budget):
        return Pusher(
            NetworkFabric(Simulator()), "budget-test:1",
            outbox_limit=100, memory_budget_bytes=budget,
        )

    def test_oldest_campaign_evicted_first(self):
        pusher = self._pusher(100)
        pusher.push("V1", b"a" * 40, campaign="cmp-0001")
        pusher.push("V2", b"b" * 40, campaign="cmp-0001")
        pusher.push("V3", b"c" * 40, campaign="cmp-0002")
        # 120 bytes > 100: the oldest cmp-0001 message goes, the newer
        # campaign's traffic is untouched.
        assert pusher.outbox_bytes == 80
        assert pusher.dropped_messages == 1
        assert pusher.dropped_by_campaign == {"cmp-0001": 1}
        assert pusher.pending_for("V1") == 0
        assert pusher.pending_for("V2") == 1
        assert pusher.pending_for("V3") == 1

    def test_untagged_traffic_ranks_oldest(self):
        pusher = self._pusher(100)
        pusher.push("V1", b"x" * 40, campaign="cmp-0001")
        pusher.push("V2", b"y" * 40)  # portal one-off, untagged
        pusher.push("V3", b"z" * 40, campaign="cmp-0002")
        assert pusher.dropped_by_campaign == {"": 1}
        assert pusher.pending_for("V1") == 1 and pusher.pending_for("V2") == 0

    def test_eviction_drains_one_campaign_before_the_next(self):
        pusher = self._pusher(90)
        for index in range(3):
            pusher.push(f"V{index}", b"o" * 30, campaign="cmp-0001")
        for index in range(3):
            pusher.push(f"V{index}", b"n" * 30, campaign="cmp-0002")
        # 180 bytes over a 90-byte budget: exactly the whole first
        # campaign is evicted, in push order.
        assert pusher.outbox_bytes == 90
        assert pusher.dropped_by_campaign == {"cmp-0001": 3}
        assert all(pusher.pending_for(f"V{i}") == 1 for i in range(3))

    def test_per_vin_cap_still_applies_and_is_attributed(self):
        pusher = Pusher(
            NetworkFabric(Simulator()), "cap-test:1", outbox_limit=2
        )
        for index in range(4):
            pusher.push("V1", bytes([index]), campaign="cmp-0009")
        assert pusher.pending_for("V1") == 2
        assert pusher.dropped_messages == 2
        assert pusher.dropped_by_campaign == {"cmp-0009": 2}

    def test_dead_endpoint_requeue_keeps_campaign_tag(self):
        """A push onto a connection that died vehicle-side re-queues
        with its campaign tag intact, so budget eviction attributes the
        drop to the right campaign (not to untagged traffic)."""
        fleet = make_fleet(1)
        vin = fleet.vins[0]
        fleet.run(1 * SECOND)  # ECM dials in
        pusher = fleet.server.pusher
        pusher._connections[vin].close()  # vehicle side dies under us
        pusher.memory_budget_bytes = 0
        pusher.push(vin, b"payload", campaign="cmp-0042")
        assert pusher.dropped_by_campaign == {"cmp-0042": 1}

    def test_no_budget_means_no_global_eviction(self):
        pusher = self._pusher(None)
        for index in range(50):
            pusher.push("V1", b"m" * 100, campaign="cmp-0001")
        assert pusher.pending_for("V1") == 50
        assert pusher.dropped_messages == 0

    def test_flush_skips_entries_evicted_mid_flush(self):
        """Re-queueing against a dead endpoint mid-flush can trigger
        budget eviction of a not-yet-flushed entry; the flush must skip
        it instead of delivering an empty payload."""

        class DeadEndpoint:
            closed = True

            def on_receive(self, callback):
                pass

        pusher = self._pusher(100)
        pusher.push("VIN-X", b"a" * 60, campaign="cmp-0001")
        pusher.push("VIN-X", b"b" * 60, campaign="cmp-0001")
        pusher._on_connect(DeadEndpoint(), "VIN-X")
        assert pusher.pushed == 0  # nothing was delivered on a dead link
        remaining = list(pusher._outboxes.get("VIN-X", ()))
        assert all(entry.raw for entry in remaining)  # no b"" fabricated
        assert pusher.outbox_bytes == sum(
            len(entry.raw) for entry in remaining
        )
        assert pusher.dropped_by_campaign.get("cmp-0001", 0) >= 1

    def test_reclaimed_batches_evict_oldest_disconnect_first(self):
        """In-flight traffic reclaimed by an earlier disconnect ranks
        older than a later disconnect's under budget pressure."""
        sim = Simulator()
        fabric = NetworkFabric(sim)
        pusher = Pusher(
            fabric, "fifo-test:1", memory_budget_bytes=60
        )
        for vin in ("V1", "V2"):
            fabric.connect(
                "fifo-test:1", client_name=vin, on_connected=lambda end: None
            )
        sim.run_for(1 * SECOND)  # handshakes
        pusher.push("V1", b"a" * 60)
        pusher.push("V2", b"b" * 60)  # both in flight, unsent
        assert pusher.disconnect("V1") == 1
        assert pusher.outbox_bytes == 60
        assert pusher.disconnect("V2") == 1
        # 120 bytes over a 60-byte budget: the batch reclaimed FIRST
        # (V1's) is the older one and goes first.
        assert pusher.pending_for("V1") == 0
        assert pusher.pending_for("V2") == 1

    def test_flush_prunes_index_and_ranks_without_budget(self):
        """A drained campaign leaves no payloads, index queues, or rank
        entries behind even when no memory budget is configured."""
        sim = Simulator()
        fabric = NetworkFabric(sim)
        pusher = Pusher(fabric, "prune-test:1")
        received = []
        for index in range(5):
            pusher.push("VIN-X", b"m" * 100, campaign="cmp-0042")
        assert pusher.pending_for("VIN-X") == 5
        fabric.connect(
            "prune-test:1",
            client_name="VIN-X",
            on_connected=lambda end: end.on_receive(received.append),
        )
        sim.run_for(1 * SECOND)  # handshake + flush
        assert pusher.pending_for("VIN-X") == 0
        assert len(received) == 5
        assert "cmp-0042" not in pusher._by_campaign
        assert "cmp-0042" not in pusher._campaign_rank
        assert pusher.outbox_bytes == 0
        # Reclaimed in-flight traffic is pruned on flush too: sever the
        # link with messages in flight, redial, and the reclaim index
        # queue must not keep dead shells around.
        pusher.push("VIN-X", b"n" * 100)
        assert pusher.disconnect("VIN-X") == 1
        fabric.connect(
            "prune-test:1",
            client_name="VIN-X",
            on_connected=lambda end: end.on_receive(received.append),
        )
        sim.run_for(1 * SECOND)
        assert pusher.pending_for("VIN-X") == 0
        from repro.server.pusher import _RECLAIM_KEY

        assert _RECLAIM_KEY not in pusher._by_campaign
        assert pusher.outbox_bytes == 0
