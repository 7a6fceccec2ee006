"""Multi-fidelity fleets: statistical vehicles beside full simulations.

The statistical vehicle model (:mod:`repro.fes.statistical`) lets one
campaign span fleet sizes the full ECU/VM simulation cannot reach.
These tests pin its contract: protocol compatibility with the trusted
server, byte-identical replay per seed on mixed fleets, soak-gate
telemetry, and the failure-rate knobs feeding the campaign health gate.
"""

from dataclasses import replace

import pytest

from repro.campaign.spec import FixedWaves, PercentageWaves
from repro.core import messages as msg
from repro.errors import ConfigurationError
from repro.fes import (
    StatisticalModel,
    StatisticalVehicle,
    build_fleet,
    calibrate_model,
    canary_campaign,
    make_example_vehicle_spec,
    make_remote_control_app,
)
from repro.network.sockets import NetworkFabric
from repro.server.models import InstallStatus
from repro.sim.kernel import MS, SECOND, Simulator
from repro.telemetry.soak import SoakPolicy

APP = "remote-control"


def mixed_fleet(size, full, seed=3, model=None):
    fleet = build_fleet(
        size, seed=seed, full_vehicles=full, statistical_model=model
    )
    fleet.api.store.upload(make_remote_control_app()).unwrap()
    return fleet


class TestStatisticalVehicle:
    def _standalone(self, model=None):
        sim = Simulator()
        fabric = NetworkFabric(sim)
        inbox = []
        server_ends = {}

        def on_connect(endpoint, name):
            server_ends[name] = endpoint
            endpoint.on_receive(lambda raw: inbox.append(raw))

        fabric.listen("trusted-server.oem.example:7000", on_connect)
        spec = make_example_vehicle_spec("VIN-0000")
        vehicle = StatisticalVehicle(spec, fabric, sim, model=model)
        return sim, vehicle, server_ends, inbox

    def _install_raw(self, plugin="COM", swc="swc1", ecu="ECU1"):
        from repro.core.context import Ecc, Pic, Plc

        return msg.InstallMessage(
            plugin_name=plugin, version="1.0", target_ecu=ecu,
            target_swc=swc, pic=Pic(()), plc=Plc(()), ecc=Ecc(()),
            binary=b"\x00" * 32,
        ).encode()

    def test_install_acked_and_tracked(self):
        sim, vehicle, ends, inbox = self._standalone()
        vehicle.boot()
        sim.run_for(1 * SECOND)
        ends["VIN-0000"].send(self._install_raw(), size=64)
        sim.run_for(2 * SECOND)
        assert len(inbox) == 1
        ack = msg.decode(inbox[0])
        assert isinstance(ack, msg.AckMessage)
        assert ack.ok and ack.op is msg.MessageType.INSTALL
        assert vehicle.installed == {"COM": ("swc1", "ECU1")}
        assert vehicle.acks_sent == 1

    def test_uninstall_roundtrip_and_unknown_nack(self):
        sim, vehicle, ends, inbox = self._standalone()
        vehicle.boot()
        sim.run_for(1 * SECOND)
        ends["VIN-0000"].send(self._install_raw(), size=64)
        sim.run_for(2 * SECOND)
        ends["VIN-0000"].send(
            msg.UninstallMessage("COM", "ECU1", "swc1").encode(), size=16
        )
        ends["VIN-0000"].send(
            msg.UninstallMessage("GHOST", "ECU1", "swc1").encode(), size=16
        )
        sim.run_for(2 * SECOND)
        acks = [msg.decode(raw) for raw in inbox[1:]]
        assert [ack.ok for ack in acks] == [True, False]
        assert acks[1].status is msg.AckStatus.UNKNOWN_PLUGIN
        assert vehicle.installed == {}

    def test_install_failure_rate_produces_nacks(self):
        model = StatisticalModel(install_failure_rate=1.0)
        sim, vehicle, ends, inbox = self._standalone(model)
        vehicle.boot()
        sim.run_for(1 * SECOND)
        ends["VIN-0000"].send(self._install_raw(), size=64)
        sim.run_for(2 * SECOND)
        ack = msg.decode(inbox[0])
        assert not ack.ok
        assert vehicle.installed == {}
        assert vehicle.nacks_sent == 1

    def test_emit_diagnostics_reports_per_swc(self):
        sim, vehicle, ends, inbox = self._standalone()
        vehicle.boot()
        sim.run_for(1 * SECOND)
        ends["VIN-0000"].send(self._install_raw(), size=64)
        sim.run_for(2 * SECOND)
        inbox.clear()
        vehicle.emit_diagnostics()
        sim.run_for(1 * SECOND)
        reports = [msg.decode(raw) for raw in inbox]
        assert all(isinstance(r, msg.DiagMessage) for r in reports)
        # One report per declared plug-in-hosting SW-C, like a full
        # vehicle's soak tick produces.
        assert len(reports) == len(vehicle.spec.all_placements())
        by_swc = {r.source_swc: r for r in reports}
        assert by_swc["swc1"].plugins[0].plugin_name == "COM"
        assert by_swc["swc1"].plugins[0].traps == 0
        assert by_swc["swc1"].memory_used_blocks > 0

    def test_pirte_of_raises(self):
        __, vehicle, __, __ = self._standalone()
        with pytest.raises(ConfigurationError):
            vehicle.pirte_of("swc1")

    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            StatisticalModel(install_failure_rate=1.5)
        with pytest.raises(ConfigurationError):
            StatisticalModel(ack_latency_us=-1)


class TestMixedFleetCampaigns:
    def test_mixed_campaign_succeeds(self):
        fleet = mixed_fleet(30, full=3)
        kinds = [type(v).__name__ for v in fleet.vehicles]
        assert kinds[:3] == ["Vehicle"] * 3
        assert set(kinds[3:]) == {"StatisticalVehicle"}
        spec = replace(canary_campaign(APP), waves=PercentageWaves((0.1, 1.0)))
        report = fleet.run_campaign(spec)
        assert report.status == "succeeded"
        assert all(
            d.value == "updated" for d in report.dispositions.values()
        )
        # The canary wave is exactly the full-fidelity prefix.
        assert report.waves[0].vins == fleet.vins[:3]

    def test_server_records_match_both_fidelities(self):
        fleet = mixed_fleet(10, full=2)
        report = fleet.run_campaign(
            replace(canary_campaign(APP), waves=FixedWaves(10))
        )
        assert report.status == "succeeded"
        for vin in fleet.vins:
            assert (
                fleet.installation_status(vin, APP) is InstallStatus.ACTIVE
            )

    def test_statistical_failures_breach_the_gate(self):
        model = StatisticalModel(install_failure_rate=1.0)
        fleet = mixed_fleet(20, full=2, model=model)
        spec = replace(
            canary_campaign(APP, max_failure_rate=0.2),
            waves=PercentageWaves((0.5, 1.0)),
            retry_budget=0,
        )
        report = fleet.run_campaign(spec)
        assert report.status in ("rolled_back", "halted")
        assert report.waves[0].failed > 0

    def test_soak_gate_passes_on_mixed_fleet(self):
        fleet = mixed_fleet(12, full=2)
        spec = replace(
            canary_campaign(APP),
            waves=PercentageWaves((0.25, 1.0)),
            soak=SoakPolicy(max_memory_growth_blocks=64),
        )
        report = fleet.run_campaign(spec)
        assert report.status == "succeeded"
        for wave in report.waves:
            assert wave.soak_samples > 0
            assert not wave.soak_breaches


class TestMixedFleetReplay:
    def _run(self):
        fleet = mixed_fleet(
            25, full=5, seed=7,
            model=StatisticalModel(install_failure_rate=0.1),
        )
        spec = replace(
            canary_campaign(APP, max_failure_rate=0.5),
            waves=PercentageWaves((0.2, 1.0)),
            retry_budget=1,
            wave_timeout_us=30 * SECOND,
        )
        return fleet.run_campaign(spec)

    def test_same_seed_same_report(self):
        """Byte-identical replay on a mixed full/statistical fleet —
        the acceptance criterion of the multi-fidelity tentpole."""
        first, second = self._run(), self._run()
        assert first.to_dict() == second.to_dict()
        assert first.events  # non-trivial timeline, not a vacuous match

    def test_statistical_draws_do_not_perturb_full_vehicles(self):
        """Stream isolation: growing the statistical tail must not
        change when the full-fidelity prefix resolves."""

        def canary_times(size):
            fleet = mixed_fleet(size, full=2, seed=7)
            spec = replace(
                canary_campaign(APP), waves=FixedWaves(2),
                wave_timeout_us=30 * SECOND,
            )
            engine = fleet.stage_campaign(spec)
            engine.start()
            fleet.sim.run_for(30 * SECOND)
            wave = engine.report.waves[0]
            return (wave.started_us, wave.resolved_us)

        assert canary_times(5) == canary_times(15)


class TestCalibrateModel:
    def test_fit_overrides_and_replay(self):
        model = calibrate_model(fleet_size=2, seed=5)
        assert model.ack_latency_us > 0
        assert model != StatisticalModel()  # fitted, not the defaults
        assert calibrate_model(fleet_size=2, seed=5) == model
        overridden = calibrate_model(
            fleet_size=2, seed=5, ack_latency_us=7 * MS,
            install_failure_rate=0.5,
        )
        assert overridden.ack_latency_us == 7 * MS
        assert overridden.install_failure_rate == 0.5
        assert overridden.ack_jitter_us == model.ack_jitter_us
