"""Server operation tests: dependencies, conflicts, budgets, fleets."""

import pytest

from repro.core import messages as msg
from repro.fes.example_platform import (
    PHONE_ADDRESS,
    make_remote_control_app,
)
from repro.fes.fleet import build_fleet
from repro.network.sockets import NetworkFabric
from repro.server import InstallStatus
from repro.server.models import (
    App,
    ConnectionKind,
    ConnectionSpec,
    PluginDescriptor,
    SwConf,
)
from repro.server.server import TrustedServer
from repro.sim import SECOND, Simulator
from repro.workloads import SyntheticConfig, populate_server
from tests.helpers import make_binary, make_fat_binary


@pytest.fixture()
def fleet3():
    fleet = build_fleet(3)
    fleet.server.api.store.upload(
        make_remote_control_app(PHONE_ADDRESS)
    ).unwrap()
    fleet.boot()
    fleet.sim.run_for(1 * SECOND)
    return fleet


class TestFleetDeployment:
    def test_deploy_everywhere(self, fleet3):
        deployment = fleet3.deploy("remote-control")
        assert all(r.ok for r in deployment)
        elapsed = deployment.wait(20 * SECOND)
        assert elapsed > 0
        assert deployment.all_active
        assert fleet3.active_count("remote-control") == 3

    def test_vehicles_isolated(self, fleet3):
        """Install on one vehicle does not touch the others."""
        fleet3.server.api.deployments.deploy(
            fleet3.user_id, fleet3.vehicles[0].vin, "remote-control"
        )
        fleet3.sim.run_for(5 * SECOND)
        assert "COM" in fleet3.vehicles[0].ecm_pirte.plugins
        assert "COM" not in fleet3.vehicles[1].ecm_pirte.plugins

    def test_port_ids_independent_per_vehicle(self, fleet3):
        deployment = fleet3.deploy("remote-control")
        deployment.wait(20 * SECOND)
        assert deployment.all_active
        for vehicle in fleet3.vehicles:
            installed = fleet3.server.db.installation(
                vehicle.vin, "remote-control"
            )
            com = installed.plugin("COM")
            assert com.port_ids == (0, 1, 2, 3)


class TestDependenciesAndConflicts:
    def _app_with_relation(self, name, deps=(), conflicts=()):
        """A minimal APP targeting the example vehicle's swc2."""
        # The forwarder writes local port 1, so both ports must be
        # declared — the upload gate's verifier checks port indices.
        plugin = PluginDescriptor(f"{name}_p", make_binary(), ("in", "out"))
        conf = SwConf(
            model="model-car-rpi",
            placements=((plugin.name, "swc2"),),
            connections=(
                ConnectionSpec(
                    ConnectionKind.VIRTUAL, plugin.name, "out",
                    target_virtual="V4",
                ),
            ),
        )
        return App(
            name, "1.0", {plugin.name: plugin}, [conf],
            dependencies=tuple(deps), conflicts=tuple(conflicts),
        )

    def test_dependency_blocks_until_base_active(self, fleet3):
        api = fleet3.server.api
        api.store.upload(self._app_with_relation("base")).unwrap()
        addon = self._app_with_relation("addon", deps=("base",))
        api.store.upload(addon).unwrap()
        vin = fleet3.vehicles[0].vin
        result = api.deployments.deploy(fleet3.user_id, vin, "addon")
        assert not result.ok
        api.deployments.deploy(fleet3.user_id, vin, "base")
        fleet3.sim.run_for(5 * SECOND)
        status = api.deployments.installation_status(vin, "base")
        assert status is InstallStatus.ACTIVE
        result = api.deployments.deploy(fleet3.user_id, vin, "addon")
        assert result.ok, result.reasons

    def test_uninstall_blocked_by_dependents(self, fleet3):
        api = fleet3.server.api
        api.store.upload(self._app_with_relation("base")).unwrap()
        addon = self._app_with_relation("addon", deps=("base",))
        api.store.upload(addon).unwrap()
        vin = fleet3.vehicles[0].vin
        api.deployments.deploy(fleet3.user_id, vin, "base")
        fleet3.sim.run_for(5 * SECOND)
        api.deployments.deploy(fleet3.user_id, vin, "addon")
        fleet3.sim.run_for(5 * SECOND)
        result = api.deployments.uninstall(fleet3.user_id, vin, "base")
        assert not result.ok
        assert "addon" in result.reasons[0]
        # Remove the dependent first, then the base goes.
        assert api.deployments.uninstall(fleet3.user_id, vin, "addon").ok
        fleet3.sim.run_for(5 * SECOND)
        assert api.deployments.uninstall(fleet3.user_id, vin, "base").ok

    def test_conflict_blocks_deploy(self, fleet3):
        api = fleet3.server.api
        api.store.upload(self._app_with_relation("peace")).unwrap()
        war = self._app_with_relation("war", conflicts=("peace",))
        api.store.upload(war).unwrap()
        vin = fleet3.vehicles[0].vin
        api.deployments.deploy(fleet3.user_id, vin, "peace")
        fleet3.sim.run_for(5 * SECOND)
        result = api.deployments.deploy(fleet3.user_id, vin, "war")
        assert not result.ok
        assert any("conflict" in r for r in result.reasons)

    def test_reverse_conflict_blocks_deploy(self, fleet3):
        """Installed APP declares the conflict on the newcomer."""
        api = fleet3.server.api
        first = self._app_with_relation("first", conflicts=("second",))
        api.store.upload(first).unwrap()
        api.store.upload(self._app_with_relation("second")).unwrap()
        vin = fleet3.vehicles[0].vin
        api.deployments.deploy(fleet3.user_id, vin, "first")
        fleet3.sim.run_for(5 * SECOND)
        result = api.deployments.deploy(fleet3.user_id, vin, "second")
        assert not result.ok

    def test_memory_budget_enforced_server_side(self, fleet3):
        api = fleet3.server.api
        big_binary = make_fat_binary(40_000)
        plugin = PluginDescriptor("fat_p", big_binary, ("out",))
        conf = SwConf(
            model="model-car-rpi",
            placements=(("fat_p", "swc2"),),
            connections=(
                ConnectionSpec(
                    ConnectionKind.VIRTUAL, "fat_p", "out", target_virtual="V4"
                ),
            ),
        )
        api.store.upload(App("fat", "1.0", {"fat_p": plugin}, [conf])).unwrap()
        result = api.deployments.deploy(
            fleet3.user_id, fleet3.vehicles[0].vin, "fat"
        )
        assert not result.ok
        assert any("memory budget" in r for r in result.reasons)


class TestAckHandling:
    def test_failed_install_marks_failed(self, fleet3):
        """A plug-in that collides on port ids nacks; APP goes FAILED."""
        api = fleet3.server.api
        vin = fleet3.vehicles[0].vin
        api.deployments.deploy(fleet3.user_id, vin, "remote-control")
        fleet3.sim.run_for(5 * SECOND)
        # Forge a second install of COM with the same port ids by
        # pushing a raw duplicate package (simulating a racing server).
        installed = fleet3.server.db.installation(vin, "remote-control")
        com_record = installed.plugin("COM")
        fleet3.server.pusher.push(vin, com_record.package)  # type: ignore[attr-defined]
        fleet3.sim.run_for(5 * SECOND)
        # The duplicate was nacked; the server recorded the failure.
        assert api.deployments.installation_status(vin, "remote-control") in (
            InstallStatus.FAILED,
            InstallStatus.ACTIVE,  # nack matched after active: FAILED
        )
        assert api.deployments.acks_processed >= 3

    def test_non_ack_upstream_ignored(self, fleet3):
        api = fleet3.server.api
        before = api.deployments.acks_processed
        api.deployments.on_vehicle_message(
            fleet3.vehicles[0].vin,
            msg.DataMessage("ECU1", "swc1", 0, 1).encode(),
        )
        assert api.deployments.acks_processed == before

    def test_malformed_upstream_is_dropped_and_later_acks_apply(self, fleet3):
        """Bytes that do not decode are dropped, counted and published
        once, and the vehicle's next ACK is still applied."""
        api = fleet3.server.api
        vin = fleet3.vehicles[0].vin
        api.deployments.deploy(fleet3.user_id, vin, "remote-control").unwrap()
        record = fleet3.server.db.installation(vin, "remote-control")
        bad = bytes([1, 1, 0, 0, 0, 0, 99, 0, 0, 0])  # ACK of op 99
        fleet3.server.pusher.inject_upstream(vin, bad)
        assert api.deployments.malformed_upstream == 1
        events = api.deployments.telemetry.events("deploy", "malformed_upstream")
        assert [(e.vin, e.data["bytes"]) for e in events] == [(vin, len(bad))]
        plugin = record.plugins[0]
        assert not plugin.acked
        ack = msg.AckMessage(
            plugin.plugin_name, plugin.swc_name,
            msg.MessageType.INSTALL, msg.AckStatus.OK,
        )
        fleet3.server.pusher.inject_upstream(vin, ack.encode())
        assert plugin.acked
        assert api.deployments.acks_processed == 1


def synthetic_server(n_vehicles):
    """A server over a conflict-free synthetic fleet with five APPs."""
    server = TrustedServer(NetworkFabric(Simulator()))
    populate_server(
        server.api,
        SyntheticConfig(dependency_density=0.0, conflict_density=0.0),
        n_apps=5,
        n_vehicles=n_vehicles,
    )
    return server


class TestSyntheticWorkload:
    def test_populate_and_deploy(self):
        sim = Simulator()
        fabric = NetworkFabric(sim)
        server = TrustedServer(fabric)
        config = SyntheticConfig()
        populate_server(server.api, config, n_apps=10, n_vehicles=5)
        assert len(server.db.apps) == 10
        assert len(server.db.vehicles) == 5
        # Deploy an APP without dependencies to an offline vehicle:
        # packages queue in the pusher.
        for app in server.db.apps.values():
            if not app.dependencies:
                result = server.api.deployments.deploy(
                    "u0", "SYNTH-00000", app.name
                )
                assert result.ok, result.reasons
                break
        else:
            pytest.fail("no dependency-free app generated")

    def test_500_vehicle_batch_deploy_then_uninstall(self):
        server = synthetic_server(500)
        vins = sorted(server.db.vehicles)
        deployments = server.api.deployments
        results = deployments.deploy_batch("u0", vins, "app0")
        assert [vin for vin, r in results.items() if not r.ok] == []
        assert all(deployments.uninstall("u0", vin, "app0").ok for vin in vins)

    def test_admission_denies_the_half_another_campaign_holds(self):
        server = synthetic_server(500)
        vins = sorted(server.db.vehicles)
        campaigns = server.api.campaigns
        campaigns.claim("cmp-0001", vins[:250])
        assert sorted(campaigns.admit("cmp-0002", vins)) == vins[:250]

    def test_generated_apps_have_valid_binaries(self):
        from repro.sim.random import SeededStream
        from repro.vm.loader import unpack
        from repro.workloads import make_synthetic_app

        app = make_synthetic_app(
            SyntheticConfig(), 0, SeededStream(0, "t"), []
        )
        for descriptor in app.plugins.values():
            binary = unpack(descriptor.binary)
            assert binary.has_entry("on_message")
