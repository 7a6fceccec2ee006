"""Robustness and failure-injection tests for the federated layer."""

import pytest

from repro.core.plugin import PluginState
from repro.core.plugin_swc import PluginSwcSpec
from repro.errors import ConfigurationError
from repro.fes.example_platform import (
    build_example_platform,
    make_example_vehicle_spec,
)
from repro.fes.phone import Smartphone
from repro.fes.vehicle import PluginSwcPlacement, VehicleSpec, build_vehicle
from repro.network.channel import ChannelProfile
from repro.network.sockets import NetworkFabric
from repro.sim import MS, SECOND, Simulator, StreamFactory


class TestVehicleSpecValidation:
    def _base_spec(self):
        return make_example_vehicle_spec()

    def test_ecm_on_unknown_ecu_rejected(self):
        spec = self._base_spec()
        spec.ecm = PluginSwcPlacement("swc1", "ECU9", spec.ecm.spec)
        with pytest.raises(ConfigurationError):
            build_vehicle(spec, NetworkFabric(Simulator()))

    def test_plugin_swc_on_unknown_ecu_rejected(self):
        spec = self._base_spec()
        bad = spec.plugin_swcs[0]
        spec.plugin_swcs[0] = PluginSwcPlacement(
            bad.instance_name, "ECU9", bad.spec
        )
        with pytest.raises(ConfigurationError):
            build_vehicle(spec, NetworkFabric(Simulator()))

    def test_ecm_with_mgmt_rejected(self):
        spec = self._base_spec()
        spec.ecm = PluginSwcPlacement(
            "swc1", "ECU1", PluginSwcSpec("BadEcm", has_mgmt=True)
        )
        with pytest.raises(ConfigurationError):
            build_vehicle(spec, NetworkFabric(Simulator()))

    def test_plugin_swc_without_mgmt_rejected(self):
        spec = self._base_spec()
        no_mgmt = PluginSwcSpec("NoMgmt", has_mgmt=False)
        spec.plugin_swcs[0] = PluginSwcPlacement("swc2", "ECU2", no_mgmt)
        with pytest.raises(ConfigurationError):
            build_vehicle(spec, NetworkFabric(Simulator()))

    def test_relay_to_unknown_peer_rejected(self):
        from repro.core.plugin_swc import RelayLink

        spec = self._base_spec()
        lonely = PluginSwcSpec(
            "Lonely",
            relays=[RelayLink(peer="ghost", out_virtual="V0", in_virtual="V1")],
        )
        spec.plugin_swcs.append(PluginSwcPlacement("swc3", "ECU2", lonely))
        with pytest.raises(ConfigurationError):
            build_vehicle(spec, NetworkFabric(Simulator()))

    def test_describe_for_server_covers_all_swcs(self):
        spec = self._base_spec()
        __, system_sw = spec.describe_for_server()
        assert {s.swc_name for s in system_sw.swcs} == {"swc1", "swc2"}
        swc1 = system_sw.swc("swc1")
        assert swc1.relay_toward("swc2") is not None


class TestLossyWireless:
    def test_commands_survive_lossy_wifi(self):
        """Lost commands disappear; delivered ones actuate in order."""
        lossy_wifi = ChannelProfile(
            latency_us=2_000, jitter_us=500, bytes_per_us=6.25, loss=0.3
        )
        platform = build_example_platform(seed=13)
        # Swap the phone listener onto a lossy profile BEFORE the ECM
        # dials it (dialling happens at install time via the ECC).
        platform.fabric.set_listener_profile(
            "111.22.33.44:56789", lossy_wifi
        )
        platform.boot()
        platform.run(1 * SECOND)
        assert platform.deploy_remote_control().ok
        platform.run(3 * SECOND)
        sent = 60
        for angle in range(sent):
            platform.phone().send("Wheels", angle)
            platform.run(20 * MS)
        platform.run(1 * SECOND)
        got = platform.actuator_state().get("wheels", [])
        assert 0 < len(got) < sent          # lossy but not dead
        assert got == sorted(got)           # FIFO preserved end-to-end

    def test_install_survives_cellular_jitter(self):
        jittery = ChannelProfile(
            latency_us=45_000, jitter_us=30_000, bytes_per_us=1.25
        )
        platform = build_example_platform(seed=21, cellular_profile=jittery)
        platform.boot()
        platform.run(2 * SECOND)
        assert platform.deploy_remote_control().ok
        platform.run(5 * SECOND)
        assert platform.vehicle().pirte_of("swc2").plugin("OP").state is (
            PluginState.RUNNING
        )


class TestMultiPeerPhone:
    def test_one_phone_many_vehicles(self):
        """One controller endpoint serving two cars (a small FES)."""
        from repro.fes.fleet import build_fleet
        from repro.fes.example_platform import (
            PHONE_ADDRESS,
            make_remote_control_app,
        )

        fleet = build_fleet(2, seed=17)
        phone = Smartphone(fleet.fabric, PHONE_ADDRESS, fleet.sim)
        fleet.server.api.store.upload(
            make_remote_control_app(PHONE_ADDRESS)
        ).unwrap()
        fleet.boot()
        fleet.sim.run_for(1 * SECOND)
        deployment = fleet.deploy_everywhere("remote-control")
        deployment.wait(30 * SECOND)
        assert deployment.all_active
        assert len(phone.connected_peers) == 2
        phone.send("Wheels", 8)  # broadcast
        fleet.sim.run_for(1 * SECOND)
        for vehicle in fleet.vehicles:
            state = vehicle.system.instance("actuators").state
            assert state.get("wheels") == [8]

    def test_targeted_send(self):
        from repro.fes.fleet import build_fleet
        from repro.fes.example_platform import (
            PHONE_ADDRESS,
            make_remote_control_app,
        )

        fleet = build_fleet(2, seed=19)
        phone = Smartphone(fleet.fabric, PHONE_ADDRESS, fleet.sim)
        fleet.server.api.store.upload(
            make_remote_control_app(PHONE_ADDRESS)
        ).unwrap()
        fleet.boot()
        fleet.sim.run_for(1 * SECOND)
        deployment = fleet.deploy_everywhere("remote-control")
        deployment.wait(30 * SECOND)
        assert deployment.all_active
        target = phone.connected_peers[0]
        count = phone.send("Wheels", 5, peer=target)
        assert count == 1
        fleet.sim.run_for(1 * SECOND)
        states = [
            v.system.instance("actuators").state.get("wheels")
            for v in fleet.vehicles
        ]
        assert sorted(str(s) for s in states) == ["None", "[5]"]
