"""Robustness and failure-injection tests for the federated layer."""

import pytest

from repro.api import ScenarioBuilder
from repro.core.plugin import PluginState
from repro.core.plugin_swc import PluginSwcSpec
from repro.errors import ConfigurationError
from repro.fes.example_platform import (
    PHONE_ADDRESS,
    build_example_platform,
    make_example_vehicle_spec,
    make_remote_control_app,
)
from repro.fes.phone import Smartphone
from repro.fes.vehicle import PluginSwcPlacement, build_vehicle
from repro.network.channel import WIFI, ChannelProfile
from repro.network.sockets import NetworkFabric
from repro.server.server import DEFAULT_ADDRESS
from repro.sim import MS, SECOND, Simulator


class TestVehicleSpecValidation:
    def _base_spec(self):
        return make_example_vehicle_spec()

    def test_ecm_on_unknown_ecu_rejected(self):
        spec = self._base_spec()
        spec.ecm = PluginSwcPlacement("swc1", "ECU9", spec.ecm.spec)
        with pytest.raises(ConfigurationError):
            build_vehicle(spec, NetworkFabric(Simulator()), DEFAULT_ADDRESS)

    def test_plugin_swc_on_unknown_ecu_rejected(self):
        spec = self._base_spec()
        bad = spec.plugin_swcs[0]
        spec.plugin_swcs = (
            PluginSwcPlacement(bad.instance_name, "ECU9", bad.spec),
        )
        with pytest.raises(ConfigurationError):
            build_vehicle(spec, NetworkFabric(Simulator()), DEFAULT_ADDRESS)

    def test_relay_to_unknown_peer_rejected(self):
        from repro.core.plugin_swc import RelayLink

        spec = self._base_spec()
        lonely = PluginSwcSpec(
            "Lonely",
            relays=[RelayLink(peer="ghost", out_virtual="V0", in_virtual="V1")],
        )
        spec.plugin_swcs = (
            *spec.plugin_swcs, PluginSwcPlacement("swc3", "ECU2", lonely),
        )
        with pytest.raises(ConfigurationError):
            build_vehicle(spec, NetworkFabric(Simulator()), DEFAULT_ADDRESS)

    def test_spec_ports_and_wiring_are_what_the_build_declares(self):
        # validate() judges connectors on VehicleSpec.ports_of() (each
        # placement's ports by its role) and VehicleSpec.wiring() without
        # building component types; together they must be exactly what
        # build_vehicle declares, down to the interface objects.
        spec = self._base_spec()
        desc = build_vehicle(
            spec, NetworkFabric(Simulator()), DEFAULT_ADDRESS
        ).system.description
        for placement in spec.all_placements():
            built = [
                (port.name, port.is_provided, port.interface)
                for port in desc.placement(placement.instance_name).ctype.ports
            ]
            assert built == spec.ports_of(placement)
        connectors = [
            (c.from_instance, c.from_port, c.to_instance, c.to_port)
            for c in desc.connectors
        ]
        assert connectors == [*spec.wiring(), *spec.connectors]

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
        assert platform.deploy("remote-control").ok
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
        scenario = ScenarioBuilder(seed=21, default_profile=jittery)
        scenario.user("user-1", "Example User")
        scenario.phone(PHONE_ADDRESS, WIFI)
        scenario.add_vehicle_spec(make_example_vehicle_spec("VIN-0001"))
        scenario.add_app(make_remote_control_app())
        platform = scenario.build()
        platform.boot()
        platform.run(2 * SECOND)
        assert platform.deploy("remote-control").ok
        platform.run(5 * SECOND)
        assert platform.vehicle().pirte_of("swc2").plugin("OP").state is (
            PluginState.RUNNING
        )


class TestMultiPeerPhone:
    def test_one_phone_many_vehicles(self):
        """One controller endpoint serving two cars (a small FES)."""
        from repro.fes.fleet import build_fleet

        fleet = build_fleet(2, seed=17)
        phone = Smartphone(fleet.fabric, PHONE_ADDRESS, fleet.sim)
        fleet.server.api.store.upload(
            make_remote_control_app(PHONE_ADDRESS)
        ).unwrap()
        fleet.boot()
        fleet.sim.run_for(1 * SECOND)
        deployment = fleet.deploy("remote-control")
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

        fleet = build_fleet(2, seed=19)
        phone = Smartphone(fleet.fabric, PHONE_ADDRESS, fleet.sim)
        fleet.server.api.store.upload(
            make_remote_control_app(PHONE_ADDRESS)
        ).unwrap()
        fleet.boot()
        fleet.sim.run_for(1 * SECOND)
        deployment = fleet.deploy("remote-control")
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
