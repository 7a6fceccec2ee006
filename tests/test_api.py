"""Tests for the declarative public API (repro.api).

Round-trips a 3-ECU / 2-plugin-SW-C scenario through ScenarioBuilder:
build -> boot -> deploy -> Deployment.wait -> actuator assertions; plus
negative tests for invalid declarations and heterogeneous fleets.
"""

from dataclasses import replace

import pytest

import repro.api.builder
from repro import (
    InstallStatus,
    Platform,
    RelayLink,
    ScenarioBuilder,
    ServicePort,
)
from repro.autosar.events import DataReceivedEvent
from repro.autosar.interfaces import DataElement, SenderReceiverInterface
from repro.autosar.ports import required_port
from repro.autosar.runnable import Runnable
from repro.autosar.swc import ComponentType
from repro.autosar.types import INT16
from repro.errors import ConfigurationError, DeploymentTimeout
from repro.fes import make_example_vehicle_spec
from repro.fes.vehicle import LegacyComponent, PluginSwcPlacement
from repro.sim import MS, SECOND

PHONE = "9.9.9.9:9999"

SINK_IF = SenderReceiverInterface(
    "ApiSinkIf", [DataElement("value", INT16, queued=True, queue_length=32)]
)

#: Fan-out plug-in: every received value goes out on ports 1 and 2.
FAN_SOURCE = """
.entry on_message
    STORE 1         ; value
    STORE 0         ; port
    LOAD 1
    WRPORT 1
    LOAD 1
    WRPORT 2
    HALT
"""

FORWARD_SOURCE = """
.entry on_message
    WRPORT 1
    HALT
"""


def make_sink_type() -> ComponentType:
    def consume(instance):
        while instance.pending("in", "value"):
            instance.state.setdefault("got", []).append(
                instance.receive("in", "value")
            )

    return ComponentType(
        "ApiSink",
        ports=[required_port("in", SINK_IF)],
        runnables=[Runnable("consume", consume, execution_time_us=10)],
        events=[DataReceivedEvent("consume", port="in", element="value")],
    )


def declare_tri_ecu_vehicle(scenario, vin="VIN-TRI", model="tri-ecu"):
    """ECM on ECU1; plug-in SW-Cs with actuator sinks on ECU2 and ECU3."""
    car = scenario.vehicle(vin, model)
    car.ecus("ECU1", "ECU2", "ECU3")
    car.ecm(
        "swc1", on="ECU1",
        relays=[
            RelayLink(peer="swc2", out_virtual="V0", in_virtual="V1"),
            RelayLink(peer="swc3", out_virtual="V2", in_virtual="V3"),
        ],
    )
    car.plugin_swc(
        "swc2", on="ECU2",
        relays=[RelayLink(peer="swc1", out_virtual="V0", in_virtual="V1")],
        services=[ServicePort("V4", "act_out", "out", INT16)],
    )
    car.plugin_swc(
        "swc3", on="ECU3",
        relays=[RelayLink(peer="swc1", out_virtual="V0", in_virtual="V1")],
        services=[ServicePort("V4", "act_out", "out", INT16)],
    )
    car.legacy("sink_a", make_sink_type(), on="ECU2")
    car.legacy("sink_b", make_sink_type(), on="ECU3")
    car.connect("swc2", "act_out", "sink_a", "in")
    car.connect("swc3", "act_out", "sink_b", "in")
    return car


def declare_fanout_app(scenario, model="tri-ecu"):
    """FAN on the ECM fans phone commands out to plug-ins on both ECUs."""
    app = scenario.app("fanout", model)
    app.plugin("FAN", source=FAN_SOURCE, mem_hint=8, on="swc1",
               ports=("cmd", "to_a", "to_b"))
    app.plugin("ACTA", source=FORWARD_SOURCE, mem_hint=8, on="swc2",
               ports=("in", "out"))
    app.plugin("ACTB", source=FORWARD_SOURCE, mem_hint=8, on="swc3",
               ports=("in", "out"))
    app.unconnected("FAN", "cmd")
    app.wire("FAN", "to_a", "ACTA", "in")
    app.wire("FAN", "to_b", "ACTB", "in")
    app.virtual("ACTA", "out", "V4")
    app.virtual("ACTB", "out", "V4")
    app.external(PHONE, "Cmd", "FAN", "cmd")
    return app


@pytest.fixture()
def tri_platform():
    scenario = ScenarioBuilder(seed=5).phone(PHONE)
    declare_tri_ecu_vehicle(scenario)
    declare_fanout_app(scenario)
    return scenario.build()


class TestScenarioRoundTrip:
    def test_build_boot_deploy_wait_actuate(self, tri_platform):
        platform = tri_platform
        platform.boot()
        platform.run(1 * SECOND)
        assert platform.vehicle("VIN-TRI").ecm_pirte.uplink.up

        deployment = platform.deploy("fanout")
        assert deployment.ok
        elapsed = deployment.wait(30 * SECOND)
        assert elapsed > 0
        assert deployment.statuses() == {"VIN-TRI": InstallStatus.ACTIVE}
        assert deployment.acks("VIN-TRI") == (3, 0, 3)
        assert deployment.acks("VIN-TRI").pending == 0

        # One phone command fans out across both downstream ECUs.
        platform.phone(PHONE).send("Cmd", 7)
        platform.run(1 * SECOND)
        assert platform.actuator_state("sink_a").get("got") == [7]
        assert platform.actuator_state("sink_b").get("got") == [7]

    def test_plugins_landed_on_declared_swcs(self, tri_platform):
        platform = tri_platform
        platform.run(1 * SECOND)
        platform.deploy("fanout").wait(30 * SECOND)
        vehicle = platform.vehicle("VIN-TRI")
        assert sorted(vehicle.ecm_pirte.plugins) == ["FAN"]
        assert sorted(vehicle.pirte_of("swc2").plugins) == ["ACTA"]
        assert sorted(vehicle.pirte_of("swc3").plugins) == ["ACTB"]

    def test_wait_boots_lazily(self, tri_platform):
        # No explicit boot(): Deployment.wait must bring the fleet up.
        deployment = tri_platform.deploy("fanout")
        deployment.wait(30 * SECOND)
        assert deployment.all_active

    def test_wait_times_out(self, tri_platform):
        # 1ms is not enough for a cellular install round-trip.
        deployment = tri_platform.deploy("fanout")
        with pytest.raises(DeploymentTimeout):
            deployment.wait(1 * MS)


class TestInvalidDeclarations:
    def test_duplicate_vin_rejected(self):
        scenario = ScenarioBuilder()
        declare_tri_ecu_vehicle(scenario, vin="VIN-X")
        with pytest.raises(ConfigurationError, match="duplicate VIN"):
            scenario.vehicle("VIN-X", "other-model")

    def test_placement_on_missing_ecu_rejected(self):
        scenario = ScenarioBuilder()
        car = scenario.vehicle("VIN-X", "m")
        car.ecus("ECU1")
        car.ecm("swc1", on="ECU1")
        car.plugin_swc("swc2", on="ECU9")
        with pytest.raises(ConfigurationError, match="unknown ECU 'ECU9'"):
            scenario.build()

    def test_legacy_on_missing_ecu_rejected(self):
        scenario = ScenarioBuilder()
        car = scenario.vehicle("VIN-X", "m")
        car.ecus("ECU1")
        car.ecm("swc1", on="ECU1")
        car.legacy("sink", make_sink_type(), on="ECU9")
        with pytest.raises(ConfigurationError, match="unknown ECU 'ECU9'"):
            scenario.build()

    def test_vehicle_without_ecm_rejected(self):
        scenario = ScenarioBuilder()
        scenario.vehicle("VIN-X", "m").ecus("ECU1")
        with pytest.raises(ConfigurationError, match="no ECM"):
            scenario.build()

    def test_relay_to_undeclared_peer_rejected(self):
        scenario = ScenarioBuilder()
        car = scenario.vehicle("VIN-X", "m")
        car.ecus("ECU1")
        car.ecm("swc1", on="ECU1",
                relays=[RelayLink(peer="ghost", out_virtual="V0",
                                  in_virtual="V1")])
        with pytest.raises(ConfigurationError, match="undeclared peer"):
            scenario.build()

    def test_duplicate_virtual_port_rejected_at_build(self):
        scenario = ScenarioBuilder()
        car = scenario.vehicle("VIN-X", "m")
        car.ecus("ECU1")
        car.ecm(
            "swc1", on="ECU1",
            services=[
                ServicePort("V4", "a_out", "out", INT16),
                ServicePort("V4", "b_out", "out", INT16),
            ],
        )
        with pytest.raises(ConfigurationError, match="duplicate virtual"):
            scenario.build()

    def test_duplicate_component_instance_rejected(self):
        scenario = ScenarioBuilder()
        car = scenario.vehicle("VIN-X", "m")
        car.ecus("ECU1", "ECU2")
        car.ecm("swc1", on="ECU1")
        car.plugin_swc("swc1", on="ECU2")
        with pytest.raises(ConfigurationError, match="duplicate component"):
            scenario.build()

    def test_app_connection_to_undeclared_plugin_rejected(self):
        scenario = ScenarioBuilder()
        app = scenario.app("a", "m")
        app.plugin("P", source=FORWARD_SOURCE, ports=("in", "out"), on="swc1")
        with pytest.raises(ConfigurationError, match="undeclared"):
            app.wire("P", "out", "GHOST", "in")

    def test_app_connection_to_unknown_port_rejected(self):
        scenario = ScenarioBuilder()
        app = scenario.app("a", "m")
        app.plugin("P", source=FORWARD_SOURCE, ports=("in", "out"), on="swc1")
        with pytest.raises(ConfigurationError, match="no port"):
            app.unconnected("P", "sideways")

    def test_plugin_without_placement_rejected(self):
        scenario = ScenarioBuilder()
        app = scenario.app("a", "m")
        with pytest.raises(ConfigurationError, match="placement"):
            app.plugin("P", source=FORWARD_SOURCE, ports=("in",))

    def test_duplicate_app_and_phone_rejected(self):
        scenario = ScenarioBuilder().phone(PHONE)
        scenario.app("a", "m")
        with pytest.raises(ConfigurationError, match="duplicate APP"):
            scenario.app("a", "m")
        with pytest.raises(ConfigurationError, match="duplicate phone"):
            scenario.phone(PHONE)


def _swc_on_unknown_ecu(spec):
    swc2 = spec.plugin_swcs[0]
    spec.plugin_swcs = (PluginSwcPlacement("swc2", "ECU9", swc2.spec),)
    return "unknown ECU 'ECU9'"


def _missing_back_relay(spec):
    swc2 = spec.plugin_swcs[0]
    spec.plugin_swcs = (
        PluginSwcPlacement("swc2", "ECU2", replace(swc2.spec, relays=())),
    )
    return "lacks the back-relay toward 'swc1'"


def _duplicate_instance(spec):
    spec.legacy = (
        *spec.legacy, LegacyComponent("swc2", make_sink_type(), "ECU1"),
    )
    return "duplicate component instance 'swc2'"


def _add_connector(spec, connector):
    spec.connectors = (*spec.connectors, connector)


def _connector_to_ghost(spec):
    _add_connector(spec, ("ghost", "out", "actuators", "wheels_in"))
    return "unknown component instance 'ghost'"


def _connector_to_missing_port(spec):
    _add_connector(spec, ("swc2", "nope", "actuators", "wheels_in"))
    return "component instance 'swc2' has no port 'nope'"


def _connector_into_provided_port(spec):
    _add_connector(spec, ("swc2", "wheels_req", "actuators", "speed_out"))
    return "must run provided -> required"


def _second_writer(spec):
    _add_connector(spec, ("swc2", "speed_req", "actuators", "wheels_in"))
    return (
        r"port actuators\.wheels_in has multiple writers "
        r"\(swc2\.wheels_req and swc2\.speed_req\)"
    )


def _writer_into_derived_pair(spec):
    _add_connector(spec, ("swc2", "speed_req", "swc2", "mgmt_in"))
    return r"port swc2\.mgmt_in has multiple writers \(swc1\.mgmt_swc2_out"


def _incompatible_interfaces(spec):
    connectors = list(spec.connectors)
    wheels = connectors.index(("swc2", "wheels_req", "actuators", "wheels_in"))
    connectors[wheels] = ("swc2", "mgmt_out", "actuators", "wheels_in")
    spec.connectors = tuple(connectors)
    return r"incompatible interfaces \(PluginMgmtIf vs MotionIf\)"


def _duplicate_virtual_port(spec):
    swc2 = spec.plugin_swcs[0]
    extra = ServicePort("V4", "wheels_req2", "out", INT16)
    spec.plugin_swcs = (
        PluginSwcPlacement(
            "swc2", "ECU2",
            replace(swc2.spec, services=(*swc2.spec.services, extra)),
        ),
    )
    return "duplicate virtual port 'V4'"


class TestSpecValidatedAtEitherFidelity:
    """A spec added with ``add_vehicle_spec`` is judged by the same
    rules at full and statistical fidelity, before anything is built."""

    @pytest.mark.parametrize(
        "breakage",
        [
            _swc_on_unknown_ecu,
            _missing_back_relay,
            _duplicate_instance,
            _connector_to_ghost,
            _connector_to_missing_port,
            _connector_into_provided_port,
            _second_writer,
            _writer_into_derived_pair,
            _incompatible_interfaces,
            _duplicate_virtual_port,
        ],
        ids=["unknown-ecu", "missing-back-relay", "duplicate-instance",
             "connector-to-ghost",
             "connector-to-missing-port", "connector-into-provided-port",
             "second-writer", "writer-into-derived-pair",
             "incompatible-interfaces", "duplicate-virtual-port"],
    )
    def test_invalid_spec_refused_before_construction(
        self, breakage, monkeypatch
    ):
        def constructed(*args, **kwargs):
            raise AssertionError("build() constructed a simulator")

        monkeypatch.setattr(repro.api.builder, "Simulator", constructed)
        messages = []
        for fidelity in ("full", "statistical"):
            spec = make_example_vehicle_spec("VIN-A")
            expected = breakage(spec)
            spec.fidelity = fidelity
            scenario = ScenarioBuilder().add_vehicle_spec(spec)
            with pytest.raises(ConfigurationError, match=expected) as raised:
                scenario.build()
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


class TestServerAddress:
    def test_added_spec_dials_the_scenarios_server(self):
        scenario = ScenarioBuilder(server_address="srv.example:1")
        scenario.add_vehicle_spec(make_example_vehicle_spec("VIN-A"))
        platform = scenario.build()
        platform.boot()
        platform.run(3 * SECOND)
        assert platform.vehicle("VIN-A").ecm_pirte.uplink.up


class TestHeterogeneousFleet:
    def _mixed_fleet(self):
        scenario = ScenarioBuilder(seed=3, trace=False)
        scenario.user("fleet-admin", "Fleet Admin")
        # Two-ECU variant and three-ECU variant of the same model: the
        # APP only targets swc1/swc2, present on both.
        small = scenario.vehicle("VIN-SMALL", "mixed-model")
        small.ecus("ECU1", "ECU2")
        small.ecm("swc1", on="ECU1",
                  relays=[RelayLink("swc2", "V0", "V1")])
        small.plugin_swc(
            "swc2", on="ECU2",
            relays=[RelayLink("swc1", "V0", "V1")],
            services=[ServicePort("V4", "act_out", "out", INT16)],
        )
        small.legacy("sink_a", make_sink_type(), on="ECU2")
        small.connect("swc2", "act_out", "sink_a", "in")
        declare_tri_ecu_vehicle(scenario, vin="VIN-BIG", model="mixed-model")
        app = scenario.app("pair", "mixed-model")
        app.plugin("SRC", source=FORWARD_SOURCE, mem_hint=8, on="swc1",
                   ports=("cmd", "out"))
        app.plugin("DST", source=FORWARD_SOURCE, mem_hint=8, on="swc2",
                   ports=("in", "act"))
        app.unconnected("SRC", "cmd")
        app.wire("SRC", "out", "DST", "in")
        app.virtual("DST", "act", "V4")
        return scenario.build()

    def test_mixed_ecu_counts_deploy_everywhere(self):
        fleet = self._mixed_fleet()
        assert isinstance(fleet, Platform)
        assert [len(v.spec.ecus) for v in fleet.vehicles] == [2, 3]
        fleet.run(1 * SECOND)
        campaign = fleet.deploy("pair")
        assert campaign.ok
        campaign.wait(30 * SECOND)
        assert campaign.statuses() == {
            "VIN-SMALL": InstallStatus.ACTIVE,
            "VIN-BIG": InstallStatus.ACTIVE,
        }
        assert fleet.active_count("pair") == 2

    def test_statistical_declaration_builds_a_statistical_vehicle(self):
        scenario = ScenarioBuilder(seed=3, trace=False)
        declare_tri_ecu_vehicle(scenario, vin="VIN-FULL")
        declare_tri_ecu_vehicle(scenario, vin="VIN-STAT").statistical()
        fleet = scenario.build()
        kinds = [type(vehicle).__name__ for vehicle in fleet.vehicles]
        assert kinds == ["Vehicle", "StatisticalVehicle"]
        assert sorted(fleet.server.db.vehicles) == ["VIN-FULL", "VIN-STAT"]

    def test_fleet_run_boots_exactly_once(self):
        fleet = self._mixed_fleet()
        boots = {"count": 0}
        victim = fleet.vehicles[0]
        original = victim.boot
        victim.boot = lambda: (boots.__setitem__("count", boots["count"] + 1),
                               original())
        fleet.run(100 * MS)
        fleet.run(100 * MS)
        fleet.boot()
        assert boots["count"] == 1

    def test_rejected_vehicle_tracked_per_vin(self):
        fleet = self._mixed_fleet()
        fleet.run(1 * SECOND)
        campaign = fleet.deploy("pair")
        campaign.wait(30 * SECOND)
        # Second campaign: already installed everywhere -> all rejected,
        # wait() resolves immediately with nothing pending.
        again = fleet.deploy("pair")
        assert not again.ok
        assert sorted(again.rejected_vins) == ["VIN-BIG", "VIN-SMALL"]
        assert "already installed" in again.reasons("VIN-SMALL")[0]
        assert again.wait(1 * SECOND) == 0
