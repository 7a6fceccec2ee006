"""Reconciliation (health-driven restore) and generator edge cases."""

import pytest

from repro.autosar import (
    ComponentType,
    DataElement,
    Runnable,
    SenderReceiverInterface,
    SystemDescription,
    UINT16,
    build_system,
    provided_port,
    required_port,
)
from repro.errors import ConfigurationError
from repro.fes.example_platform import build_example_platform
from repro.server.models import InstallStatus
from repro.sim import SECOND

SPEED_IF = SenderReceiverInterface("GSpeedIf", [DataElement("v", UINT16)])


@pytest.fixture()
def deployed():
    p = build_example_platform()
    p.boot()
    p.run(1 * SECOND)
    assert p.deploy_remote_control().ok
    p.run(3 * SECOND)
    return p


class TestReconcile:
    def test_reconcile_noop_when_healthy(self, deployed):
        deployed.vehicle().pirte_of("swc2").emit_diagnostics()
        deployed.vehicle().ecm_pirte.emit_diagnostics()
        deployed.run(2 * SECOND)
        result = deployed.server.api.deployments.reconcile("VIN-0001")
        assert result.ok
        assert result.pushed_messages == 0

    def test_reconcile_repushes_missing_plugin(self, deployed):
        pirte2 = deployed.vehicle().pirte_of("swc2")
        pirte2.uninstall("OP")  # RAM loss on ECU2, server not told
        pirte2.emit_diagnostics()
        deployed.run(2 * SECOND)
        result = deployed.server.api.deployments.reconcile("VIN-0001")
        assert result.pushed_messages == 1
        deployed.run(3 * SECOND)
        assert "OP" in pirte2.plugins
        assert (
            deployed.server.api.deployments.installation_status(
                "VIN-0001", "remote-control"
            )
            is InstallStatus.ACTIVE
        )
        # End-to-end works again.
        deployed.phone().send("Wheels", 6)
        deployed.run(1 * SECOND)
        assert deployed.actuator_state().get("wheels") == [6]

    def test_reconcile_without_reports_does_nothing(self, deployed):
        """No telemetry -> no action (absence of evidence rule)."""
        pirte2 = deployed.vehicle().pirte_of("swc2")
        pirte2.uninstall("OP")
        result = deployed.server.api.deployments.reconcile("VIN-0001")
        assert result.pushed_messages == 0
        assert "OP" not in pirte2.plugins


class TestGeneratorEdges:
    def test_can_id_space_exhaustion(self):
        """More cross-ECU elements than 11-bit ids -> clear error."""
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_ecu("e2")
        wide_if = SenderReceiverInterface(
            "WideIf",
            [DataElement(f"el{i}", UINT16) for i in range(64)],
        )
        for k in range(30):  # 30 * 64 = 1920 > 0x7FF - 0x100
            sender = ComponentType(
                f"S{k}", ports=[provided_port("out", wide_if)]
            )
            receiver = ComponentType(
                f"R{k}", ports=[required_port("in", wide_if)]
            )
            desc.add_component(f"s{k}", sender, "e1")
            desc.add_component(f"r{k}", receiver, "e2")
            desc.connect(f"s{k}", "out", f"r{k}", "in")
        with pytest.raises(ConfigurationError, match="exhausted"):
            build_system(desc)

    def test_cross_ecu_connector_needs_bus(self):
        desc = SystemDescription()
        desc.add_ecu("e1", on_bus=False)
        desc.add_ecu("e2")
        sender = ComponentType("S", ports=[provided_port("out", SPEED_IF)])
        receiver = ComponentType("R", ports=[required_port("in", SPEED_IF)])
        desc.add_component("s", sender, "e1")
        desc.add_component("r", receiver, "e2")
        desc.connect("s", "out", "r", "in")
        with pytest.raises(ConfigurationError):
            build_system(desc)

    def test_bus_free_system_builds(self):
        desc = SystemDescription()
        desc.add_ecu("e1", on_bus=False)
        comp = ComponentType(
            "Lone",
            runnables=[Runnable("r", lambda i: None)],
        )
        desc.add_component("c", comp, "e1")
        system = build_system(desc)
        assert system.bus is None
        system.run(1000)

    def test_unconnected_provided_port_write_is_noop(self):
        """Writes to ports without connectors vanish harmlessly
        (the paper's unused virtual ports rely on this)."""
        writes = []

        def produce(instance):
            instance.write("out", "v", 5)
            writes.append(True)

        sender = ComponentType(
            "S",
            ports=[provided_port("out", SPEED_IF)],
            runnables=[Runnable("produce", produce)],
        )
        from repro.autosar.events import InitEvent

        sender.add_event(InitEvent("produce"))
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_component("s", sender, "e1")
        system = build_system(desc)
        system.run(10_000)
        assert writes == [True]

    def test_instance_lookup_across_ecus(self):
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_ecu("e2")
        comp = ComponentType("C")
        desc.add_component("a", comp, "e1")
        desc.add_component("b", comp, "e2")
        system = build_system(desc)
        assert system.instance("a").name == "a"
        assert system.instance("b").name == "b"
        with pytest.raises(ConfigurationError):
            system.instance("ghost")
