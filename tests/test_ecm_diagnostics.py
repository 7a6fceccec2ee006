"""ECM unit behaviours and the diagnostics path (type I use case)."""

import pytest

from repro.core import messages as msg
from repro.core.messages import DiagMessage, PluginHealth, decode
from repro.fes.example_platform import build_example_platform
from repro.sim import MS, SECOND


@pytest.fixture()
def deployed():
    p = build_example_platform()
    p.boot()
    p.run(1 * SECOND)
    result = p.deploy_remote_control()
    assert result.ok
    p.run(3 * SECOND)
    return p


class TestDiagMessage:
    def test_roundtrip(self):
        report = DiagMessage(
            "ECU2", "swc2", 10, 502,
            (PluginHealth("OP", "running", 42, 1, 900),),
        )
        assert decode(report.encode()) == report

    def test_empty_report_roundtrip(self):
        report = DiagMessage("ECU1", "swc1", 0, 512, ())
        assert decode(report.encode()) == report


class TestDiagnosticsPath:
    def test_pirte_report_contents(self, deployed):
        pirte2 = deployed.vehicle().pirte_of("swc2")
        report = pirte2.diagnostic_report()
        assert report.source_swc == "swc2"
        assert report.source_ecu == "ECU2"
        assert report.memory_used_blocks > 0
        names = [h.plugin_name for h in report.plugins]
        assert names == ["OP"]
        assert report.plugins[0].state == "running"

    def test_remote_swc_diag_reaches_server(self, deployed):
        """swc2 -> type I -> ECM -> cellular -> server health table."""
        pirte2 = deployed.vehicle().pirte_of("swc2")
        pirte2.emit_diagnostics()
        deployed.run(2 * SECOND)
        health = deployed.server.api.vehicles.health("VIN-0001").unwrap()
        assert "swc2" in health
        assert health["swc2"].plugins[0].plugin_name == "OP"

    def test_ecm_diag_reaches_server_directly(self, deployed):
        deployed.vehicle().ecm_pirte.emit_diagnostics()
        deployed.run(2 * SECOND)
        health = deployed.server.api.vehicles.health("VIN-0001").unwrap()
        assert "swc1" in health
        assert health["swc1"].plugins[0].plugin_name == "COM"

    def test_health_reflects_activity(self, deployed):
        deployed.phone().send("Wheels", 5)
        deployed.run(1 * SECOND)
        deployed.vehicle().ecm_pirte.emit_diagnostics()
        deployed.run(2 * SECOND)
        health = deployed.server.api.vehicles.health("VIN-0001").unwrap()
        assert health["swc1"].plugins[0].activations >= 1

    def test_health_updated_not_appended(self, deployed):
        for __ in range(3):
            deployed.vehicle().ecm_pirte.emit_diagnostics()
            deployed.run(1 * SECOND)
        health = deployed.server.api.vehicles.health("VIN-0001").unwrap()
        assert len(health) == 1  # latest report per SW-C, not a log


class TestEcmRouting:
    def test_forward_to_unknown_swc_nacks_server(self, deployed):
        """A package addressed to a SW-C the ECM cannot reach."""
        ecm = deployed.vehicle().ecm_pirte
        install = msg.InstallMessage(
            "ghost", "1.0", "ECU9", "ghost_swc",
            pic=__import__("repro.core.context", fromlist=["Pic"]).Pic(()),
            plc=__import__("repro.core.context", fromlist=["Plc"]).Plc(()),
            ecc=__import__("repro.core.context", fromlist=["Ecc"]).Ecc(()),
            binary=b"",
        )
        before = deployed.server.api.deployments.acks_processed
        ecm.handle_server_message(install.encode())
        deployed.run(2 * SECOND)
        assert deployed.server.api.deployments.acks_processed == before + 1

    def test_data_message_to_remote_ecu(self, deployed):
        """DATA relayed over type I reaches a plug-in port on ECU2."""
        ecm = deployed.vehicle().ecm_pirte
        pirte2 = deployed.vehicle().pirte_of("swc2")
        op = pirte2.plugin("OP")
        wheels_id = op.pic.id_by_name("in_wheels")
        ecm.route_data_message(
            msg.DataMessage("ECU2", "swc2", wheels_id, 17)
        )
        deployed.run(1 * SECOND)
        assert deployed.actuator_state().get("wheels") == [17]

    def test_data_message_to_unknown_ecu_dropped(self, deployed):
        ecm = deployed.vehicle().ecm_pirte
        before = ecm.dropped_messages
        ecm.route_data_message(msg.DataMessage("ECU9", "", 0, 1))
        assert ecm.dropped_messages == before + 1

    def test_send_to_server_queues_before_connect(self):
        platform = build_example_platform()
        platform.boot()
        platform.run(1 * MS)  # PIRTE exists, connection still in flight
        ecm = platform.vehicle().ecm_pirte
        assert not ecm.connected
        ack = msg.AckMessage(
            "x", "swc1", msg.MessageType.INSTALL, msg.AckStatus.OK
        )
        ecm.send_to_server(ack.encode())  # must not raise
        platform.run(2 * SECOND)
        assert ecm.connected

    def test_external_out_without_ecc_dropped(self, deployed):
        ecm = deployed.vehicle().ecm_pirte
        com = ecm.plugin("COM")
        before = ecm.dropped_messages
        # COM port 0 is unconnected AND has an inbound-only ECC entry
        # (it matches entry_for_port, so it routes outward); port 1 too.
        # Write on a port id with no ECC entry at all:
        ecm.handle_direct_write(com, 9999, 1)
        assert ecm.dropped_messages == before + 1
