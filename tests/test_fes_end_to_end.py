"""End-to-end tests of the full federated system (paper Sec. 4).

These exercise the complete pipeline: web-portal deploy -> context
generation -> pusher -> cellular link -> ECM -> type I distribution over
the CAN bus -> PIRTE install -> acks back -> InstalledAPP records; then
the steady-state FES data path phone -> COM -> type II -> OP -> type III
-> actuators.
"""

import pytest

from repro.core.plugin import PluginState
from repro.fes.example_platform import build_example_platform
from repro.server.models import InstallStatus
from repro.server.services import ErrorCode
from repro.sim import MS, SECOND


@pytest.fixture()
def platform():
    p = build_example_platform()
    p.boot()
    p.run(1 * SECOND)  # ECM connects to the trusted server
    return p


@pytest.fixture()
def deployed(platform):
    result = platform.deploy_remote_control()
    assert result.ok, result.reasons
    platform.run(3 * SECOND)
    return platform


class TestDeployment:
    def test_ecm_connects_at_startup(self, platform):
        assert platform.vehicle().ecm_pirte.connected
        assert platform.server.pusher.is_connected("VIN-0001")

    def test_deploy_reaches_active(self, deployed):
        status = deployed.server.api.deployments.installation_status(
            "VIN-0001", "remote-control"
        )
        assert status is InstallStatus.ACTIVE

    def test_com_installed_on_ecm(self, deployed):
        ecm = deployed.vehicle().ecm_pirte
        assert ecm.plugin("COM").state is PluginState.RUNNING

    def test_op_installed_on_swc2(self, deployed):
        pirte2 = deployed.vehicle().pirte_of("swc2")
        assert pirte2.plugin("OP").state is PluginState.RUNNING

    def test_install_package_crossed_the_bus(self, deployed):
        bus = deployed.vehicle().system.bus
        assert bus is not None
        # The OP package (hundreds of bytes) needs many CAN frames.
        assert bus.frames_transferred > 20

    def test_acks_counted(self, deployed):
        assert deployed.server.api.deployments.acks_processed == 2
        assert deployed.vehicle().ecm_pirte.acks_forwarded == 1

    def test_deploy_offline_vehicle_queues(self):
        p = build_example_platform()
        deployments = p.server.api.deployments
        # Do not boot: the ECM never connects.
        result = deployments.deploy(p.user_id, "VIN-0001", "remote-control")
        assert result.ok
        assert p.server.pusher.pending_for("VIN-0001") == 2
        # Boot later: the queued packages flush on connect.
        p.boot()
        p.run(4 * SECOND)
        assert (
            deployments.installation_status("VIN-0001", "remote-control")
            is InstallStatus.ACTIVE
        )

    def test_duplicate_deploy_rejected(self, deployed):
        result = deployed.server.api.deployments.deploy(
            deployed.user_id, "VIN-0001", "remote-control"
        )
        assert result.code is ErrorCode.ALREADY_INSTALLED
        assert "already installed" in result.reasons[0]


class TestFesDataPath:
    def test_phone_controls_actuators(self, deployed):
        deployed.phone().send("Wheels", -25)
        deployed.phone().send("Speed", 40)
        deployed.run(1 * SECOND)
        state = deployed.actuator_state()
        assert state.get("wheels") == [-25]
        assert state.get("speed") == [40]

    def test_phone_connected_after_install(self, deployed):
        assert deployed.phone().is_connected()

    def test_command_stream_ordered(self, deployed):
        for angle in range(-5, 6):
            deployed.phone().send("Wheels", angle)
        deployed.run(2 * SECOND)
        assert deployed.actuator_state().get("wheels") == list(range(-5, 6))

    def test_unknown_message_dropped(self, deployed):
        ecm = deployed.vehicle().ecm_pirte
        before = ecm.dropped_messages
        deployed.phone().send("Brakes", 1)
        deployed.run(1 * SECOND)
        assert ecm.dropped_messages == before + 1
        assert deployed.actuator_state() == {}

    def test_commands_before_install_lost_gracefully(self, platform):
        # Phone is not yet connected (ECC not installed): send() is a
        # no-op with zero peers.
        assert platform.phone().send("Wheels", 5) == 0


class TestUninstallAndRestore:
    def test_uninstall_removes_both_plugins(self, deployed):
        result = deployed.server.api.deployments.uninstall(
            deployed.user_id, "VIN-0001", "remote-control"
        )
        assert result.ok
        deployed.run(3 * SECOND)
        assert (
            deployed.server.api.deployments.installation_status(
                "VIN-0001", "remote-control"
            )
            is None
        )
        assert "COM" not in deployed.vehicle().ecm_pirte.plugins
        assert "OP" not in deployed.vehicle().pirte_of("swc2").plugins

    def test_uninstalled_plugin_stops_processing(self, deployed):
        deployed.server.api.deployments.uninstall(
            deployed.user_id, "VIN-0001", "remote-control"
        )
        deployed.run(3 * SECOND)
        deployed.phone().send("Wheels", 9)
        deployed.run(1 * SECOND)
        assert deployed.actuator_state().get("wheels") is None

    def test_reinstall_after_uninstall(self, deployed):
        deployed.server.api.deployments.uninstall(
            deployed.user_id, "VIN-0001", "remote-control"
        )
        deployed.run(3 * SECOND)
        result = deployed.deploy_remote_control()
        assert result.ok, result.reasons
        deployed.run(3 * SECOND)
        deployed.phone().send("Speed", 77)
        deployed.run(1 * SECOND)
        assert deployed.actuator_state().get("speed") == [77]

    def test_restore_replaced_ecu(self, deployed):
        """Workshop scenario: ECU2 replaced, plug-ins re-deployed."""
        pirte2 = deployed.vehicle().pirte_of("swc2")
        # Simulate replacement: wipe the PIRTE's dynamic state.
        pirte2.uninstall("OP")
        assert "OP" not in pirte2.plugins
        result = deployed.server.api.deployments.restore("VIN-0001", "ECU2")
        assert result.ok
        assert result.pushed_messages == 1
        deployed.run(3 * SECOND)
        assert pirte2.plugin("OP").state is PluginState.RUNNING
        # The restored plug-in keeps its original port ids, so the
        # already-installed COM keeps routing to it.
        deployed.phone().send("Wheels", 3)
        deployed.run(1 * SECOND)
        assert deployed.actuator_state().get("wheels") == [3]

    def test_restore_unknown_ecu_fails(self, deployed):
        result = deployed.server.api.deployments.restore("VIN-0001", "ECU9")
        assert result.code is ErrorCode.NOTHING_TO_DO


class TestServerSideChecks:
    def test_deploy_unbound_user_rejected(self, platform):
        api = platform.server.api
        api.vehicles.create_user("stranger", "Eve").unwrap()
        result = api.deployments.deploy(
            "stranger", "VIN-0001", "remote-control"
        )
        assert result.code is ErrorCode.UNAUTHORIZED

    def test_unknown_app_rejected(self, platform):
        result = platform.server.api.deployments.deploy(
            platform.user_id, "VIN-0001", "ghost"
        )
        assert result.code is ErrorCode.UNKNOWN_ENTITY
