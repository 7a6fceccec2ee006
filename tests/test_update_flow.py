"""Tests for the stop-then-restart-fresh update flow (paper Sec. 5)."""

from dataclasses import replace

import pytest

from repro.core import messages as msg
from repro.fes.example_platform import (
    PHONE_ADDRESS,
    build_example_platform,
    make_remote_control_app,
)
from repro.server.models import InstallStatus
from repro.server.services import ErrorCode
from repro.sim import SECOND
from tests.helpers import server_packages


INVERTED_OP = """
.entry on_message
    STORE 1
    STORE 0
    LOAD 0
    JZ wheels
    LOAD 1
    WRPORT 3
    HALT
wheels:
    LOAD 1
    NEG             ; v2.0 behaviour: inverted steering
    WRPORT 2
    HALT
"""


def make_v2_app():
    """remote-control 2.0: OP inverts the wheel angle."""
    from repro.server.models import PluginDescriptor
    from repro.vm.loader import compile_plugin

    app = make_remote_control_app(PHONE_ADDRESS, version="2.0")
    app.plugins["OP"] = PluginDescriptor(
        "OP",
        compile_plugin(INVERTED_OP, mem_hint=8).raw,
        app.plugins["OP"].port_names,
    )
    return app


@pytest.fixture()
def deployed():
    p = build_example_platform()
    p.boot()
    p.run(1 * SECOND)
    assert p.deploy("remote-control").ok
    p.run(3 * SECOND)
    return p


class TestUpdateFlow:
    def test_update_without_new_version_rejected(self, deployed):
        result = deployed.server.api.deployments.update(
            deployed.user_id, "VIN-0001", "remote-control"
        )
        assert result.code is ErrorCode.VERSION_UNCHANGED
        assert "upload a new version" in result.reasons[0]

    def test_update_uninstalled_app_rejected(self, deployed):
        api = deployed.server.api
        api.store.upload_version(make_v2_app()).unwrap()
        result = api.deployments.update(
            deployed.user_id, "VIN-0001", "ghost-app"
        )
        # The install check runs before the app lookup.
        assert result.code is ErrorCode.NOT_INSTALLED

    def test_version_replacement_guard(self, deployed):
        result = deployed.server.api.store.upload_version(
            make_remote_control_app(PHONE_ADDRESS, version="1.0")
        )
        assert result.code is ErrorCode.DUPLICATE_ENTITY

    def test_update_end_to_end(self, deployed):
        api = deployed.server.api
        api.store.upload_version(make_v2_app()).unwrap()
        result = api.deployments.update(
            deployed.user_id, "VIN-0001", "remote-control"
        )
        assert result.ok, result.reasons
        deployed.run(6 * SECOND)
        # New version active, recorded as 2.0.
        installed = deployed.server.db.installation(
            "VIN-0001", "remote-control"
        )
        assert installed is not None
        assert installed.version == "2.0"
        assert installed.status is InstallStatus.ACTIVE
        # Behavioural proof: v2 inverts the steering angle.
        deployed.phone().send("Wheels", 30)
        deployed.run(1 * SECOND)
        assert deployed.actuator_state().get("wheels") == [-30]

    def test_old_plugin_state_not_transferred(self, deployed):
        """'Restarted fresh' (paper Sec. 5): VM memory is reset."""
        pirte2 = deployed.vehicle().pirte_of("swc2")
        old_vm = pirte2.plugin("OP").vm
        old_vm.memory[0] = 12345  # poke state into the running VM
        api = deployed.server.api
        api.store.upload_version(make_v2_app()).unwrap()
        api.deployments.update(deployed.user_id, "VIN-0001", "remote-control")
        deployed.run(6 * SECOND)
        new_vm = deployed.vehicle().pirte_of("swc2").plugin("OP").vm
        assert new_vm is not old_vm
        assert new_vm.memory[0] == 0

    def test_port_ids_reallocated_consistently(self, deployed):
        """After the update the COM->OP routing still works, i.e. the
        regenerated contexts agree across both fresh plug-ins."""
        api = deployed.server.api
        api.store.upload_version(make_v2_app()).unwrap()
        api.deployments.update(deployed.user_id, "VIN-0001", "remote-control")
        deployed.run(6 * SECOND)
        deployed.phone().send("Speed", 44)
        deployed.run(1 * SECOND)
        assert deployed.actuator_state().get("speed") == [44]


def make_swapped_externals_app():
    """remote-control 2.0: the phone's Wheels drives COM's speed port."""
    from repro.api.builder import AppBuilder
    from repro.fes.example_platform import COM_SOURCE, MODEL, OP_SOURCE

    builder = AppBuilder("remote-control", MODEL, "2.0")
    builder.plugin(
        "COM", source=COM_SOURCE, mem_hint=8, on="swc1",
        ports=("cmd_wheels", "cmd_speed", "out_wheels", "out_speed"),
    )
    builder.plugin(
        "OP", source=OP_SOURCE, mem_hint=8, on="swc2",
        ports=("in_wheels", "in_speed", "act_wheels", "act_speed"),
    )
    builder.unconnected("COM", "cmd_wheels")
    builder.unconnected("COM", "cmd_speed")
    builder.wire("COM", "out_wheels", "OP", "in_wheels")
    builder.wire("COM", "out_speed", "OP", "in_speed")
    builder.virtual("OP", "act_wheels", "V4")
    builder.virtual("OP", "act_speed", "V5")
    builder.external(PHONE_ADDRESS, "Wheels", "COM", "cmd_speed")
    builder.external(PHONE_ADDRESS, "Speed", "COM", "cmd_wheels")
    return builder.to_app()


class TestEccAfterUpdate:
    def test_external_messages_follow_the_new_versions_ecc(self, deployed):
        deployed.phone().send("Wheels", 30)
        deployed.run(1 * SECOND)
        assert deployed.actuator_state().get("wheels") == [30]
        api = deployed.server.api
        api.store.upload_version(make_swapped_externals_app()).unwrap()
        result = api.deployments.update(
            deployed.user_id, "VIN-0001", "remote-control"
        )
        assert result.ok, result.reasons
        deployed.run(6 * SECOND)
        ecm = deployed.vehicle().pirte_of("swc1")
        # One entry per message: the uninstall dropped 1.0's entries.
        assert sorted(e.message_name for e in ecm.ecc_entries) == [
            "Speed", "Wheels",
        ]
        deployed.phone().send("Wheels", 77)
        deployed.run(1 * SECOND)
        state = deployed.actuator_state()
        assert state.get("wheels") == [30]
        assert state.get("speed") == [77]


#: The server's remote-control packages at 1.0 for the example phone,
#: and at 2.0 for a phone at another address.
PHONE_B = "phone-b:1"
V1 = server_packages("1.0")
V2_B = server_packages("2.0", phone=PHONE_B)


def ack_spy(platform):
    """The ``(op, plug-in, SW-C, status)`` of every ack the server gets,
    in arrival order; the server still handles each message."""
    acks = []
    deployments = platform.server.api.deployments

    def spy(vin, raw):
        message = msg.decode(raw)
        if isinstance(message, msg.AckMessage):
            acks.append((message.plugin_name, message.target_swc,
                         message.op, message.status))
        deployments.on_vehicle_message(vin, raw)

    platform.server.pusher.on_upstream(spy)
    return acks


def ecc_phones(platform):
    ecm = platform.vehicle().ecm_pirte
    return sorted({entry.endpoint for entry in ecm.ecc_entries})


class TestEccFollowsTheAnswer:
    """An install's ECC is adopted only when the install is acked OK."""

    INSTALL = msg.MessageType.INSTALL

    def test_refused_package_keeps_the_running_plugins_ecc(self, deployed):
        acks = ack_spy(deployed)
        deployed.server.pusher.push("VIN-0001", V2_B["COM"].encode())
        deployed.run(1 * SECOND)
        assert acks == [
            ("COM", "swc1", self.INSTALL, msg.AckStatus.LIFECYCLE_ERROR),
        ]
        assert deployed.vehicle().ecm_pirte.plugin("COM").package.version == (
            "1.0"
        )
        assert ecc_phones(deployed) == [PHONE_ADDRESS]

    def test_refused_forwarded_package_adds_no_ecc(self, deployed):
        acks = ack_spy(deployed)
        entries = deployed.vehicle().ecm_pirte.ecc_entries
        package = replace(V2_B["COM"], target_swc="swc2", target_ecu="ECU2")
        deployed.server.pusher.push("VIN-0001", package.encode())
        deployed.run(1 * SECOND)
        assert acks == [
            ("COM", "swc2", self.INSTALL, msg.AckStatus.CONTEXT_ERROR),
        ]
        assert deployed.vehicle().ecm_pirte.ecc_entries == entries

    @pytest.fixture()
    def booted(self):
        platform = build_example_platform()
        platform.boot()
        platform.run(1 * SECOND)
        return platform

    def test_forwarded_answers_take_the_eccs_in_arrival_order(self, booted):
        acks = ack_spy(booted)
        ecm = booted.vehicle().ecm_pirte
        # OP carries an ECC here: phone-a's at 1.0, phone-b's at 2.0.
        for package in (
            replace(V1["OP"], ecc=V1["COM"].ecc),
            replace(V2_B["OP"], ecc=V2_B["COM"].ecc),
        ):
            ecm.handle_server_message(package.encode())
        booted.run(1 * SECOND)
        assert acks == [
            ("OP", "swc2", self.INSTALL, msg.AckStatus.OK),
            ("OP", "swc2", self.INSTALL, msg.AckStatus.LIFECYCLE_ERROR),
        ]
        assert ecc_phones(booted) == [PHONE_ADDRESS]

    def test_uninstall_voids_a_waiting_install(self, booted):
        acks = ack_spy(booted)
        ecm = booted.vehicle().ecm_pirte
        ecm.handle_server_message(
            replace(V1["OP"], ecc=V1["COM"].ecc).encode()
        )
        ecm.handle_server_message(
            msg.UninstallMessage("OP", "ECU2", "swc2").encode()
        )
        booted.run(1 * SECOND)
        assert [status for *__, status in acks] == [msg.AckStatus.OK] * 2
        assert ecm.ecc_entries == []
