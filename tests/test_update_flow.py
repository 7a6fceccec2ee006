"""Tests for the stop-then-restart-fresh update flow (paper Sec. 5)."""

import pytest

from repro.fes.example_platform import (
    PHONE_ADDRESS,
    build_example_platform,
    make_remote_control_app,
)
from repro.server.models import InstallStatus
from repro.server.services import ErrorCode
from repro.sim import SECOND


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
    assert p.deploy_remote_control().ok
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
