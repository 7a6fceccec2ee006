"""The install life cycle, kept in the server's records.

Everything that decides an install outcome lives on the
``InstalledApp`` records in ``Database``: the status, each plug-in's
ack flags and the user a pending update redeploys as.  So a server
restart between any two operations or vehicle messages changes no
outcome.  Also the ack rule: uninstall acks apply only to a removal in
progress, and a plug-in the vehicle no longer has counts as removed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import InstallStatus, build_fleet
from repro.core import messages as msg
from repro.errors import ServerError
from repro.fes.example_platform import PHONE_ADDRESS, make_remote_control_app
from repro.server.pusher import PushVerdict
from repro.sim import MS, SECOND

APP = "remote-control"
#: The remote-control APP's plug-ins and the SW-Cs that host them.
PLUGINS = (("COM", "swc1"), ("OP", "swc2"))
INSTALL = msg.MessageType.INSTALL
UNINSTALL = msg.MessageType.UNINSTALL


def deployed_fleet(size=1):
    """``size`` example cars running the remote-control APP."""
    fleet = build_fleet(size, seed=1)
    fleet.api.store.upload(make_remote_control_app(PHONE_ADDRESS)).unwrap()
    deployment = fleet.deploy(APP)
    deployment.wait(30 * SECOND)
    assert deployment.all_active
    return fleet


def upload_version(fleet, version):
    fleet.api.store.upload_version(
        make_remote_control_app(PHONE_ADDRESS, version=version)
    ).unwrap()


def inject_ack(fleet, vin, plugin, swc, op, status):
    fleet.server.pusher.inject_upstream(
        vin, msg.AckMessage(plugin, swc, op, status).encode()
    )


def deploy_events(fleet):
    events = []
    fleet.api.telemetry.subscribe(events.append, ("deploy",))
    return events


def installed_plugins(fleet):
    """Plug-in names each vehicle's PIRTEs run, per VIN and SW-C."""
    return {
        vin: {
            swc: sorted(fleet.vehicle(vin).pirte_of(swc).plugins)
            for _, swc in PLUGINS
        }
        for vin in fleet.vins
    }


class TestRecordedUpdate:
    def test_update_survives_a_server_restart(self):
        """A restart between update() and the last uninstall ack still
        redeploys the new version."""
        fleet = deployed_fleet()
        vin = fleet.vins[0]
        upload_version(fleet, "2.0")
        assert fleet.api.deployments.update(fleet.user_id, vin, APP).ok
        fleet.server.restart()
        fleet.sim.run_for(30 * SECOND)
        record = fleet.server.db.installation(vin, APP)
        assert record is not None
        assert (record.status, record.version) == (InstallStatus.ACTIVE, "2.0")
        assert installed_plugins(fleet)[vin] == {
            "swc1": ["COM"], "swc2": ["OP"],
        }


class TestOneStatusWriter:
    def test_duplicate_install_ack_publishes_nothing(self):
        """An OK ack for an ACTIVE record (a re-delivered package)
        changes no status, so no event is published."""
        fleet = deployed_fleet()
        vin = fleet.vins[0]
        events = deploy_events(fleet)
        inject_ack(fleet, vin, "COM", "swc1", INSTALL, msg.AckStatus.OK)
        assert fleet.installation_status(vin, APP) is InstallStatus.ACTIVE
        assert events == []


class TestOneResend:
    def test_reconcile_refuses_a_record_without_a_package(self):
        """reconcile raises the typed error restore and retry_install
        raise for a record without a stored package."""
        fleet = deployed_fleet()
        vin = fleet.vins[0]
        vehicle = fleet.vehicle(vin)
        vehicle.pirte_of("swc2").uninstall("OP")  # ECU2 lost its RAM
        vehicle.emit_diagnostics()
        fleet.sim.run_for(2 * SECOND)
        fleet.server.db.installation(vin, APP).plugin("OP").package = b""
        with pytest.raises(ServerError, match="no stored package"):
            fleet.api.deployments.reconcile(vin)


class TestNegativeUninstallAcks:
    def test_unknown_plugin_counts_as_removed(self):
        """A plug-in the vehicle no longer has is as removed as one it
        just uninstalled: the removal completes."""
        fleet = deployed_fleet()
        vin = fleet.vins[0]
        events = deploy_events(fleet)
        assert fleet.api.deployments.uninstall(fleet.user_id, vin, APP).ok
        inject_ack(fleet, vin, "COM", "swc1", UNINSTALL, msg.AckStatus.OK)
        inject_ack(
            fleet, vin, "OP", "swc2", UNINSTALL,
            msg.AckStatus.UNKNOWN_PLUGIN,
        )
        assert fleet.installation_status(vin, APP) is None
        assert [(e.name, e.vin) for e in events] == [("uninstall_done", vin)]
        # The vehicle's own acks arrive later and find no record.
        fleet.sim.run_for(5 * SECOND)
        assert fleet.installation_status(vin, APP) is None
        assert len(events) == 1
        assert installed_plugins(fleet)[vin] == {"swc1": [], "swc2": []}

    def test_other_negative_ack_fails_the_removal(self):
        """Any other negative uninstall ack fails the removal and
        cancels the update waiting on it."""
        fleet = deployed_fleet()
        vin = fleet.vins[0]
        upload_version(fleet, "2.0")
        events = deploy_events(fleet)
        assert fleet.api.deployments.update(fleet.user_id, vin, APP).ok
        record = fleet.server.db.installation(vin, APP)
        assert record.update_user == fleet.user_id
        inject_ack(
            fleet, vin, "OP", "swc2", UNINSTALL,
            msg.AckStatus.LIFECYCLE_ERROR,
        )
        assert record.status is InstallStatus.FAILED
        assert record.update_user == ""
        assert [(e.name, e.data["status"]) for e in events] == [
            ("uninstall_failed", "failed"),
        ]
        # The vehicle's own uninstall acks answer a removal that has
        # already failed: they are ignored and nothing is redeployed.
        fleet.sim.run_for(5 * SECOND)
        assert fleet.server.db.installation(vin, APP) is record
        assert (record.status, record.version) == (
            InstallStatus.FAILED, "1.0",
        )
        assert len(events) == 1


# -- restart invariance ----------------------------------------------------------

VIN_INDEX = st.integers(0, 1)
STEP = st.one_of(
    *(
        st.tuples(st.just(kind), VIN_INDEX)
        for kind in (
            "deploy", "update", "uninstall", "retry", "abandon",
            "reconcile", "diagnostics",
        )
    ),
    st.tuples(
        st.just("restore"), VIN_INDEX, st.sampled_from(("ECU1", "ECU2"))
    ),
    # A stale install NACK, or an uninstall ack no removal asked for.
    st.tuples(
        st.just("stale"), VIN_INDEX, st.sampled_from(PLUGINS),
        st.sampled_from((
            (INSTALL, msg.AckStatus.BAD_PACKAGE),
            (UNINSTALL, msg.AckStatus.OK),
        )),
    ),
    st.tuples(st.just("lose"), VIN_INDEX, st.sampled_from(PLUGINS)),
    st.tuples(st.just("advance"), st.integers(1 * MS, 2 * SECOND)),
)


def run_step(fleet, index, step):
    """Apply one generated step; ``(code, pushed)`` of its response."""
    kind, *args = step
    if kind == "advance":
        fleet.sim.run_for(args[0])
        return None
    vin = fleet.vins[args[0]]
    deployments = fleet.api.deployments
    user = fleet.user_id
    if kind == "stale":
        (plugin, swc), (op, status) = args[1:]
        inject_ack(fleet, vin, plugin, swc, op, status)
        return None
    if kind == "lose":  # the ECU lost the plug-in; the server is not told
        plugin, swc = args[1]
        fleet.vehicle(vin).pirte_of(swc).uninstall(plugin)
        return None
    if kind == "diagnostics":
        fleet.vehicle(vin).emit_diagnostics()
        return None
    if kind == "update":
        upload_version(fleet, f"{index + 2}.0")
        result = deployments.update(user, vin, APP)
    elif kind == "restore":
        result = deployments.restore(vin, args[1])
    elif kind == "reconcile":
        result = deployments.reconcile(vin)
    else:
        operation = {
            "deploy": deployments.deploy,
            "uninstall": deployments.uninstall,
            "retry": deployments.retry_install,
            "abandon": deployments.abandon,
        }[kind]
        result = operation(user, vin, APP)
    return result.code, result.pushed_messages


def outcome_state(fleet):
    """Per VIN: every installation record and the update failures."""
    state = {}
    for vin in fleet.vins:
        vehicle = fleet.server.db.vehicle(vin)
        records = {
            name: (
                record.status, record.version, record.update_user,
                [
                    (p.plugin_name, p.acked, p.nacked, p.removed)
                    for p in record.plugins
                ],
            )
            for name, record in vehicle.conf.installed.items()
        }
        state[vin] = records, dict(vehicle.update_failures)
    return state


def lose_uninstalls(fleet, count, plugin=None):
    """Drop the next ``count`` uninstall messages the server pushes (of
    ``plugin`` only, when given)."""
    left = [count]

    def verdict(vin, raw):
        message = msg.decode(raw)
        if (
            left[0]
            and isinstance(message, msg.UninstallMessage)
            and plugin in (None, message.plugin_name)
        ):
            left[0] -= 1
            return PushVerdict.drop()
        return PushVerdict.allow()

    fleet.server.pusher.set_push_filter(verdict)


class TestStuckRemoval:
    """A removal whose uninstall messages were lost can still finish."""

    @staticmethod
    def stuck(lost):
        fleet = deployed_fleet()
        vin = fleet.vins[0]
        lose_uninstalls(fleet, lost)
        assert fleet.api.deployments.uninstall(fleet.user_id, vin, APP).ok
        fleet.sim.run_for(30 * SECOND)
        assert fleet.installation_status(vin, APP) is InstallStatus.REMOVING
        return fleet, vin

    @pytest.mark.parametrize("lost", [1, 2])
    def test_uninstall_again_repushes_the_unacked_uninstalls(self, lost):
        fleet, vin = self.stuck(lost)
        again = fleet.api.deployments.uninstall(fleet.user_id, vin, APP)
        assert again.ok and again.pushed_messages == lost
        fleet.sim.run_for(30 * SECOND)
        assert fleet.installation_status(vin, APP) is None
        assert installed_plugins(fleet)[vin] == {"swc1": [], "swc2": []}

    def test_abandon_uninstalls_what_is_still_on_the_vehicle(self):
        fleet, vin = self.stuck(2)
        assert installed_plugins(fleet)[vin] == {
            "swc1": ["COM"], "swc2": ["OP"],
        }
        gone = fleet.api.deployments.abandon(fleet.user_id, vin, APP)
        assert gone.ok and gone.pushed_messages == 2
        fleet.sim.run_for(30 * SECOND)
        assert fleet.installation_status(vin, APP) is None
        assert installed_plugins(fleet)[vin] == {"swc1": [], "swc2": []}


class TestFailedRemoval:
    def test_abandon_uninstalls_what_the_removal_left(self):
        """After a removal failed half-way, abandon pushes the uninstall
        of the plug-in still on the vehicle, not of the one removed."""
        fleet = deployed_fleet()
        vin = fleet.vins[0]
        lose_uninstalls(fleet, 1, plugin="OP")
        assert fleet.api.deployments.uninstall(fleet.user_id, vin, APP).ok
        fleet.sim.run_for(5 * SECOND)
        inject_ack(
            fleet, vin, "OP", "swc2", UNINSTALL,
            msg.AckStatus.LIFECYCLE_ERROR,
        )
        record = fleet.server.db.installation(vin, APP)
        assert record.status is InstallStatus.FAILED
        assert [(p.plugin_name, p.removed) for p in record.plugins] == [
            ("COM", True), ("OP", False),
        ]
        assert installed_plugins(fleet)[vin] == {"swc1": [], "swc2": ["OP"]}
        gone = fleet.api.deployments.abandon(fleet.user_id, vin, APP)
        assert gone.ok and gone.pushed_messages == 1
        fleet.sim.run_for(5 * SECOND)
        assert fleet.installation_status(vin, APP) is None
        assert installed_plugins(fleet)[vin] == {"swc1": [], "swc2": []}


class TestRestartInvariance:
    @settings(max_examples=50, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(STEP, st.booleans()), min_size=10, max_size=25
        )
    )
    def test_a_restart_changes_no_install_outcome(self, steps):
        """Two identical fleets get the same steps; one server restarts
        before the steps marked True.  Responses, records and, after a
        settle, the vehicles' plug-ins must stay equal."""
        plain, restarted = deployed_fleet(2), deployed_fleet(2)
        for index, (step, restart) in enumerate(steps):
            if restart:
                restarted.server.restart()
            assert run_step(plain, index, step) == run_step(
                restarted, index, step
            )
            assert outcome_state(plain) == outcome_state(restarted)
        # Ten times an install's round trip: every ack has arrived.
        for fleet in (plain, restarted):
            fleet.sim.run_for(3 * SECOND)
        assert outcome_state(plain) == outcome_state(restarted)
        assert installed_plugins(plain) == installed_plugins(restarted)
