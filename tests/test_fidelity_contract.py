"""Differential test: a full example car against a statistical vehicle.

Both fidelities answer the trusted server's INSTALL, UNINSTALL, START
and STOP through one contract (:class:`repro.core.plugin.PluginTable`,
routed by target SW-C alone), so the server cannot tell them apart.
Here one platform holds a full example car and a
:class:`~repro.fes.statistical.StatisticalVehicle` that never fails an
install; generated sequences of management messages are pushed to both,
one message at a time, and must give:

* equal ``(op, plug-in, SW-C, status)`` ack sequences;
* after each sequence, equal plug-in names and states per SW-C in
  ``diagnostic_reports()``.

The packages are the server's own for the remote-control APP, at
versions 1.0 and 2.0, delivered again, over each other, or re-addressed
to a SW-C the car does not host (``swc9`` on the routed ``ECU2``,
``swc7`` on an unknown ECU); plug-in names include an absent one.

Both fidelities reach the server on one kind of link
(:class:`~repro.network.sockets.Uplink`), so what they send while
offline waits and arrives alike once they redial.

Campaign outcomes must not depend on fidelity either: an offline-fault
campaign and a soak-fault campaign end alike on all-statistical,
mixed and all-full fleets, and once settled every vehicle runs exactly
the plug-ins the server's ACTIVE records name.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import FaultPlan
from repro.core import messages as msg
from repro.fes import build_fleet, canary_campaign, make_remote_control_app
from repro.fes.example_platform import PHONE_ADDRESS
from repro.sim import MS, SECOND
from repro.telemetry.soak import SoakPolicy
from tests.helpers import assert_vehicles_run_active_records, server_packages

APP = "remote-control"
START = msg.MessageType.START
STOP = msg.MessageType.STOP
UNINSTALL = msg.MessageType.UNINSTALL
#: SW-Cs messages are addressed to: the two the car hosts, one it does
#: not host on a routed ECU and one on an ECU it does not have.
TARGETS = (("swc1", "ECU1"), ("swc2", "ECU2"), ("swc9", "ECU2"), ("swc7", "ECU9"))
PLUGINS = ("COM", "OP", "GHOST")


V1, V2 = server_packages("1.0"), server_packages("2.0")
PACKAGES = {
    "COM": V1["COM"],
    "OP": V1["OP"],
    "COM 2.0": V2["COM"],
    "OP 2.0": V2["OP"],
    "COM@swc9": replace(V1["COM"], target_swc="swc9", target_ecu="ECU2"),
    "COM@swc7": replace(V1["COM"], target_swc="swc7", target_ecu="ECU9"),
}

STEP = st.one_of(
    st.tuples(st.just("install"), st.sampled_from(sorted(PACKAGES))),
    st.tuples(
        st.sampled_from((UNINSTALL, START, STOP)),
        st.sampled_from(PLUGINS),
        st.sampled_from(TARGETS),
    ),
)


def encode(step):
    if step[0] == "install":
        return PACKAGES[step[1]].encode()
    op, plugin, (swc, ecu) = step
    if op is UNINSTALL:
        return msg.UninstallMessage(plugin, ecu, swc).encode()
    return msg.LifecycleMessage(op, plugin, ecu, swc).encode()


def plugins_per_swc(vehicle):
    """``{SW-C: sorted (plug-in, state)}`` from the diagnostic reports."""
    return {
        report.source_swc: sorted(
            (health.plugin_name, health.state) for health in report.plugins
        )
        for report in vehicle.diagnostic_reports()
    }


#: Every probe that diverged before the contract was shared: a package
#: delivered again, COM 2.0 over COM 1.0, START of a running plug-in, a
#: second STOP, STOP of an absent plug-in, and four messages to swc9.
PROBES = [
    ("install", "COM"),
    ("install", "COM"),
    ("install", "COM 2.0"),
    (START, "COM", TARGETS[0]),
    (STOP, "COM", TARGETS[0]),
    (STOP, "COM", TARGETS[0]),
    (STOP, "GHOST", TARGETS[0]),
    ("install", "COM@swc9"),
    (UNINSTALL, "COM", TARGETS[2]),
    (START, "COM", TARGETS[2]),
    (STOP, "COM", TARGETS[2]),
]


class TestManagementContract:
    @settings(max_examples=40, deadline=None)
    @example(steps=PROBES)
    @given(steps=st.lists(STEP, min_size=1, max_size=12))
    def test_both_fidelities_answer_alike(self, steps):
        fleet = build_fleet(2, seed=1, full_vehicles=1)
        full, statistical = fleet.vehicles
        assert statistical.fidelity == "statistical"
        acks = {vin: [] for vin in fleet.vins}

        def spy(vin, raw):
            message = msg.decode(raw)
            if isinstance(message, msg.AckMessage):
                acks[vin].append((
                    message.op, message.plugin_name, message.target_swc,
                    message.status,
                ))

        fleet.server.pusher.on_upstream(spy)
        fleet.run(1 * SECOND)
        for answered, step in enumerate(steps, start=1):
            raw = encode(step)
            for vin in fleet.vins:
                fleet.server.pusher.push(vin, raw)
            # One message at a time: both vehicles answer it before the
            # next is pushed, so the sequences line up.
            deadline = fleet.sim.now + 5 * SECOND
            while fleet.sim.now < deadline and any(
                len(got) < answered for got in acks.values()
            ):
                fleet.sim.run_for(50 * MS)
            assert [len(got) for got in acks.values()] == [answered] * 2
        assert acks[full.vin] == acks[statistical.vin]
        assert plugins_per_swc(full) == plugins_per_swc(statistical)


class TestOfflineLink:
    def test_both_fidelities_buffer_until_redial(self):
        """An APP installed at both fidelities, both links severed by
        the server: a STOP pushed and diagnostic reports emitted while
        offline reach the server only after ``redial()``, and then
        alike."""
        fleet = build_fleet(2, seed=1, full_vehicles=1)
        full, statistical = fleet.vehicles
        pusher = fleet.server.pusher
        acks = {vin: [] for vin in fleet.vins}

        def spy(vin, raw):
            message = msg.decode(raw)
            if isinstance(message, msg.AckMessage):
                acks[vin].append((
                    message.op, message.plugin_name, message.target_swc,
                    message.status,
                ))
            fleet.api.deployments.on_vehicle_message(vin, raw)

        pusher.on_upstream(spy)
        fleet.run(1 * SECOND)
        for name in ("COM", "OP"):
            for vin in fleet.vins:
                pusher.push(vin, PACKAGES[name].encode())
        fleet.sim.run_for(2 * SECOND)
        assert [len(got) for got in acks.values()] == [2, 2]
        for vin in fleet.vins:
            pusher.disconnect(vin)
            pusher.push(vin, encode((STOP, "OP", TARGETS[1])))
        for vehicle in fleet.vehicles:
            vehicle.emit_diagnostics()
        fleet.sim.run_for(2 * SECOND)
        for vin in fleet.vins:
            assert fleet.api.vehicles.health(vin).unwrap() == {}
            assert len(acks[vin]) == 2
        assert full.redial() and statistical.redial()
        fleet.sim.run_for(2 * SECOND)
        assert acks[full.vin] == acks[statistical.vin]
        assert acks[full.vin][-1] == (STOP, "OP", "swc2", msg.AckStatus.OK)

        def health(vin):
            return {
                swc: sorted((h.plugin_name, h.state) for h in report.plugins)
                for swc, report in fleet.api.vehicles.health(vin).unwrap()
                .items()
            }

        assert health(full.vin) == health(statistical.vin) == {
            "swc1": [("COM", "running")], "swc2": [("OP", "running")],
        }


# -- campaign outcomes ---------------------------------------------------------


def offline_outcome(full_vehicles):
    fleet = build_fleet(20, seed=1, full_vehicles=full_vehicles)
    fleet.api.store.upload(make_remote_control_app(PHONE_ADDRESS)).unwrap()
    report = fleet.run_campaign(
        canary_campaign(APP),
        faults=FaultPlan(
            seed=3, offline_rate=1.0, offline_duration_us=1 * SECOND
        ),
    )
    fleet.sim.run_for(5 * SECOND)
    assert_vehicles_run_active_records(fleet)
    return report.status, dict(report.dispositions)


def soak_outcome(full_vehicles):
    fleet = build_fleet(12, seed=3, full_vehicles=full_vehicles)
    fleet.api.store.upload(make_remote_control_app(PHONE_ADDRESS)).unwrap()
    engine = fleet.stage_campaign(
        canary_campaign(APP, fractions=(0.25, 1.0), soak=SoakPolicy()),
        faults=FaultPlan(
            seed=1, soak_trap_vins={"VIN-0005"},
            soak_drain_vins={"VIN-0006"},
        ),
    )
    report = engine.run()
    fleet.sim.run_for(5 * SECOND)
    assert_vehicles_run_active_records(fleet)
    stats = engine.injector.stats
    return (
        report.status,
        [(w.soak_anomalies, w.soak_breaches) for w in report.waves],
        stats.soak_traps_injected,
        stats.soak_blocks_drained,
    )


class TestCampaignOutcomesIgnoreFidelity:
    def test_offline_faults(self):
        """Lost acks and re-pushed packages end alike on 0, 2 and 20
        full vehicles: every vehicle updated."""
        status, dispositions = offline_outcome(0)
        assert status == "succeeded"
        assert {d.value for d in dispositions.values()} == {"updated"}
        assert len(dispositions) == 20
        assert offline_outcome(2) == (status, dispositions)
        assert offline_outcome(20) == (status, dispositions)

    def test_soak_faults(self):
        """A soak trap and a drain planned for VINs that are full on one
        fleet and statistical on the other strike both alike."""
        outcome = soak_outcome(None)
        status, waves, traps, blocks = outcome
        assert status == "rolled_back"
        assert "VIN-0005" in waves[1][0]
        assert (traps, blocks) == (10, 8)
        assert soak_outcome(2) == outcome
