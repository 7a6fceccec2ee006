"""Elided idle PIRTE ticks at the PIRTE's real wake sites.

The scheduler elides the completion of a plug-in SW-C's ``dispatch`` or
``timer`` tick whose ``noop`` predicate (``Pirte.idle``,
``Pirte.timer_idle``) holds; see :mod:`repro.autosar.os.scheduler`.
That is exact only while two things hold:

* every entry point that changes the PIRTE from outside its own
  runnables wakes the host CPU first, so a lazy tick still ahead of the
  kernel is queued for real and runs the new work at its completion
  instant, as the ticking scheduler does;
* the predicates are false whenever a tick would do something.

The wake tests stop the simulation 1 us into a lazy tick's execution
window, change the PIRTE through one real entry point (or deliver an
ECM server or external message the way the network does) and require
the work to run exactly at that tick's completion instant.  The
predicate tests put work into each input a predicate reads and require
the PIRTE not to be idle, and the work to run at the next tick.
"""

from __future__ import annotations

import pytest

from repro.autosar import INT16, SystemDescription, build_system
from repro.core import MessageType, PluginSwcSpec, ServicePort, get_pirte
from repro.core import messages as msg
from repro.core.external import encode_external
from repro.core.plugin_swc import make_plugin_swc_type
from repro.core.virtual_ports import encode_relay
from repro.fes.example_platform import PHONE_ADDRESS, build_example_platform
from repro.sim import MS, SECOND
from tests.helpers import (
    ECHO_SOURCE,
    FORWARD_SOURCE,
    TICKER_SOURCE,
    link_virtual,
    make_install,
)


def host_system(**spec_options):
    """One plug-in SW-C with an inbound and an outbound service port."""
    spec = PluginSwcSpec(
        "WakeHost",
        services=[
            ServicePort("VIN_", "svc_in", "in", INT16),
            ServicePort("VOUT", "svc_out", "out", INT16),
        ],
        vm_memory_blocks=64,
        **spec_options,
    )
    desc = SystemDescription("wakes")
    desc.add_ecu("ecu1")
    desc.add_component("host", make_plugin_swc_type(spec), "ecu1")
    system = build_system(desc)
    system.boot_all()
    system.sim.run_for(5 * MS)
    return system, get_pirte(system.instance("host"))


def install(pirte, name, source, first_port=0):
    """Install ``source`` with ports in/out; out feeds VOUT."""
    ack = pirte.install(make_install(
        name, "ecu1", "host",
        ports=[("in", first_port), ("out", first_port + 1)],
        links=[link_virtual(first_port + 1, "VOUT")],
        source=source,
    ))
    assert ack.ok, ack.detail


def into_lazy_tick(sim, cpu, label):
    """Run until ``label``'s tick is in flight lazily, then 1 us into it.

    Returns the instant the tick's completion is due.
    """
    def lazy_ahead():
        return (
            cpu._lazy is not None and cpu._item.label == label
            and cpu._started + cpu._remaining > sim.now
        )

    for __ in range(10_000):
        while not lazy_ahead():
            assert sim.step()
        # Another event at the same instant may touch the CPU first.
        sim.run_until(sim.now + 1)
        if lazy_ahead():
            return cpu._started + cpu._remaining
    raise AssertionError(f"no lazy {label} tick")


def runs_at(sim, instant, done):
    """``done()`` turns true exactly when the kernel reaches ``instant``."""
    sim.run_until(instant - 1)
    assert not done()
    sim.run_until(instant)
    assert done()


class TestHostWakeSites:
    def test_deliver_to_port_runs_at_the_lazy_ticks_completion(self):
        system, pirte = host_system()
        install(pirte, "fwd", FORWARD_SOURCE)
        cpu, before = pirte.instance.cpu, pirte.activations_run
        completion = into_lazy_tick(system.sim, cpu, "host.dispatch")
        pirte.deliver_to_port(0, 42)
        runs_at(
            system.sim, completion,
            lambda: pirte.activations_run == before + 1,
        )

    def test_install_runs_on_init_at_the_lazy_ticks_completion(self):
        system, pirte = host_system()
        cpu = pirte.instance.cpu
        completion = into_lazy_tick(system.sim, cpu, "host.dispatch")
        install(pirte, "echo", ECHO_SOURCE)
        runs_at(system.sim, completion, lambda: pirte.activations_run == 1)

    def test_start_runs_on_timer_at_the_lazy_timer_ticks_completion(self):
        # Off the dispatch phase, so the timer tick itself goes lazy.
        system, pirte = host_system(timer_period_us=3 * MS)
        install(pirte, "ticker", TICKER_SOURCE)
        assert pirte.set_state("ticker", MessageType.STOP).ok
        cpu, before = pirte.instance.cpu, pirte.activations_run
        completion = into_lazy_tick(system.sim, cpu, "host.timer")
        assert pirte.set_state("ticker", MessageType.START).ok
        runs_at(
            system.sim, completion,
            lambda: pirte.activations_run == before + 1,
        )

    @pytest.mark.parametrize(
        "call", ["install", "uninstall", "set_state", "deliver_to_port"]
    )
    def test_every_entry_point_resolves_a_lazy_tick_first(self, call):
        system, pirte = host_system()
        install(pirte, "fwd", FORWARD_SOURCE)
        cpu = pirte.instance.cpu
        completion = into_lazy_tick(system.sim, cpu, "host.dispatch")
        if call == "install":
            install(pirte, "other", FORWARD_SOURCE, first_port=10)
        elif call == "uninstall":
            assert pirte.uninstall("fwd").ok
        elif call == "set_state":
            assert pirte.set_state("fwd", MessageType.STOP).ok
        else:
            pirte.deliver_to_port(0, 1)
        # Queued for real under its reserved number: the ticking
        # scheduler's completion event, in the ticking scheduler's place.
        assert cpu._lazy is None
        assert system.sim.is_pending(cpu._handle)
        assert cpu._handle.time == completion


@pytest.fixture(scope="module")
def deployed():
    platform = build_example_platform()
    platform.boot()
    platform.run(1 * SECOND)
    assert platform.deploy("remote-control").ok
    platform.run(3 * SECOND)
    return platform


class TestEcmWakeSites:
    def test_server_message_is_handled_at_the_lazy_ticks_completion(
        self, deployed
    ):
        ecm = deployed.vehicle().pirte_of("swc1")
        com = ecm.plugin("COM")
        assert com.running
        completion = into_lazy_tick(
            deployed.sim, ecm.instance.cpu, "swc1.dispatch"
        )
        stop = msg.LifecycleMessage(
            MessageType.STOP, "COM", ecm.ecu_name, "swc1"
        )
        # What the server link does when the pushed bytes arrive.
        ecm._server._on_message(stop.encode())
        runs_at(deployed.sim, completion, lambda: not com.running)
        assert ecm.set_state("COM", MessageType.START).ok

    def test_external_message_is_routed_at_the_lazy_ticks_completion(
        self, deployed
    ):
        ecm = deployed.vehicle().pirte_of("swc1")
        before = (ecm.external_in, ecm.activations_run)
        completion = into_lazy_tick(
            deployed.sim, ecm.instance.cpu, "swc1.dispatch"
        )
        # What the phone's connection does when its bytes arrive.
        ecm._externals[PHONE_ADDRESS]._on_message(
            encode_external("Speed", 21)
        )
        runs_at(
            deployed.sim, completion,
            lambda: (ecm.external_in, ecm.activations_run)
            == (before[0] + 1, before[1] + 1),
        )
        deployed.run(1 * SECOND)
        assert deployed.actuator_state().get("speed")[-1] == 21


def next_completion(sim, cpu, label):
    """The completion instant of ``label``'s next tick, run for real."""
    for __ in range(10_000):
        if (
            cpu._current is not None and cpu._lazy is None
            and cpu._item.label == label
        ):
            return cpu._handle.time
        assert sim.step()
    raise AssertionError(f"no real {label} tick")


class TestIdlePredicates:
    def test_not_idle_until_the_first_step_resolves_the_buffers(self):
        spec = PluginSwcSpec("Fresh", vm_memory_blocks=64)
        desc = SystemDescription("fresh")
        desc.add_ecu("ecu1")
        desc.add_component("host", make_plugin_swc_type(spec), "ecu1")
        system = build_system(desc)
        system.boot_all()
        system.sim.run_for(1 * MS)  # init ran, no dispatch tick yet
        pirte = get_pirte(system.instance("host"))
        assert not pirte.idle() and not pirte.timer_idle()
        system.sim.run_for(5 * MS)
        assert pirte.idle() and pirte.timer_idle()

    def test_pending_activation_keeps_the_next_tick(self):
        system, pirte = host_system()
        install(pirte, "fwd", FORWARD_SOURCE)
        cpu = pirte.instance.cpu
        assert cpu._current is None  # between ticks
        assert pirte.idle()
        pirte.deliver_to_port(0, 7)
        assert not pirte.idle()
        completion = next_completion(system.sim, cpu, "host.dispatch")
        runs_at(system.sim, completion, lambda: pirte.activations_run == 1)
        assert pirte.idle()

    def test_running_on_timer_plugin_keeps_the_timer_tick(self):
        system, pirte = host_system()
        install(pirte, "ticker", TICKER_SOURCE)
        assert pirte.idle() and not pirte.timer_idle()
        system.sim.run_for(50 * MS)
        assert pirte.activations_run == 5

    def test_unread_service_input_is_not_idle(self):
        system, pirte = host_system()
        install(pirte, "fwd", FORWARD_SOURCE)
        assert pirte.idle()
        pirte.instance.rte.deliver_local("host", "svc_in", "value", 3)
        assert not pirte.idle()
        system.sim.run_for(5 * MS)
        assert pirte.idle()

    def test_unread_relay_and_mgmt_input_is_not_idle(self, deployed):
        pirte = deployed.vehicle().pirte_of("swc2")
        rte = pirte.instance.rte
        # Both name a port id no plug-in has: the PIRTE drops them.
        data = msg.DataMessage(pirte.ecu_name, "swc2", 999, 0)
        for port, element, value in (
            ("p2p_swc1_in", "data", encode_relay(999, 0)),
            ("mgmt_in", "mgmt", data.encode()),
        ):
            deployed.run(10 * MS)
            assert pirte.idle()
            dropped = pirte.dropped_messages
            rte.deliver_local("swc2", port, element, value)
            assert not pirte.idle(), port
            deployed.run(10 * MS)
            assert pirte.idle()
            assert pirte.dropped_messages == dropped + 1

    def test_ecm_inboxes_and_ack_buffers_are_not_idle(self, deployed):
        ecm = deployed.vehicle().pirte_of("swc1")
        ack = msg.AckMessage(
            "OP", "swc2", MessageType.START, msg.AckStatus.OK
        )
        route = ecm.spec.routes[0]
        posts = (
            lambda: ecm._server._on_message(ack.encode()),
            lambda: ecm._externals[PHONE_ADDRESS]._on_message(
                encode_external("Speed", 5)
            ),
            lambda: ecm.instance.rte.deliver_local(
                "swc1", route.in_port, "mgmt", ack.encode()
            ),
        )
        for post in posts:
            deployed.run(10 * MS)
            assert ecm.idle()
            post()
            assert not ecm.idle()
        deployed.run(10 * MS)
        assert ecm.idle()

    def test_ecm_server_message_between_ticks_runs_at_the_next_tick(
        self, deployed
    ):
        ecm = deployed.vehicle().pirte_of("swc1")
        cpu = ecm.instance.cpu
        deployed.run(10 * MS)
        cpu.wake()  # settle the last tick if the kernel has passed it
        while cpu._current is not None:
            assert deployed.sim.step()
            cpu.wake()
        stop = msg.LifecycleMessage(
            MessageType.STOP, "COM", ecm.ecu_name, "swc1"
        )
        ecm._server._on_message(stop.encode())
        com = ecm.plugin("COM")
        completion = next_completion(deployed.sim, cpu, "swc1.dispatch")
        runs_at(deployed.sim, completion, lambda: not com.running)
        assert ecm.set_state("COM", MessageType.START).ok
