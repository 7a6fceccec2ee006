"""Parked plug-in SW-C CPUs at the PIRTE's real wake sites.

A CPU whose ``dispatch`` and ``timer`` ticks are idle (their ``noop``
predicates, ``Pirte.idle`` and ``Pirte.timer_idle``, hold) parks: it
queues no alarm event until the next touch; see
:mod:`repro.autosar.os.scheduler`.  That is exact only while two things
hold:

* every entry point that changes the PIRTE from outside its own
  runnables wakes the host CPU first, so the CPU settles and resumes
  its ticks before the change, and runs the new work at the instant
  the ticking scheduler runs it.  A missed wake stalls the PIRTE for
  good: nothing else would resume the ticks;
* the predicates are false whenever a tick would do something.

The wake tests park the CPU, run at least ten ``dispatch`` periods on
and 1 us into a tick, change the PIRTE through one real entry point
(or deliver an ECM server or external message the way the network
does, or a CAN frame into an input port) and require the work to run
at that tick's completion instant, and at the instant the ticking
scheduler (parking switched off) runs it.  The predicate tests put work
into each input a predicate reads and require the PIRTE not to be
idle, and the work to run at the next tick.
"""

from __future__ import annotations

import pytest

from repro.autosar import INT16, SystemDescription, build_system
from repro.autosar.os import scheduler
from repro.core import (
    MessageType,
    PluginSwcSpec,
    RelayLink,
    ServicePort,
    get_pirte,
)
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


def park(sim, cpu):
    """Run until ``cpu`` parks; its parked record."""
    for __ in range(10_000):
        if cpu._parked is not None:
            return cpu._parked
        assert sim.step()
    raise AssertionError(f"{cpu.name} never parked")


def into_lazy_tick(sim, cpu, label, periods=10):
    """Park ``cpu``, then run 1 us into a ``label`` tick at least
    ``periods`` dispatch periods on that no other tick shares.

    The CPU is still parked on return: the tick is in flight only in
    the arithmetic.  Returns the instant the tick's completion is due.
    """
    for __ in range(100):
        parked = park(sim, cpu)
        chains = [(alarm, time) for alarm, time, __ in parked.pending]
        alarm, tick = next(
            (a, t) for a, t in chains if a.action.item.label == label
        )
        cycle = alarm._cycle_us
        start = sim.now + periods * min(a._cycle_us for a, __ in chains)
        tick += max(0, -(-(start - tick) // cycle)) * cycle
        for __ in range(1_000):
            if not any(
                (tick - t) % a._cycle_us == 0
                for a, t in chains if a is not alarm
            ):
                break
            tick += cycle
        else:
            raise AssertionError(f"every {label} tick shares its instant")
        sim.run_until(tick + 1)
        if cpu._parked is parked:
            return tick + alarm.action.item.duration_us
    raise AssertionError(f"{cpu.name} kept being touched")


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
        ecm.on_server_data(stop.encode())
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
            lambda: ecm.on_server_data(ack.encode()),
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
        ecm.on_server_data(stop.encode())
        com = ecm.plugin("COM")
        completion = next_completion(deployed.sim, cpu, "swc1.dispatch")
        runs_at(deployed.sim, completion, lambda: not com.running)
        assert ecm.set_state("COM", MessageType.START).ok


# -- touches of a CPU parked for ten dispatch periods ------------------------


def work_instant(sim, done):
    """The instant ``done()`` turns true, stepping the kernel."""
    for __ in range(100_000):
        if done():
            return sim.now
        assert sim.step()
    raise AssertionError("the work never ran")


def parked_and_ticking(monkeypatch, build, touch, done, label):
    """Touch a parked CPU 1 us into a ``label`` tick, ten dispatch
    periods on; then touch the ticking scheduler (parking switched off)
    at the same instant.  The work must run at the same instant on
    both; returns it and the tick's completion instant.

    ``build()`` returns ``(sim, cpu, world)``; ``touch(world)`` and
    ``done(world)`` act on and observe one side.
    """
    sim, cpu, world = build()
    completion = into_lazy_tick(sim, cpu, label)
    at = sim.now
    assert cpu._parked is not None
    touch(world)
    parked = work_instant(sim, lambda: done(world))
    with monkeypatch.context() as patch:
        patch.setattr(scheduler, "PLAN_LIMIT", 0)  # plans nothing: ticks
        ticking_sim, ticking_cpu, ticking = build()
        ticking_sim.run_until(at)
        touch(ticking)
        assert work_instant(ticking_sim, lambda: done(ticking)) == parked
        assert ticking_cpu._parked is None
    return parked, completion


def host_world(**spec_options):
    """``host_system`` with ``fwd`` (port 0 in, port 1 out) installed."""
    system, pirte = host_system(**spec_options)
    install(pirte, "fwd", FORWARD_SOURCE)
    return system.sim, pirte.instance.cpu, pirte


def platform_world():
    """The deployed example car; the world is the platform."""
    platform = build_example_platform()
    platform.boot()
    platform.run(1 * SECOND)
    assert platform.deploy("remote-control").ok
    platform.run(3 * SECOND)
    ecm = platform.vehicle().pirte_of("swc1")
    return platform.sim, ecm.instance.cpu, platform


def can_world():
    """``host`` on ecu1 with a forwarder whose port 0 takes the relay-in,
    the service-in and the management inputs; ``peer`` on ecu2 feeds
    all three over CAN.  The world is ``(host PIRTE, peer instance)``.
    """
    host = PluginSwcSpec(
        "CanHost",
        relays=[RelayLink(peer="peer", out_virtual="V0", in_virtual="V1")],
        services=[
            ServicePort("VIN_", "svc_in", "in", INT16),
            ServicePort("VOUT", "svc_out", "out", INT16),
        ],
        vm_memory_blocks=64,
    )
    peer = PluginSwcSpec(
        "CanPeer",
        relays=[RelayLink(peer="host", out_virtual="V0", in_virtual="V1")],
        services=[ServicePort("VS", "svc_feed", "out", INT16)],
        vm_memory_blocks=64,
    )
    desc = SystemDescription("can-wakes")
    desc.add_ecu("ecu1")
    desc.add_ecu("ecu2")
    desc.add_component("host", make_plugin_swc_type(host), "ecu1")
    desc.add_component("peer", make_plugin_swc_type(peer), "ecu2")
    desc.connect("peer", "mgmt_out", "host", "mgmt_in")
    desc.connect("peer", "p2p_host_out", "host", "p2p_peer_in")
    desc.connect("host", "p2p_peer_out", "peer", "p2p_host_in")
    desc.connect("peer", "svc_feed", "host", "svc_in")
    system = build_system(desc)
    system.boot_all()
    system.sim.run_for(5 * MS)
    pirte = get_pirte(system.instance("host"))
    ack = pirte.install(make_install(
        "fwd", "ecu1", "host", ports=[("in", 0), ("out", 1)],
        links=[link_virtual(0, "VIN_"), link_virtual(1, "VOUT")],
        source=FORWARD_SOURCE,
    ))
    assert ack.ok, ack.detail
    return system.sim, pirte.instance.cpu, (pirte, system.instance("peer"))


class TestParkedTouches:
    """One case per touch path, each against a CPU parked for at least
    ten dispatch periods.  The work runs at the instant the ticking
    scheduler runs it, so a missed wake (which would leave the PIRTE
    parked for good) fails here."""

    def test_install(self, monkeypatch):
        ran, completion = parked_and_ticking(
            monkeypatch, host_world,
            lambda pirte: install(pirte, "echo", ECHO_SOURCE, first_port=10),
            lambda pirte: pirte.activations_run == 1,
            "host.dispatch",
        )
        assert ran == completion

    def test_uninstall(self, monkeypatch):
        # Removing a plug-in only makes the ticks idler: what must match
        # is the settled bookkeeping, at the touch and one tick later.
        def counters(pirte):
            cpu = pirte.instance.cpu
            task = next(iter(cpu.tasks.values()))
            return (
                pirte.instance.rte.sim.now, cpu.busy_time, cpu.dispatches,
                task.activation_count, task.response_total_us, task.state,
            )

        seen = {}

        def touch(pirte):
            assert pirte.uninstall("fwd").ok
            assert pirte.instance.cpu._parked is None
            seen.setdefault("at touch", []).append(counters(pirte))

        def done(pirte):
            sim = pirte.instance.rte.sim
            sim.run_until(sim.now + 3 * MS)
            seen.setdefault("later", []).append(counters(pirte))
            return True

        parked_and_ticking(
            monkeypatch, host_world, touch, done, "host.dispatch"
        )
        for key in ("at touch", "later"):
            parked, ticking = seen[key]
            assert parked == ticking, key

    def test_set_state(self, monkeypatch):
        def build():
            sim, cpu, pirte = host_world()
            install(pirte, "ticker", TICKER_SOURCE, first_port=10)
            assert pirte.set_state("ticker", MessageType.STOP).ok
            return sim, cpu, pirte

        parked_and_ticking(
            monkeypatch, build,
            lambda pirte: pirte.set_state("ticker", MessageType.START),
            lambda pirte: pirte.activations_run == 1,
            "host.dispatch",
        )

    def test_deliver_to_port(self, monkeypatch):
        ran, completion = parked_and_ticking(
            monkeypatch, host_world,
            lambda pirte: pirte.deliver_to_port(0, 42),
            lambda pirte: pirte.activations_run == 1,
            "host.dispatch",
        )
        assert ran == completion

    def test_ecm_server_message(self, monkeypatch):
        stop = msg.LifecycleMessage(MessageType.STOP, "COM", "ECU1", "swc1")

        def com(platform):
            return platform.vehicle().pirte_of("swc1").plugin("COM")

        ran, completion = parked_and_ticking(
            monkeypatch, platform_world,
            lambda platform: platform.vehicle().pirte_of("swc1")
            .on_server_data(stop.encode()),
            lambda platform: not com(platform).running,
            "swc1.dispatch",
        )
        assert ran == completion

    def test_ecm_external_message(self, monkeypatch):
        def ecm(platform):
            return platform.vehicle().pirte_of("swc1")

        ran, completion = parked_and_ticking(
            monkeypatch, platform_world,
            lambda platform: ecm(platform)._externals[PHONE_ADDRESS]
            ._on_message(encode_external("Speed", 21)),
            lambda platform: ecm(platform).external_in == 1,
            "swc1.dispatch",
        )
        assert ran == completion

    @pytest.mark.parametrize("port", ["mgmt_in", "relay_in", "service_in"])
    def test_can_delivery(self, monkeypatch, port):
        def touch(world):
            __, peer = world
            if port == "mgmt_in":
                data = msg.DataMessage("ecu1", "host", 0, 5)
                peer.write("mgmt_out", "mgmt", data.encode())
            elif port == "relay_in":
                peer.write("p2p_host_out", "data", encode_relay(0, 5))
            else:
                peer.write("svc_feed", "value", 5)

        ran, completion = parked_and_ticking(
            monkeypatch, can_world, touch,
            lambda world: world[0].activations_run == 1,
            "host.dispatch",
        )
        # The frame lands during or after the tick the write started in.
        assert ran >= completion
