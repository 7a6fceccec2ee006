"""Integration tests for the PIRTE inside built AUTOSAR systems.

These tests build miniature vehicles: plug-in SW-Cs wired to legacy
components and to each other, driven through real install packages.
"""

from dataclasses import replace

import pytest

from repro.autosar import (
    ComponentType,
    DataReceivedEvent,
    Runnable,
    SenderReceiverInterface,
    SystemDescription,
    TimingEvent,
    UINT16,
    DataElement,
    build_system,
    provided_port,
    required_port,
)
from repro.core import (
    AckStatus,
    MGMT_IF,
    MessageType,
    PluginState,
    PluginSwcSpec,
    RelayLink,
    ServicePort,
    UninstallMessage,
    LifecycleMessage,
    decode,
    get_pirte,
)
from repro.core.plugin_swc import make_plugin_swc_type
from repro.sim import MS
from tests.helpers import (
    ECHO_SOURCE,
    FORWARD_SOURCE,
    RUNAWAY_SOURCE,
    TICKER_SOURCE,
    link_plugin,
    link_remote,
    link_unconnected,
    link_virtual,
    make_install,
)

SPEED_IF = SenderReceiverInterface(
    "SpeedIf", [DataElement("value", UINT16, queued=True, queue_length=32)]
)


def make_driver_type():
    """A legacy SW-C that injects mgmt messages and records acks."""

    def flush(instance):
        for raw in instance.state.pop("outbox", []):
            instance.write("to_plugin", "mgmt", raw)

    def on_ack(instance):
        while instance.pending("from_plugin", "mgmt"):
            raw = instance.receive("from_plugin", "mgmt")
            instance.state.setdefault("acks", []).append(decode(raw))

    return ComponentType(
        "Driver",
        ports=[
            provided_port("to_plugin", MGMT_IF),
            required_port("from_plugin", MGMT_IF),
        ],
        runnables=[
            Runnable("flush", flush, execution_time_us=20),
            Runnable("on_ack", on_ack, execution_time_us=20),
        ],
        events=[
            TimingEvent("flush", period_us=1 * MS),
            DataReceivedEvent("on_ack", port="from_plugin", element="mgmt"),
        ],
    )


def make_sink_type():
    """Legacy consumer of a typed (type III) signal."""

    def consume(instance):
        while instance.pending("in", "value"):
            instance.state.setdefault("got", []).append(
                instance.receive("in", "value")
            )

    return ComponentType(
        "Sink",
        ports=[required_port("in", SPEED_IF)],
        runnables=[Runnable("consume", consume, execution_time_us=10)],
        events=[DataReceivedEvent("consume", port="in", element="value")],
    )


def single_swc_system(spec=None):
    """One ECU: driver + plug-in SW-C + typed sink behind service V1."""
    spec = spec or PluginSwcSpec(
        "PluginHost",
        services=[
            ServicePort("V1", "svc_out", "out", UINT16),
            ServicePort("V2", "svc_in", "in", UINT16),
        ],
    )
    host_type = make_plugin_swc_type(spec)
    desc = SystemDescription()
    desc.add_ecu("ecu1")
    desc.add_component("driver", make_driver_type(), "ecu1", priority=3)
    desc.add_component("host", host_type, "ecu1", priority=2)
    desc.add_component("sink", make_sink_type(), "ecu1", priority=4)
    desc.connect("driver", "to_plugin", "host", "mgmt_in")
    desc.connect("host", "mgmt_out", "driver", "from_plugin")
    desc.connect("host", "svc_out", "sink", "in")
    system = build_system(desc)
    return system


def send_mgmt(system, raw, driver="driver"):
    system.instance(driver).state.setdefault("outbox", []).append(raw)


def acks(system, driver="driver"):
    return system.instance(driver).state.get("acks", [])


def forward_install(name="fwd", port_base=0):
    """Install package: FORWARD plug-in, in<-V2, out->V1."""
    return make_install(
        name, "ecu1", "host",
        ports=[("in", port_base), ("out", port_base + 1)],
        links=[
            link_virtual(port_base, "V2"),
            link_virtual(port_base + 1, "V1"),
        ],
        source=FORWARD_SOURCE,
    )


class TestInstallation:
    def test_install_acked_ok(self):
        system = single_swc_system()
        send_mgmt(system, forward_install().encode())
        system.run(20 * MS)
        got = acks(system)
        assert len(got) == 1
        assert got[0].status is AckStatus.OK
        assert got[0].op is MessageType.INSTALL

    def test_installed_plugin_visible_in_pirte(self):
        system = single_swc_system()
        send_mgmt(system, forward_install().encode())
        system.run(20 * MS)
        pirte = get_pirte(system.instance("host"))
        assert pirte.plugin("fwd").state is PluginState.RUNNING
        assert pirte.installs == 1

    def test_corrupt_binary_nacked(self):
        system = single_swc_system()
        message = forward_install()
        corrupted = message.encode()
        # Flip a byte inside the embedded binary blob (near the end).
        corrupted = corrupted[:-10] + b"\xff" + corrupted[-9:]
        # Recompute nothing: the container CRC inside the blob fails.
        send_mgmt(system, corrupted[: len(message.encode())])
        system.run(20 * MS)
        got = acks(system)
        assert len(got) == 1
        assert got[0].status in (AckStatus.BAD_PACKAGE, AckStatus.CONTEXT_ERROR)

    def test_redelivered_package_acked_other_package_refused(self):
        # An identical package delivered again (a retry whose first acks
        # were lost) is acked OK and changes nothing; a different
        # package under the installed name is refused.
        system = single_swc_system()
        send_mgmt(system, forward_install().encode())
        system.run(10 * MS)
        pirte = get_pirte(system.instance("host"))
        installed = pirte.plugin("fwd")
        send_mgmt(system, forward_install().encode())
        system.run(10 * MS)
        newer = replace(forward_install(), version="2.0")
        send_mgmt(system, newer.encode())
        system.run(20 * MS)
        statuses = [a.status for a in acks(system)]
        assert statuses == [
            AckStatus.OK, AckStatus.OK, AckStatus.LIFECYCLE_ERROR,
        ]
        assert pirte.plugin("fwd") is installed
        assert installed.version == "1.0"
        assert installed.state is PluginState.RUNNING
        assert pirte.installs == 1

    def test_port_id_collision_nacked(self):
        system = single_swc_system()
        send_mgmt(system, forward_install("a", port_base=0).encode())
        system.run(10 * MS)
        send_mgmt(system, forward_install("b", port_base=0).encode())
        system.run(20 * MS)
        statuses = [a.status for a in acks(system)]
        assert statuses == [AckStatus.OK, AckStatus.CONTEXT_ERROR]

    def test_second_plugin_with_fresh_ids_ok(self):
        system = single_swc_system()
        send_mgmt(system, forward_install("a", port_base=0).encode())
        system.run(10 * MS)
        send_mgmt(system, forward_install("b", port_base=10).encode())
        system.run(20 * MS)
        assert [a.status for a in acks(system)] == [AckStatus.OK, AckStatus.OK]

    def test_unknown_virtual_port_nacked(self):
        system = single_swc_system()
        bad = make_install(
            "bad", "ecu1", "host",
            ports=[("in", 0)],
            links=[link_virtual(0, "V99")],
        )
        send_mgmt(system, bad.encode())
        system.run(20 * MS)
        assert acks(system)[0].status is AckStatus.CONTEXT_ERROR

    def test_out_of_memory_nacked(self):
        spec = PluginSwcSpec(
            "TinyHost",
            services=[ServicePort("V1", "svc_out", "out", UINT16)],
            vm_memory_blocks=2,
            vm_block_size=16,
        )
        system = single_swc_system(spec)
        big = make_install(
            "big", "ecu1", "host",
            ports=[("out", 0)],
            links=[link_virtual(0, "V1")],
            mem_hint=4096,
        )
        send_mgmt(system, big.encode())
        system.run(20 * MS)
        assert acks(system)[0].status is AckStatus.OUT_OF_MEMORY

    def test_memory_released_after_uninstall(self):
        system = single_swc_system()
        send_mgmt(system, forward_install().encode())
        system.run(10 * MS)
        pirte = get_pirte(system.instance("host"))
        used = pirte.pool.used_blocks
        assert used > 0
        send_mgmt(system, UninstallMessage("fwd", "ecu1", "host").encode())
        system.run(20 * MS)
        assert pirte.pool.used_blocks == 0


class TestLifecycle:
    def test_stop_and_start_via_mgmt(self):
        system = single_swc_system()
        send_mgmt(system, forward_install().encode())
        system.run(10 * MS)
        send_mgmt(
            system,
            LifecycleMessage(MessageType.STOP, "fwd", "ecu1", "host").encode(),
        )
        system.run(10 * MS)
        pirte = get_pirte(system.instance("host"))
        assert pirte.plugin("fwd").state is PluginState.STOPPED
        send_mgmt(
            system,
            LifecycleMessage(MessageType.START, "fwd", "ecu1", "host").encode(),
        )
        system.run(10 * MS)
        assert pirte.plugin("fwd").state is PluginState.RUNNING

    def test_stop_unknown_plugin_nacked(self):
        system = single_swc_system()
        send_mgmt(
            system,
            LifecycleMessage(MessageType.STOP, "ghost", "ecu1", "host").encode(),
        )
        system.run(20 * MS)
        assert acks(system)[0].status is AckStatus.UNKNOWN_PLUGIN

    def test_uninstall_unknown_plugin_nacked(self):
        system = single_swc_system()
        send_mgmt(system, UninstallMessage("ghost", "ecu1", "host").encode())
        system.run(20 * MS)
        assert acks(system)[0].status is AckStatus.UNKNOWN_PLUGIN

    def test_double_stop_nacked(self):
        system = single_swc_system()
        send_mgmt(system, forward_install().encode())
        system.run(10 * MS)
        stop = LifecycleMessage(MessageType.STOP, "fwd", "ecu1", "host")
        send_mgmt(system, stop.encode())
        system.run(10 * MS)
        send_mgmt(system, stop.encode())
        system.run(10 * MS)
        statuses = [a.status for a in acks(system) if a.op is MessageType.STOP]
        assert statuses == [AckStatus.OK, AckStatus.LIFECYCLE_ERROR]


class TestTypeIIIRouting:
    """Plug-in <-> built-in software through service virtual ports."""

    def _feed_service_in(self, system, values):
        """Write values into the plug-in host's svc_in required port."""
        ecu = system.ecu("ecu1")
        for value in values:
            ecu.rte.deliver_local("host", "svc_in", "value", value)

    def test_plugin_output_reaches_legacy_sink(self):
        system = single_swc_system()
        send_mgmt(system, forward_install().encode())
        system.run(10 * MS)
        self._feed_service_in(system, [100, 200, 300])
        system.run(20 * MS)
        assert system.instance("sink").state.get("got") == [100, 200, 300]

    def test_stopped_plugin_does_not_process(self):
        system = single_swc_system()
        send_mgmt(system, forward_install().encode())
        system.run(10 * MS)
        send_mgmt(
            system,
            LifecycleMessage(MessageType.STOP, "fwd", "ecu1", "host").encode(),
        )
        system.run(10 * MS)
        self._feed_service_in(system, [42])
        system.run(20 * MS)
        assert system.instance("sink").state.get("got") is None

    def test_echo_transforms_value(self):
        system = single_swc_system()
        message = make_install(
            "echo", "ecu1", "host",
            ports=[("in", 0), ("out", 1)],
            links=[link_virtual(0, "V2"), link_virtual(1, "V1")],
            source=ECHO_SOURCE,
        )
        send_mgmt(system, message.encode())
        system.run(10 * MS)
        self._feed_service_in(system, [41])
        system.run(20 * MS)
        assert system.instance("sink").state.get("got") == [42]

    def test_unclaimed_service_input_dropped(self):
        system = single_swc_system()
        self._feed_service_in(system, [5])
        system.run(20 * MS)
        pirte = get_pirte(system.instance("host"))
        assert pirte.dropped_messages >= 1


class TestPluginToPluginLocal:
    def test_direct_plugin_port_link(self):
        """Two plug-ins on one SW-C linked port-to-port in the PIRTE."""
        system = single_swc_system()
        # fwd_a: V2 -> port0, port1 -> port10 (plugin b's input)
        a = make_install(
            "a", "ecu1", "host",
            ports=[("in", 0), ("out", 1)],
            links=[link_virtual(0, "V2"), link_plugin(1, 10)],
            source=FORWARD_SOURCE,
        )
        # fwd_b: port10 in, out -> V1
        b = make_install(
            "b", "ecu1", "host",
            ports=[("in", 10), ("out", 11)],
            links=[link_virtual(11, "V1")],
            source=FORWARD_SOURCE,
        )
        send_mgmt(system, b.encode())
        system.run(5 * MS)
        send_mgmt(system, a.encode())
        system.run(5 * MS)
        ecu = system.ecu("ecu1")
        ecu.rte.deliver_local("host", "svc_in", "value", 7)
        system.sim.run_for(20 * MS)
        assert system.instance("sink").state.get("got") == [7]

    def test_forward_link_to_later_plugin_validated(self):
        """PLC linking to a not-yet-installed port id is a context error."""
        system = single_swc_system()
        a = make_install(
            "a", "ecu1", "host",
            ports=[("out", 1)],
            links=[link_plugin(1, 99)],
        )
        send_mgmt(system, a.encode())
        system.run(20 * MS)
        assert acks(system)[0].status is AckStatus.CONTEXT_ERROR


class TestTimersAndIsolation:
    def test_on_timer_activations(self):
        system = single_swc_system()
        message = make_install(
            "tick", "ecu1", "host",
            ports=[("out", 0)],
            links=[link_virtual(0, "V1")],
            source=TICKER_SOURCE,
        )
        send_mgmt(system, message.encode())
        system.run(65 * MS)
        got = system.instance("sink").state.get("got")
        assert got is not None and len(got) >= 4
        assert got == sorted(got)  # monotonically increasing counter

    def test_runaway_plugin_traps_not_crashes(self):
        system = single_swc_system()
        message = make_install(
            "bomb", "ecu1", "host",
            ports=[("in", 0)],
            links=[link_virtual(0, "V2")],
            source=RUNAWAY_SOURCE,
        )
        send_mgmt(system, message.encode())
        system.run(10 * MS)
        ecu = system.ecu("ecu1")
        ecu.rte.deliver_local("host", "svc_in", "value", 1)
        system.sim.run_for(20 * MS)
        pirte = get_pirte(system.instance("host"))
        assert pirte.trapped_activations == 1
        assert pirte.plugin("bomb").failed_activations == 1
        # The rest of the system is alive: install another plug-in.
        send_mgmt(system, forward_install("fwd2", port_base=50).encode())
        system.sim.run_for(20 * MS)
        assert any(a.ok for a in acks(system)[-1:])


def relay_pair_system(cross_ecu):
    """Two plug-in SW-Cs joined by a type II relay pair."""
    spec_a = PluginSwcSpec(
        "HostA",
        relays=[RelayLink(peer="hostb", out_virtual="V0", in_virtual="V3")],
    )
    spec_b = PluginSwcSpec(
        "HostB",
        relays=[RelayLink(peer="hosta", out_virtual="V0", in_virtual="V3")],
        services=[ServicePort("V1", "svc_out", "out", UINT16)],
    )
    desc = SystemDescription()
    desc.add_ecu("ecu1")
    ecu_b = "ecu2" if cross_ecu else "ecu1"
    if cross_ecu:
        desc.add_ecu("ecu2")
    desc.add_component("driver", make_driver_type(), "ecu1", priority=3)
    desc.add_component("hosta", make_plugin_swc_type(spec_a), "ecu1")
    desc.add_component("hostb", make_plugin_swc_type(spec_b), ecu_b)
    desc.add_component("driver2", make_driver_type(), ecu_b, priority=3)
    desc.add_component("sink", make_sink_type(), ecu_b, priority=4)
    desc.connect("driver", "to_plugin", "hosta", "mgmt_in")
    desc.connect("hosta", "mgmt_out", "driver", "from_plugin")
    desc.connect("driver2", "to_plugin", "hostb", "mgmt_in")
    desc.connect("hostb", "mgmt_out", "driver2", "from_plugin")
    desc.connect("hosta", "p2p_hostb_out", "hostb", "p2p_hosta_in")
    desc.connect("hostb", "p2p_hosta_out", "hosta", "p2p_hostb_in")
    desc.connect("hostb", "svc_out", "sink", "in")
    return build_system(desc)


class TestTypeIIRouting:
    """Plug-in to plug-in across SW-Cs through relay virtual ports."""

    @pytest.mark.parametrize("cross_ecu", [False, True])
    def test_relay_delivery(self, cross_ecu):
        system = relay_pair_system(cross_ecu)
        ecu_b = "ecu2" if cross_ecu else "ecu1"
        # sender on hosta: input port 0 unconnected (we inject), output
        # port 1 -> V0 with remote id 20 (receiver's input).
        sender = make_install(
            "snd", "ecu1", "hosta",
            ports=[("in", 0), ("out", 1)],
            links=[link_unconnected(0), link_remote(1, "V0", 20)],
            source=FORWARD_SOURCE,
        )
        receiver = make_install(
            "rcv", ecu_b, "hostb",
            ports=[("in", 20), ("out", 21)],
            links=[link_virtual(21, "V1")],
            source=FORWARD_SOURCE,
        )
        system.instance("driver").state.setdefault("outbox", []).append(
            sender.encode()
        )
        system.instance("driver2").state.setdefault("outbox", []).append(
            receiver.encode()
        )
        system.run(15 * MS)
        pirte_a = get_pirte(system.instance("hosta"))
        # Inject a message into snd's input port; it forwards over V0.
        pirte_a.deliver_to_port(0, 555)
        system.sim.run_for(30 * MS)
        assert system.instance("sink").state.get("got") == [555]

    def test_multiplexing_many_ports_over_one_pair(self):
        """Paper: any number of plug-in ports over one type II pair."""
        system = relay_pair_system(cross_ecu=False)
        n = 5
        # Receiver with n input ports all feeding V1.
        receiver = make_install(
            "rcv", "ecu1", "hostb",
            ports=[(f"in{i}", 100 + i) for i in range(n)] + [("out", 200)],
            links=[link_virtual(200, "V1")],
            source=FORWARD_SOURCE.replace("WRPORT 1", f"WRPORT {n}"),
        )
        # Sender with n output ports, each to a distinct remote id.
        sender = make_install(
            "snd", "ecu1", "hosta",
            ports=[(f"out{i}", 300 + i) for i in range(n)],
            links=[link_remote(300 + i, "V0", 100 + i) for i in range(n)],
            source=FORWARD_SOURCE,  # unused entry; we inject directly
        )
        system.instance("driver").state.setdefault("outbox", []).append(
            sender.encode()
        )
        system.instance("driver2").state.setdefault("outbox", []).append(
            receiver.encode()
        )
        system.run(15 * MS)
        pirte_a = get_pirte(system.instance("hosta"))
        snd = pirte_a.plugin("snd")
        for i in range(n):
            pirte_a.plugin_write(snd, i, 1000 + i)
        system.sim.run_for(40 * MS)
        assert sorted(system.instance("sink").state.get("got", [])) == [
            1000 + i for i in range(n)
        ]


class TestBridgePortBounds:
    """VM port indices beyond the PIC trap, per the best-effort contract."""

    def _host(self):
        spec = PluginSwcSpec(
            "BoundsHost",
            services=[ServicePort("VOUT", "svc_out", "out", UINT16)],
        )
        desc = SystemDescription("bounds")
        desc.add_ecu("ecu1")
        desc.add_component("host", make_plugin_swc_type(spec), "ecu1")
        system = build_system(desc)
        system.boot_all()
        system.sim.run_for(5 * MS)
        return get_pirte(system.instance("host"))

    def test_out_of_range_wrport_traps_activation(self):
        pirte = self._host()
        rogue = make_install(
            "rogue", "ecu1", "host",
            ports=[("in", 0)], links=[link_unconnected(0)],
            source=".entry on_message\n    WRPORT 9\n    HALT\n",
        )
        assert pirte.install(rogue).ok
        pirte.deliver_to_port(0, 42)
        pirte.step()  # must not leak a LifecycleError
        assert pirte.trapped_activations == 1
        assert pirte.plugin("rogue").failed_activations == 1

    def test_out_of_range_recv_traps_activation(self):
        pirte = self._host()
        rogue = make_install(
            "rogue", "ecu1", "host",
            ports=[("in", 0)], links=[link_unconnected(0)],
            source=".entry on_message\n    RECV 7\n    HALT\n",
        )
        assert pirte.install(rogue).ok
        pirte.deliver_to_port(0, 1)
        pirte.step()
        assert pirte.trapped_activations == 1
