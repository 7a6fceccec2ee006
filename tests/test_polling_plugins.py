"""Plug-ins without ``on_message``: the RECV/on_timer polling style."""

from repro.autosar import INT16, SystemDescription, build_system
from repro.core import PluginSwcSpec, ServicePort, get_pirte
from repro.core.plugin_swc import make_plugin_swc_type
from repro.sim import MS
from tests.helpers import link_virtual, make_install

#: Drains its input queue each timer tick, forwarding the sum.
BATCH_SOURCE = """
.entry on_timer
    PUSH 0
    STORE 0          ; sum = 0
loop:
    AVAIL 0
    JZ done
    LOAD 0
    RECV 0
    ADD
    STORE 0
    JMP loop
done:
    AVAIL 0          ; nothing left
    POP
    LOAD 0
    JZ skip          ; send only when something was received
    LOAD 0
    WRPORT 1
skip:
    HALT
"""


def build_host(timer_period_us=10 * MS):
    spec = PluginSwcSpec(
        "PollHost",
        services=[
            ServicePort("VIN_", "svc_in", "in", INT16),
            ServicePort("VOUT", "svc_out", "out", INT16),
        ],
        timer_period_us=timer_period_us,
    )
    desc = SystemDescription("polling")
    desc.add_ecu("ecu1")
    desc.add_component("host", make_plugin_swc_type(spec), "ecu1")
    from benchmarks._scenarios import make_sink_type

    desc.add_component("sink", make_sink_type(), "ecu1", priority=6)
    desc.connect("host", "svc_out", "sink", "in")
    system = build_system(desc)
    system.boot_all()
    system.sim.run_for(5 * MS)
    return system, get_pirte(system.instance("host"))


class TestPollingPlugins:
    def test_values_queue_without_on_message(self):
        system, pirte = build_host()
        message = make_install(
            "batch", "ecu1", "host",
            ports=[("in", 0), ("out", 1)],
            links=[link_virtual(0, "VIN_"), link_virtual(1, "VOUT")],
            source=BATCH_SOURCE,
        )
        assert pirte.install(message).ok
        plugin = pirte.plugin("batch")
        for v in (5, 7, 8):
            pirte.deliver_to_port(0, v)
        # No on_message: values sit in the port queue.
        assert plugin.port_by_local(0).pending() == 3

    def test_timer_drains_batch(self):
        system, pirte = build_host()
        message = make_install(
            "batch", "ecu1", "host",
            ports=[("in", 0), ("out", 1)],
            links=[link_virtual(0, "VIN_"), link_virtual(1, "VOUT")],
            source=BATCH_SOURCE,
        )
        assert pirte.install(message).ok
        for v in (5, 7, 8):
            pirte.deliver_to_port(0, v)
        system.sim.run_for(25 * MS)
        got = [v for __, v in system.instance("sink").state.get("got", [])]
        assert got == [20]  # one batched sum, not three messages
        assert pirte.plugin("batch").port_by_local(0).pending() == 0

    def test_queue_bounded_with_drops_counted(self):
        system, pirte = build_host(timer_period_us=10_000 * MS)  # never fires
        message = make_install(
            "batch", "ecu1", "host",
            ports=[("in", 0), ("out", 1)],
            links=[link_virtual(0, "VIN_"), link_virtual(1, "VOUT")],
            source=BATCH_SOURCE,
        )
        assert pirte.install(message).ok
        plugin = pirte.plugin("batch")
        for v in range(100):
            pirte.deliver_to_port(0, v)
        port = plugin.port_by_local(0)
        assert port.pending() == port.queue.maxlen
        assert port.dropped == 100 - port.queue.maxlen
        assert pirte.dropped_messages == port.dropped

    def test_stopped_plugin_queues_but_does_not_run(self):
        from repro.core.messages import MessageType

        system, pirte = build_host()
        message = make_install(
            "batch", "ecu1", "host",
            ports=[("in", 0), ("out", 1)],
            links=[link_virtual(0, "VIN_"), link_virtual(1, "VOUT")],
            source=BATCH_SOURCE,
        )
        assert pirte.install(message).ok
        pirte.set_state("batch", MessageType.STOP)
        pirte.deliver_to_port(0, 9)
        system.sim.run_for(30 * MS)
        assert pirte.plugin("batch").vm.activations == 0
        # Restart: the queued value is still there and gets processed.
        pirte.set_state("batch", MessageType.START)
        system.sim.run_for(30 * MS)
        got = [v for __, v in system.instance("sink").state.get("got", [])]
        assert got == [9]
