"""Scenario builders shared by the benchmark suite.

Each builder returns a ready-to-measure system plus the handles the
benchmarks poke.  All scenarios are deterministic (seeded).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autosar import (
    ComponentType,
    DataElement,
    DataReceivedEvent,
    Runnable,
    SenderReceiverInterface,
    SystemDescription,
    INT16,
    build_system,
    required_port,
)
from repro.core import (
    EMPTY_ECC,
    InstallMessage,
    LinkKind,
    Pic,
    Plc,
    PlcLink,
    PortInit,
    PluginSwcSpec,
    RelayLink,
    ServicePort,
    get_pirte,
)
from repro.core.plugin_swc import make_plugin_swc_type
from repro.sim import MS
from repro.vm.loader import compile_plugin

FORWARD_SOURCE = """
.entry on_message
    WRPORT 1
    HALT
"""

MOTION_IF = SenderReceiverInterface(
    "BenchMotionIf", [DataElement("value", INT16, queued=True, queue_length=64)]
)


def make_sink_type() -> ComponentType:
    def consume(instance):
        while instance.pending("in", "value"):
            instance.state.setdefault("got", []).append(
                (instance.rte.sim.now, instance.receive("in", "value"))
            )

    return ComponentType(
        "BenchSink",
        ports=[required_port("in", MOTION_IF)],
        runnables=[Runnable("consume", consume, execution_time_us=10)],
        events=[DataReceivedEvent("consume", port="in", element="value")],
    )


def install_message(name, ecu, swc, ports, links, source=FORWARD_SOURCE,
                    ecc=EMPTY_ECC, mem_hint=16):
    return InstallMessage(
        plugin_name=name,
        version="1.0",
        target_ecu=ecu,
        target_swc=swc,
        pic=Pic(tuple(PortInit(n, i) for n, i in ports)),
        plc=Plc(tuple(links)),
        ecc=ecc,
        binary=compile_plugin(source, mem_hint=mem_hint).raw,
    )


@dataclass
class RelayScenario:
    """Two plug-in SW-Cs on two ECUs joined by one type II pair."""

    system: object
    pirte_a: object
    pirte_b: object
    sink_state: dict


def build_relay_scenario(n_port_pairs: int = 1,
                         cross_ecu: bool = True) -> RelayScenario:
    """Sender plug-in on SW-C A, receiver on SW-C B, N multiplexed pairs."""
    spec_a = PluginSwcSpec(
        "BenchHostA",
        relays=[RelayLink(peer="hostb", out_virtual="V0", in_virtual="V1")],
    )
    spec_b = PluginSwcSpec(
        "BenchHostB",
        relays=[RelayLink(peer="hosta", out_virtual="V0", in_virtual="V3")],
        services=[ServicePort("VS", "svc_out", "out", INT16)],
    )
    desc = SystemDescription("bench-relay")
    desc.add_ecu("ecu1")
    ecu_b = "ecu2" if cross_ecu else "ecu1"
    if cross_ecu:
        desc.add_ecu("ecu2")
    desc.add_component("hosta", make_plugin_swc_type(spec_a), "ecu1")
    desc.add_component("hostb", make_plugin_swc_type(spec_b), ecu_b)
    desc.add_component("sink", make_sink_type(), ecu_b, priority=6)
    desc.connect("hosta", "p2p_hostb_out", "hostb", "p2p_hosta_in")
    desc.connect("hostb", "p2p_hosta_out", "hosta", "p2p_hostb_in")
    desc.connect("hostb", "svc_out", "sink", "in")
    system = build_system(desc)
    system.boot_all()
    system.sim.run_for(10 * MS)

    pirte_a = get_pirte(system.instance("hosta"))
    pirte_b = get_pirte(system.instance("hostb"))
    n = n_port_pairs
    receiver = install_message(
        "rcv", ecu_b, "hostb",
        ports=[(f"in{i}", 100 + i) for i in range(n)] + [("out", 400)],
        links=[PlcLink(400, LinkKind.VIRTUAL, "VS")],
        source=FORWARD_SOURCE.replace("WRPORT 1", f"WRPORT {n}"),
    )
    sender = install_message(
        "snd", "ecu1", "hosta",
        ports=[(f"out{i}", 300 + i) for i in range(n)],
        links=[
            PlcLink(300 + i, LinkKind.VIRTUAL_REMOTE, "V0", 100 + i)
            for i in range(n)
        ],
    )
    assert pirte_b.install(receiver).ok
    assert pirte_a.install(sender).ok
    system.sim.run_for(10 * MS)
    return RelayScenario(
        system, pirte_a, pirte_b,
        system.instance("sink").state,
    )


@dataclass
class ServiceScenario:
    """One plug-in SW-C with a forwarding plug-in behind service ports."""

    system: object
    pirte: object
    sink_state: dict


def build_service_scenario() -> ServiceScenario:
    spec = PluginSwcSpec(
        "BenchServiceHost",
        services=[
            ServicePort("VIN_", "svc_in", "in", INT16),
            ServicePort("VOUT", "svc_out", "out", INT16),
        ],
    )
    desc = SystemDescription("bench-service")
    desc.add_ecu("ecu1")
    desc.add_component("host", make_plugin_swc_type(spec), "ecu1")
    desc.add_component("sink", make_sink_type(), "ecu1", priority=6)
    desc.connect("host", "svc_out", "sink", "in")
    system = build_system(desc)
    system.boot_all()
    system.sim.run_for(10 * MS)
    pirte = get_pirte(system.instance("host"))
    message = install_message(
        "fwd", "ecu1", "host",
        ports=[("in", 0), ("out", 1)],
        links=[
            PlcLink(0, LinkKind.VIRTUAL, "VIN_"),
            PlcLink(1, LinkKind.VIRTUAL, "VOUT"),
        ],
    )
    assert pirte.install(message).ok
    system.sim.run_for(10 * MS)
    return ServiceScenario(system, pirte, system.instance("sink").state)


def sink_latencies(sink_state: dict, inject_times: list[int]) -> list[int]:
    """Pair injected timestamps with sink arrival times (FIFO)."""
    arrivals = [t for t, __ in sink_state.get("got", [])]
    return [
        arrival - injected
        for injected, arrival in zip(inject_times, arrivals)
    ]
