"""ABLATIONS — the design knobs behind the paper's architecture.

Three ablations over decisions DESIGN.md §5 highlights:

* **Dispatch period** — the PIRTE runs as ordinary AUTOSAR runnables;
  its period trades plug-in message latency against CPU reserved for
  the plug-in subsystem.
* **CAN bitrate** — type I package distribution is TP-over-CAN; the
  in-vehicle network bounds install speed for remote SW-Cs.
* **VM slice budget** — the execution budget reserved per dispatch
  bounds how many plug-in activations one period can drain.
"""

from benchmarks._scenarios import (
    build_service_scenario,
    install_message,
    sink_latencies,
)
from repro.analysis import print_table
from repro.autosar import SystemDescription, build_system
from repro.core import LinkKind, PlcLink, PluginSwcSpec, ServicePort, get_pirte
from repro.core.plugin_swc import make_plugin_swc_type
from repro.autosar.types import INT16
from repro.sim import MS
from repro.telemetry.metrics import summarize


def run_dispatch_period(period_us, n=30):
    spec = PluginSwcSpec(
        "AblationHost",
        services=[
            ServicePort("VIN_", "svc_in", "in", INT16),
            ServicePort("VOUT", "svc_out", "out", INT16),
        ],
        dispatch_period_us=period_us,
    )
    desc = SystemDescription("ablation-dispatch")
    desc.add_ecu("ecu1")
    desc.add_component("host", make_plugin_swc_type(spec), "ecu1")
    from benchmarks._scenarios import make_sink_type

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
    ecu = system.ecu("ecu1")
    inject_times = []
    # Inject asynchronously to the dispatch phase.
    for i in range(n):
        inject_times.append(system.sim.now)
        ecu.rte.deliver_local("host", "svc_in", "value", i)
        system.sim.run_for(7 * MS + i * 137)
    system.sim.run_for(100 * MS)
    sink_state = system.instance("sink").state
    latencies = sink_latencies(sink_state, inject_times)
    cpu = system.ecu("ecu1").cpu
    return latencies, cpu.utilization()


def test_ablation_dispatch_period(benchmark):
    rows = []
    means = {}
    for period_ms in (1, 2, 5, 10, 20):
        latencies, utilization = run_dispatch_period(period_ms * MS)
        stats = summarize(latencies)
        means[period_ms] = stats["mean"]
        rows.append(
            [period_ms, round(stats["mean"] / 1000, 2),
             round(stats["p95"] / 1000, 2), f"{utilization:.1%}"]
        )
    print_table(
        ["dispatch period ms", "latency mean_ms", "p95_ms", "ECU util"],
        rows,
        title="ABLATION: PIRTE dispatch period vs latency and CPU cost",
    )
    # Finding: latency is period-INDEPENDENT because data-received
    # events activate the dispatcher on demand; the period only paces
    # background polling — so it buys back CPU, near-linearly.
    utils = [float(r[3].rstrip("%")) for r in rows]
    assert utils[0] > 2 * utils[-1]
    assert means[20] < 2 * means[1]  # latency essentially flat

    benchmark.pedantic(
        lambda: run_dispatch_period(2 * MS, n=10), rounds=3, iterations=1
    )


def run_install_at_bitrate(bitrate, payload_pad=2000):
    """Time to push a padded install package across the CAN bus."""
    from repro.core import RelayLink

    spec_a = PluginSwcSpec(
        "EcmLike",
        relays=[RelayLink(peer="hostb", out_virtual="V0", in_virtual="V1")],
    )
    spec_b = PluginSwcSpec(
        "HostBLike",
        relays=[RelayLink(peer="hosta", out_virtual="V0", in_virtual="V3")],
    )
    desc = SystemDescription("ablation-bitrate")
    desc.can_bitrate = bitrate
    desc.add_ecu("ecu1")
    desc.add_ecu("ecu2")
    desc.add_component("hosta", make_plugin_swc_type(spec_a), "ecu1")
    desc.add_component("hostb", make_plugin_swc_type(spec_b), "ecu2")
    desc.connect("hosta", "p2p_hostb_out", "hostb", "p2p_hosta_in")
    desc.connect("hostb", "p2p_hosta_out", "hosta", "p2p_hostb_in")
    # Route mgmt through a direct RTE injection on ecu2's mgmt_in, but
    # carried over the bus: connect hosta's relay to nothing; instead
    # inject the package into ecu1's COM toward hostb's mgmt port.
    # Simpler: connect a type I pair hosta->hostb like the ECM does.
    system = build_system(desc)
    system.boot_all()
    system.sim.run_for(10 * MS)
    # Ship a padded package over the type II relay path as a proxy for
    # the type I CAN path (same TP segmentation, same bus).
    nops = "\n".join(["    NOP"] * payload_pad)
    source = f".entry on_message\n    WRPORT 0\n    HALT\n.entry pad\n{nops}\n    HALT\n"
    message = install_message(
        "big", "ecu2", "hostb", ports=[("p", 0)], links=[], source=source
    )
    raw = message.encode()
    start = system.sim.now
    system.ecu("ecu1").com.configure_tx_signal(
        __import__("repro.autosar.bsw.com", fromlist=["SignalConfig"]).SignalConfig(
            "pkg", 900, __import__("repro.autosar.types", fromlist=["BYTES"]).BYTES, 900
        )
    )
    system.ecu("ecu1").canif.configure_tx(900, 0x700)
    system.ecu("ecu2").com.configure_rx_signal(
        __import__("repro.autosar.bsw.com", fromlist=["SignalConfig"]).SignalConfig(
            "pkg", 900, __import__("repro.autosar.types", fromlist=["BYTES"]).BYTES, 900
        )
    )
    system.ecu("ecu2").canif.configure_rx(0x700, 900)
    done = []
    system.ecu("ecu2").com.subscribe(900, lambda v: done.append(system.sim.now))
    system.ecu("ecu1").com.send_signal(900, raw)
    system.sim.run_for(60_000 * MS)
    assert done, "package never arrived"
    return done[0] - start, len(raw)


def test_ablation_can_bitrate(benchmark):
    rows = []
    times = {}
    for kbit in (125, 250, 500, 1000):
        elapsed, size = run_install_at_bitrate(kbit * 1000)
        times[kbit] = elapsed
        rows.append(
            [kbit, size, round(elapsed / 1000, 1),
             round(size * 8 / (elapsed / 1_000_000) / 1000, 0)]
        )
    print_table(
        ["CAN kbit/s", "package bytes", "transfer ms", "goodput kbit/s"],
        rows,
        title="ABLATION: in-vehicle bitrate vs package transfer time",
    )
    # Transfer time scales inversely with bitrate (within ~20%).
    ratio = times[125] / times[500]
    assert 3.0 < ratio < 5.0

    benchmark.pedantic(
        lambda: run_install_at_bitrate(500_000, payload_pad=200),
        rounds=3, iterations=1,
    )


def test_ablation_vm_slice(benchmark):
    """max_activations_per_step bounds burst drain rate, not safety.

    The burst is queued straight into the PIRTE's activation backlog
    (as a timer-driven plug-in would), so draining is paced purely by
    the per-dispatch activation budget.
    """
    rows = []
    drain_times = {}
    burst = 96
    for cap in (4, 16, 64):
        scenario = build_service_scenario()
        scenario.pirte.max_activations_per_step = cap
        system = scenario.system
        for i in range(burst):
            scenario.pirte.deliver_to_port(0, i)  # 'fwd' input port
        start = system.sim.now
        while scenario.pirte.backlog:
            system.sim.run_for(1 * MS)
            assert system.sim.now - start < 5000 * MS
        system.sim.run_for(20 * MS)
        delivered = len(scenario.sink_state.get("got", []))
        drain_ms = (system.sim.now - start) / 1000
        drain_times[cap] = drain_ms
        rows.append([cap, burst, delivered, round(drain_ms, 1)])
        assert delivered == burst  # nothing lost, only delayed
    print_table(
        ["activations/step", "burst", "delivered", "drain ms"],
        rows,
        title="ABLATION: VM slice budget vs burst drain time",
    )
    assert drain_times[4] > drain_times[64]  # smaller slice -> slower drain

    benchmark(lambda: None)
