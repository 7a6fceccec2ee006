"""MUX — multiplexing plug-in ports over one type II SW-C port pair.

The paper claims "any number of plug-in ports can communicate through
one pair of static type II SW-C ports".  The harness sweeps the number
of multiplexed plug-in port pairs and measures delivery latency and
total throughput across one pair, plus the fixed header overhead the
recipient-id tagging costs (the ablation candidate in DESIGN.md).

Paper-expected shape: all port counts deliver fully (the claim);
per-message latency stays flat until the CAN link or the dispatch
budget saturates; header overhead is a constant 2 bytes per message.
"""

from benchmarks._scenarios import build_relay_scenario, sink_latencies
from repro.analysis import print_table
from repro.core.virtual_ports import RELAY_MESSAGE_SIZE
from repro.sim import MS
from repro.telemetry.metrics import summarize

ROUNDS = 12


def run_mux(n_ports, cross_ecu=True):
    scenario = build_relay_scenario(n_port_pairs=n_ports, cross_ecu=cross_ecu)
    system = scenario.system
    snd = scenario.pirte_a.plugin("snd")
    inject_times = []
    for round_no in range(ROUNDS):
        for port in range(n_ports):
            inject_times.append(system.sim.now)
            scenario.pirte_a.plugin_write(snd, port, round_no * 100 + port)
        system.sim.run_for(10 * MS)
    system.sim.run_for(100 * MS)
    got = scenario.sink_state.get("got", [])
    latencies = sink_latencies(scenario.sink_state, inject_times)
    return len(got), latencies, system


def test_mux_any_number_of_ports(benchmark):
    rows = []
    for n_ports in (1, 2, 4, 8, 16):
        delivered, latencies, system = run_mux(n_ports)
        expected = ROUNDS * n_ports
        stats = summarize(latencies)
        frames = system.bus.frames_transferred
        rows.append(
            [
                n_ports,
                f"{delivered}/{expected}",
                round(stats["mean"] / 1000, 2),
                round(stats["p95"] / 1000, 2),
                frames,
            ]
        )
        # The paper's claim: every multiplexed message arrives.
        assert delivered == expected, (
            f"{n_ports} ports: {delivered}/{expected} delivered"
        )
    print_table(
        ["port pairs", "delivered", "mean_ms", "p95_ms", "CAN frames"],
        rows,
        title="MUX: N plug-in port pairs over ONE type II SW-C port pair",
    )

    benchmark.pedantic(lambda: run_mux(8), rounds=3, iterations=1)


def test_mux_header_overhead(benchmark):
    """Ablation: the cost of context-driven linking on the wire."""
    payload_bytes = 4  # one i32 value
    header_bytes = RELAY_MESSAGE_SIZE - payload_bytes
    rows = [
        ["payload (i32 value)", payload_bytes],
        ["recipient-id header", header_bytes],
        ["overhead fraction", f"{header_bytes / RELAY_MESSAGE_SIZE:.0%}"],
    ]
    print_table(
        ["field", "bytes"],
        rows,
        title="MUX: type II multiplexing header overhead (per message)",
    )
    assert header_bytes == 2

    from repro.core.virtual_ports import decode_relay, encode_relay

    def tag_and_strip():
        decode_relay(encode_relay(1234, -99))

    benchmark(tag_and_strip)


def test_mux_saturation_behavior(benchmark):
    """Burst beyond the dispatch budget: messages queue, none are lost
    silently — the PIRTE counts every drop."""
    scenario = build_relay_scenario(n_port_pairs=4, cross_ecu=True)
    system = scenario.system
    snd = scenario.pirte_a.plugin("snd")
    burst = 200
    for i in range(burst):
        scenario.pirte_a.plugin_write(snd, i % 4, i)
    system.sim.run_for(2000 * MS)
    delivered = len(scenario.sink_state.get("got", []))
    dropped = (
        scenario.pirte_b.dropped_messages + scenario.pirte_a.dropped_messages
    )
    overflows = sum(
        port.overflows
        for inst in (system.instance("hosta"), system.instance("hostb"))
        for port in inst.ports.values()
    )
    print_table(
        ["metric", "count"],
        [
            ["burst size", burst],
            ["delivered", delivered],
            ["PIRTE-counted drops", dropped],
            ["SW-C port overflows", overflows],
        ],
        title="MUX: burst saturation accounting",
    )
    assert delivered + dropped + overflows >= burst * 0.99

    benchmark(lambda: scenario.pirte_a.plugin_write(snd, 0, 1))
