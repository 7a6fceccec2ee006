"""FIG1 — the dynamic component structure: port types I/II/III.

Reproduces the structural claim of paper Fig. 1: plug-ins talk to the
system through three kinds of SW-C ports, all mediated by the PIRTE.
The benchmark measures (a) the simulated end-to-end latency a plug-in
message experiences through each port type, and (b) the host-side CPU
cost of the PIRTE routing hot path.

Paper-expected shape: type III (local typed write) is cheapest, type II
adds the multiplexing header plus (cross-ECU) CAN transfer, type I adds
management-protocol decoding; all three deliver reliably.
"""

from benchmarks._scenarios import (
    build_relay_scenario,
    build_service_scenario,
    sink_latencies,
)
from repro.analysis import print_table
from repro.core.messages import DataMessage
from repro.sim import MS
from repro.telemetry.metrics import summarize

N_MESSAGES = 40


def _run_type_iii():
    scenario = build_service_scenario()
    system, pirte = scenario.system, scenario.pirte
    ecu = system.ecu("ecu1")
    inject_times = []
    for i in range(N_MESSAGES):
        inject_times.append(system.sim.now)
        ecu.rte.deliver_local("host", "svc_in", "value", i)
        system.sim.run_for(5 * MS)
    system.sim.run_for(20 * MS)
    return sink_latencies(scenario.sink_state, inject_times)


def _run_type_ii(cross_ecu):
    scenario = build_relay_scenario(n_port_pairs=1, cross_ecu=cross_ecu)
    system = scenario.system
    snd = scenario.pirte_a.plugin("snd")
    inject_times = []
    for i in range(N_MESSAGES):
        inject_times.append(system.sim.now)
        scenario.pirte_a.plugin_write(snd, 0, i)
        system.sim.run_for(5 * MS)
    system.sim.run_for(20 * MS)
    return sink_latencies(scenario.sink_state, inject_times)


def _run_type_i():
    """External DATA message relayed over type I to a plug-in port."""
    scenario = build_relay_scenario(n_port_pairs=1, cross_ecu=True)
    system = scenario.system
    inject_times = []
    for i in range(N_MESSAGES):
        inject_times.append(system.sim.now)
        # Management DATA delivery straight into hostb's mgmt path,
        # modelling the last hop of ECM -> SW-C type I relay.
        raw = DataMessage("ecu2", "hostb", 100, i).encode()
        system.ecu("ecu2").rte.deliver_local("hostb", "mgmt_in", "mgmt", raw)
        system.sim.run_for(5 * MS)
    system.sim.run_for(20 * MS)
    return sink_latencies(scenario.sink_state, inject_times)


def test_fig1_port_type_latencies(benchmark):
    rows = []
    lat_iii = _run_type_iii()
    rows.append(["III (service, local)"] + _row(lat_iii))
    lat_ii_local = _run_type_ii(cross_ecu=False)
    rows.append(["II (relay, same ECU)"] + _row(lat_ii_local))
    lat_ii = _run_type_ii(cross_ecu=True)
    rows.append(["II (relay, cross ECU)"] + _row(lat_ii))
    lat_i = _run_type_i()
    rows.append(["I (mgmt DATA relay)"] + _row(lat_i))
    print_table(
        ["port type", "n", "min_us", "mean_us", "p95_us", "max_us"],
        rows,
        title="FIG1: plug-in message latency by SW-C port type (simulated)",
    )
    # All four paths must deliver every message.
    assert all(len(l) == N_MESSAGES for l in (lat_iii, lat_ii, lat_i))
    # Shape: cross-ECU type II pays the CAN hop over local type III.
    assert _mean(lat_ii) > _mean(lat_iii)

    # pytest-benchmark metric: host CPU cost of the PIRTE routing hot
    # path (one plug-in write routed through a service virtual port).
    scenario = build_service_scenario()
    plugin = scenario.pirte.plugin("fwd")

    def route_once():
        scenario.pirte.plugin_write(plugin, 1, 42)

    benchmark(route_once)


def _row(latencies):
    stats = summarize(latencies)
    return [stats["count"], stats["min"], round(stats["mean"], 1),
            stats["p95"], stats["max"]]


def _mean(latencies):
    return sum(latencies) / len(latencies)
