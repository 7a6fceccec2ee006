"""FIG3 — the end-to-end example application (paper Sec. 4).

Reproduces the demonstrator timeline: ECM connects to the trusted
server, the user triggers installation, packages flow to both ECUs,
acks return, and the phone then drives the car.  The harness reports
the simulated timeline of each phase and the steady-state command
latency phone -> actuator.

Paper-expected shape: installation completes in network-dominated time
(cellular RTT + CAN transfer of the OP package); steady-state commands
traverse phone -> COM -> type II -> OP -> type III in a few
dispatch periods plus one CAN hop (milliseconds, not seconds).
"""

from repro.analysis import print_table, us_to_ms
from repro.fes.example_platform import build_example_platform
from repro.sim import MS, SECOND
from repro.telemetry.metrics import summarize


def run_install_timeline(seed=0):
    """Returns (connect_us, install_us, platform)."""
    platform = build_example_platform(seed=seed)
    t0 = platform.sim.now
    platform.boot()
    platform.run(1 * MS)  # let init runnables create the PIRTEs
    # Advance until the ECM reports connected.
    while not platform.vehicle().ecm_pirte.uplink.up:
        platform.run(10 * MS)
    connect_us = platform.sim.now - t0
    deployment = platform.deploy("remote-control")
    assert deployment.ok, deployment.reasons("VIN-0001")
    install_us = deployment.wait(60 * SECOND, step_us=10 * MS)
    assert deployment.all_active
    return connect_us, install_us, platform


def measure_command_latencies(platform, n=30):
    """Steady-state phone->actuator latency samples (simulated us)."""
    actuators = platform.vehicle().system.instance("actuators")
    latencies = []
    for i in range(n):
        sent_at = platform.sim.now
        before = len(actuators.state.get("wheels", []))
        platform.phone().send("Wheels", i - 15)
        while len(actuators.state.get("wheels", [])) == before:
            platform.run(1 * MS)
            assert platform.sim.now - sent_at < 1 * SECOND
        latencies.append(platform.sim.now - sent_at)
    return latencies


def test_fig3_install_timeline_and_command_latency(benchmark):
    connect_us, install_us, platform = run_install_timeline()
    latencies = measure_command_latencies(platform)
    stats = summarize(latencies)
    print_table(
        ["phase", "simulated time"],
        [
            ["ECM connect to trusted server", f"{us_to_ms(connect_us):.1f} ms"],
            ["deploy -> both plug-ins ACTIVE", f"{us_to_ms(install_us):.1f} ms"],
            ["command latency mean", f"{us_to_ms(stats['mean']):.2f} ms"],
            ["command latency p95", f"{us_to_ms(stats['p95']):.2f} ms"],
            ["command latency max", f"{us_to_ms(stats['max']):.2f} ms"],
        ],
        title="FIG3: example application timeline (simulated)",
    )
    # Shape: install is network-dominated (sub-second at these profiles);
    # steady-state commands are tens of ms (wifi + dispatch + CAN).
    assert install_us < 2 * SECOND
    assert stats["mean"] < 100 * MS

    # Host-side benchmark: one full install handshake simulation.
    def full_handshake():
        run_install_timeline(seed=1)

    benchmark.pedantic(full_handshake, rounds=3, iterations=1)


def test_fig3_signal_chain_detail(benchmark):
    """Per-hop breakdown of one command through the Fig. 3 chain."""
    __, __, platform = run_install_timeline(seed=2)
    tracer = platform.tracer
    tracer.clear()
    com_vm = platform.vehicle().ecm_pirte.plugin("COM").vm
    op_vm = platform.vehicle().pirte_of("swc2").plugin("OP").vm
    vm_before = com_vm.activations + op_vm.activations
    platform.phone().send("Wheels", -12)
    platform.run(200 * MS)
    writes = tracer.events("rte", "write")
    delivers = tracer.events("rte", "deliver")
    can_tx = len(tracer.events("can", "tx_done"))
    rows = [
        ["external deliveries (wifi)", len(tracer.events("net", "deliver"))],
        ["plug-in VM activations", com_vm.activations + op_vm.activations - vm_before],
        ["RTE writes (both ECUs)", len(writes)],
        ["RTE deliveries", len(delivers)],
        ["CAN frames", can_tx],
    ]
    print_table(
        ["stage", "events"],
        rows,
        title="FIG3: one command's footprint through the stack",
    )
    actuated = platform.actuator_state().get("wheels")
    assert actuated == [-12]
    assert can_tx >= 1  # the type II hop crossed the bus

    benchmark(lambda: platform.phone().send("Wheels", 1))
