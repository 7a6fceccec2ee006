"""ISOLATE — plug-in best-effort execution vs built-in functionality.

The paper's plug-in SW-C "allows to execute the plug-ins under a best
effort scheme, avoiding competition for resources with the built-in
functionality" (Sec. 3.1.1).  The harness runs a hard-periodic control
runnable (high priority) on the same ECU as a plug-in SW-C, then loads
the plug-in SW-C with a runaway (infinite-loop) plug-in, and measures
the control task's completion jitter with and without the attack, and
with different VM fuel quotas.

Paper-expected shape: control-task response times are identical with
and without the runaway plug-in (the scheduler isolates by priority,
the fuel quota bounds each activation), while the plug-in's own
activations trap on fuel exhaustion.
"""

from repro.analysis import print_table
from repro.autosar import (
    ComponentType,
    Runnable,
    SystemDescription,
    TimingEvent,
    build_system,
)
from repro.core import PluginSwcSpec, get_pirte
from repro.core.plugin_swc import make_plugin_swc_type
from repro.sim import MS
from repro.telemetry.metrics import summarize

from benchmarks._scenarios import install_message

RUNAWAY = """
.entry on_timer
loop:
    JMP loop
"""

CONTROL_PERIOD = 5 * MS
RUN_FOR = 500 * MS


def make_control_type(samples):
    def control_body(instance):
        samples.append(instance.rte.sim.now)

    return ComponentType(
        "ControlLoop",
        runnables=[Runnable("control", control_body, execution_time_us=300)],
        events=[TimingEvent("control", period_us=CONTROL_PERIOD)],
    )


def run_scenario(with_runaway, fuel=20_000, host_priority=1):
    samples = []
    spec = PluginSwcSpec(
        "IsolationHost",
        fuel_per_activation=fuel,
        timer_period_us=10 * MS,
        dispatch_exec_us=2 * MS,  # the VM slice reserved per dispatch
    )
    desc = SystemDescription("bench-isolation")
    desc.add_ecu("ecu1")
    desc.add_component(
        "control", make_control_type(samples), "ecu1", priority=10
    )
    desc.add_component(
        "host", make_plugin_swc_type(spec), "ecu1", priority=host_priority
    )
    system = build_system(desc)
    system.boot_all()
    system.sim.run_for(5 * MS)
    pirte = get_pirte(system.instance("host"))
    if with_runaway:
        message = install_message(
            "bomb", "ecu1", "host", ports=[("p", 0)],
            links=[], source=RUNAWAY,
        )
        assert pirte.install(message).ok
    system.sim.run_for(RUN_FOR)
    # Completion jitter: deviation of completion from period + wcet.
    jitters = [
        abs((t - 300) % CONTROL_PERIOD)
        for t in samples
    ]
    jitters = [min(j, CONTROL_PERIOD - j) for j in jitters]
    return samples, jitters, pirte


def test_isolation_control_task_jitter(benchmark):
    rows = []
    baseline_samples, baseline_jitter, __ = run_scenario(False)
    rows.append(
        ["no plug-in load", len(baseline_samples)]
        + _jitter_row(baseline_jitter)
    )
    attack_samples, attack_jitter, pirte = run_scenario(True)
    rows.append(
        ["runaway plug-in (fuel=20k)", len(attack_samples)]
        + _jitter_row(attack_jitter)
    )
    big_samples, big_jitter, big_pirte = run_scenario(True, fuel=200_000)
    rows.append(
        ["runaway plug-in (fuel=200k)", len(big_samples)]
        + _jitter_row(big_jitter)
    )
    # Ablation: what the design PREVENTS — a misconfigured plug-in SW-C
    # placed at higher priority than the control loop.
    bad_samples, bad_jitter, __ = run_scenario(True, host_priority=11)
    rows.append(
        ["MISCONFIG: plug-in prio > control", len(bad_samples)]
        + _jitter_row(bad_jitter)
    )
    print_table(
        ["scenario", "activations", "jitter_mean_us", "jitter_max_us"],
        rows,
        title="ISOLATE: 5ms control-loop completion jitter (simulated)",
    )
    # The control task never misses an activation under attack.
    assert len(attack_samples) == len(baseline_samples)
    # And its jitter is unchanged: priority isolation holds exactly.
    assert max(attack_jitter) == max(baseline_jitter)
    # The runaway plug-in really did burn and trap.
    assert pirte.trapped_activations > 0
    assert pirte.plugin("bomb").failed_activations > 0
    # The misconfigured placement DOES disturb the control loop,
    # showing the isolation comes from the scheduling design.
    assert max(bad_jitter) > max(attack_jitter)

    benchmark.pedantic(
        lambda: run_scenario(True), rounds=3, iterations=1
    )


def _jitter_row(jitters):
    stats = summarize(jitters)
    return [round(stats["mean"], 1), stats["max"]]


def test_isolation_fuel_bounds_plugin_cpu(benchmark):
    """Fuel quotas bound how much the plug-in can even attempt."""
    rows = []
    for fuel in (1_000, 20_000, 200_000):
        __, __, pirte = run_scenario(True, fuel=fuel)
        bomb = pirte.plugin("bomb")
        rows.append(
            [fuel, bomb.vm.activations, bomb.failed_activations,
             bomb.vm.total_fuel_used]
        )
        # Every runaway activation must trap — none may complete.
        assert bomb.failed_activations == bomb.vm.activations
    print_table(
        ["fuel/activation", "activations", "trapped", "total fuel burnt"],
        rows,
        title="ISOLATE: fuel quota accounting for the runaway plug-in",
    )

    benchmark(lambda: None)
