"""The four workloads: one repeat of each, run inside a worker process.

Every function here builds its system from the seed, times the measured
phase, checks the program's outputs and returns a JSON-ready dict, with
the built fleet or system beside it so a traced run can read counters
from the platform objects before they are freed.  They
import only public ``repro`` APIs, never ``benchmarks/`` or ``tests/``
helpers, so the workloads cannot drift with code outside ``bench/``.

The portal workload's server half lives here too; its load generator
runs in the harness process (:mod:`bench.portal`).
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
import resource
import signal
import sys
from dataclasses import replace
from time import perf_counter

from repro import FixedWaves, PercentageWaves
from repro.autosar import (
    INT32,
    ComponentType,
    DataElement,
    DataReceivedEvent,
    Runnable,
    SenderReceiverInterface,
    SystemDescription,
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
    PluginSwcSpec,
    PortInit,
    RelayLink,
    ServicePort,
    get_pirte,
)
from repro.core.plugin_swc import make_plugin_swc_type
from repro.fes import canary_campaign
from repro.fes.example_platform import PHONE_ADDRESS, make_remote_control_app
from repro.fes.fleet import build_fleet
from repro.gateway import FleetGateway
from repro.sim import MS
from repro.vm.loader import compile_plugin
from repro.vm.verify import VerifyLimits, verify_binary

APP = "remote-control"
REGIONS = ("eu-north", "na-east")

#: Events of one reference probe, and host seconds between probes.
PROBE_STEPS = 6_000
PROBE_PERIOD_S = 0.05


class _ProbeNode:
    """One node of the reference probe's event loop."""

    __slots__ = ("ticks", "state")

    def __init__(self):
        self.ticks = 0
        self.state = {"phase": 0}

    def tick(self, now: int) -> int:
        self.ticks += 1
        self.state["phase"] = now & 7
        return now + 3 + (self.ticks & 3)


_PROBE_NODES = [_ProbeNode() for __ in range(64)]


def reference_probe_s(steps: int = PROBE_STEPS) -> float:
    """Host time of a fixed pure-Python event loop: the host's speed now.

    A heap of timed events whose callbacks are method calls that update
    a dict: the simulator's pattern in miniature, with no ``repro`` code,
    so a change to ``repro`` leaves it alone.  On this kind of host it
    follows the workloads' drift far more closely than a bare arithmetic
    loop or a pointer chase over a large heap does.
    """
    nodes = _PROBE_NODES
    queue = [(index, index) for index in range(len(nodes))]
    heapq.heapify(queue)
    start = perf_counter()
    for __ in range(steps):
        now, index = heapq.heappop(queue)
        heapq.heappush(queue, (nodes[index].tick(now), index))
    return perf_counter() - start


class Phase:
    """Times one measured phase and probes the host's speed while it runs.

    The shared host's speed drifts by up to 2x within a minute, and a
    probe timed before and after a phase does not follow it closely
    enough.  So, with ``probe`` set, a timer signal interrupts the phase
    every :data:`PROBE_PERIOD_S` to time the reference probe.  ``wall_s``
    is the phase's own host time, probes excluded, and ``ref_s`` the
    mean probe time; a phase too short for the timer is probed once at
    its end.  Traced runs do not probe, so no probe lands in a span.
    """

    def __init__(self, probe: bool):
        self.probe = probe
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._probe_s = 0.0
        self._probes = 0

    def _on_timer(self, signum, frame) -> None:
        self._probe_s += reference_probe_s()
        self._probes += 1

    def __enter__(self) -> "Phase":
        if self.probe:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = perf_counter() - self._start
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.wall_s = elapsed - self._probe_s
        if not self._probes:
            self._probe_s, self._probes = reference_probe_s(), 1
        self.ref_s = self._probe_s / self._probes


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timings(build: Phase, run: Phase | None = None) -> dict:
    times = {"build_s": build.wall_s, "build_ref_s": build.ref_s}
    if run is not None:
        times.update(wall_s=run.wall_s, ref_s=run.ref_s)
    return times


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _server_counters(fleet) -> dict:
    pusher = fleet.server.pusher
    acks = fleet.server.api.deployments.acks_processed
    return {
        "server.pusher.pushed": pusher.pushed,
        "server.pusher.dropped": pusher.dropped_messages,
        "server.services.install_ack_ratio": (
            acks / pusher.pushed if pusher.pushed else 0.0
        ),
    }


# -- rollouts ------------------------------------------------------------------


def rollout(params: dict, seed: int, probe: bool) -> tuple[dict, object]:
    """One campaign over a freshly built fleet.

    ``full_vehicles`` absent: every vehicle runs the full OSEK/RTE/PIRTE
    stack and waves are ``wave`` vehicles each.  Present: that many
    full-fidelity canaries lead a statistical tail, in two waves.
    """
    size = params["vehicles"]
    full = params.get("full_vehicles")
    if full is None:
        waves = FixedWaves(params["wave"])
    else:
        waves = PercentageWaves((full / size, 1.0))
    gc.collect()
    with Phase(probe) as build:
        fleet = build_fleet(size, seed=seed, full_vehicles=full)
        fleet.server.api.store.upload(
            make_remote_control_app(PHONE_ADDRESS)
        ).unwrap()
    spec = replace(canary_campaign(APP), waves=waves)
    gc.collect()
    with Phase(probe) as run:
        report = fleet.run_campaign(spec)

    errors = []
    if report.status != "succeeded":
        errors.append(f"campaign status {report.status!r}, not 'succeeded'")
    if report.updated != size:
        errors.append(f"{report.updated} of {size} vehicles updated")
    if full is not None and report.waves[0].vins != fleet.vins[:full]:
        errors.append("canary wave is not the full-fidelity prefix")
    sim_time_us = (report.finished_us or report.started_us) - report.started_us
    return {
        **_timings(build, run),
        "ops": report.updated,
        "attempted": size,
        "failed": size - report.updated,
        "errors": errors,
        "digest": _digest(report.to_dict()),
        "sim_events": fleet.sim.events_executed,
        "sim_time_s": sim_time_us / 1e6,
        "counters": {
            **_server_counters(fleet),
            "campaign.sim_time_s": sim_time_us / 1e6,
        },
    }, fleet


# -- plug-in dataplane -----------------------------------------------------------

#: Plug-in port pairs multiplexed over the one type II SW-C port pair.
PORTS = 8
TAPS = 16
#: Filter weights; outputs are the weighted sum shifted right by 4.
WEIGHTS = tuple(1 + (3 * j) % 7 for j in range(TAPS))
SAMPLE_SPACING_US = 10 * MS
#: Simulated time after the last sample for the tail to drain.
DRAIN_US = 200 * MS

# Memory map of the filter plug-in: cells 0..127 hold a 16-sample ring
# per port, 128..135 the ring heads, 200..203 scratch.  on_message gets
# (port index, value) pre-pushed by the PIRTE.
_FILTER_HEAD = """
.entry on_message
    STORE 201        ; value
    DUP
    STORE 200        ; port index
    PUSH 16
    MUL
    STORE 202        ; ring base
    LOAD 200
    PUSH 128
    ADD
    LOADI
    STORE 203        ; ring head
    LOAD 201
    LOAD 202
    LOAD 203
    ADD
    STOREI           ; ring[head] = value
    LOAD 203
    PUSH 1
    ADD
    PUSH 15
    AND
    DUP
    STORE 203
    LOAD 200
    PUSH 128
    ADD
    STOREI           ; head = (head + 1) & 15
    PUSH 0           ; accumulator
"""

# One unrolled tap: acc += weight * ring[(head - 1 - tap) & 15].
_FILTER_TAP = """
    LOAD 203
    PUSH {back}
    SUB
    PUSH 15
    AND
    LOAD 202
    ADD
    LOADI
    PUSH {weight}
    MUL
    ADD
"""

FILTER_SOURCE = (
    _FILTER_HEAD
    + "".join(
        _FILTER_TAP.format(back=tap + 1, weight=weight)
        for tap, weight in enumerate(WEIGHTS)
    )
    + f"    PUSH 4\n    SHR\n    WRPORT {PORTS}\n    HALT\n"
)

SENDER_SOURCE = """
.entry on_message
    HALT
"""

_OUT_IF = SenderReceiverInterface(
    "BenchFilterOut", [DataElement("value", INT32, queued=True, queue_length=64)]
)


def expected_outputs(values: list[int]) -> list[int]:
    """The filter's outputs, recomputed in Python."""
    rings = [[0] * TAPS for __ in range(PORTS)]
    heads = [0] * PORTS
    outputs = []
    for index, value in enumerate(values):
        port = index % PORTS
        ring = rings[port]
        ring[heads[port]] = value
        head = heads[port] = (heads[port] + 1) & (TAPS - 1)
        acc = sum(
            WEIGHTS[tap] * ring[(head - 1 - tap) & (TAPS - 1)]
            for tap in range(TAPS)
        )
        outputs.append(acc >> 4)
    return outputs


def _sink_type() -> ComponentType:
    def consume(instance):
        while instance.pending("in", "value"):
            instance.state.setdefault("got", []).append(
                (instance.rte.sim.now, instance.receive("in", "value"))
            )

    return ComponentType(
        "BenchFilterSink",
        ports=[required_port("in", _OUT_IF)],
        runnables=[Runnable("consume", consume, execution_time_us=10)],
        events=[DataReceivedEvent("consume", port="in", element="value")],
    )


def _install(name, ecu, swc, ports, links, source, mem_hint):
    return InstallMessage(
        plugin_name=name,
        version="1.0",
        target_ecu=ecu,
        target_swc=swc,
        pic=Pic(tuple(PortInit(port, port_id) for port, port_id in ports)),
        plc=Plc(tuple(links)),
        ecc=EMPTY_ECC,
        binary=compile_plugin(source, mem_hint=mem_hint).raw,
    )


def _build_dataplane():
    """Two ECUs, the sender and filter plug-ins installed and started."""
    host_a = PluginSwcSpec(
        "BenchSenderHost",
        relays=[RelayLink(peer="hostb", out_virtual="V0", in_virtual="V1")],
    )
    host_b = PluginSwcSpec(
        "BenchFilterHost",
        relays=[RelayLink(peer="hosta", out_virtual="V0", in_virtual="V3")],
        services=[ServicePort("VS", "svc_out", "out", INT32)],
    )
    desc = SystemDescription("bench-dataplane")
    desc.add_ecu("ecu1")
    desc.add_ecu("ecu2")
    desc.add_component("hosta", make_plugin_swc_type(host_a), "ecu1")
    desc.add_component("hostb", make_plugin_swc_type(host_b), "ecu2")
    desc.add_component("sink", _sink_type(), "ecu2", priority=6)
    desc.connect("hosta", "p2p_hostb_out", "hostb", "p2p_hosta_in")
    desc.connect("hostb", "p2p_hosta_out", "hosta", "p2p_hostb_in")
    desc.connect("hostb", "svc_out", "sink", "in")
    system = build_system(desc, tracer=None)
    system.boot_all()
    system.sim.run_for(10 * MS)
    pirte_a = get_pirte(system.instance("hosta"))
    pirte_b = get_pirte(system.instance("hostb"))
    receiver = _install(
        "filter", "ecu2", "hostb",
        ports=[(f"in{i}", 100 + i) for i in range(PORTS)] + [("out", 400)],
        links=[PlcLink(400, LinkKind.VIRTUAL, "VS")],
        source=FILTER_SOURCE, mem_hint=208,
    )
    sender = _install(
        "sender", "ecu1", "hosta",
        ports=[(f"out{i}", 300 + i) for i in range(PORTS)],
        links=[
            PlcLink(300 + i, LinkKind.VIRTUAL_REMOTE, "V0", 100 + i)
            for i in range(PORTS)
        ],
        source=SENDER_SOURCE, mem_hint=1,
    )
    errors = []
    verdict = verify_binary(
        compile_plugin(FILTER_SOURCE, mem_hint=208),
        VerifyLimits(num_ports=PORTS + 1),
    )
    if not verdict.ok:
        errors.append("filter plug-in fails static verification")
    for pirte, message in ((pirte_b, receiver), (pirte_a, sender)):
        ack = pirte.install(message)
        if not ack.ok:
            errors.append(f"install of {message.plugin_name} nacked")
    system.sim.run_for(10 * MS)
    snd = pirte_a.plugin("sender")
    return system, (pirte_a, pirte_b), snd, errors


def dataplane(params: dict, seed: int, probe: bool) -> tuple[dict, object]:
    """Stream seeded samples through the filter plug-in across CAN."""
    count = params["samples"]
    rng = random.Random(seed)
    values = [rng.randint(-100, 100) for __ in range(count)]
    gc.collect()
    with Phase(probe) as build:
        system, (pirte_a, pirte_b), snd, errors = _build_dataplane()

    write = pirte_a.plugin_write
    system.sim.schedule_many(
        [
            (index * SAMPLE_SPACING_US,
             lambda port=index % PORTS, value=value: write(snd, port, value))
            for index, value in enumerate(values)
        ],
        "bench:sample",
    )
    gc.collect()
    with Phase(probe) as run:
        system.sim.run_for(count * SAMPLE_SPACING_US + DRAIN_US)

    got = system.instance("sink").state.get("got", [])
    outputs = [value for __, value in got]
    expected = expected_outputs(values)
    wrong = sum(1 for a, b in zip(outputs, expected) if a != b)
    missing = max(0, count - len(outputs))
    if wrong or len(outputs) != count:
        errors.append(
            f"{len(outputs)} of {count} filter outputs, {wrong} differ "
            f"from the Python recomputation"
        )
    traps = pirte_a.trapped_activations + pirte_b.trapped_activations
    drops = pirte_a.dropped_messages + pirte_b.dropped_messages
    if traps or drops:
        errors.append(f"{traps} trapped activations, {drops} dropped messages")
    return {
        **_timings(build, run),
        "ops": len(outputs) - wrong,
        "attempted": count,
        "failed": wrong + missing,
        "errors": errors,
        "digest": _digest(got),
        "sim_events": system.sim.events_executed,
        "sim_time_s": system.sim.now / 1e6,
        "counters": {"campaign.sim_time_s": 0.0},
    }, system


# -- portal server ----------------------------------------------------------------


def portal_server(params: dict, seed: int, probe: bool) -> tuple[dict, object]:
    """Serve a mixed-fidelity fleet over HTTP until told to stop.

    Prints ``{"url": <base url>, "vins": [...]}`` once the gateway
    serves, then blocks until a line arrives on stdin.  Set-up is the
    fleet build, probed while no other thread runs, plus the gateway
    start.
    """
    gc.collect()
    with Phase(probe) as build:
        fleet = build_fleet(
            params["vehicles"], seed=seed,
            full_vehicles=params["full_vehicles"], regions=REGIONS,
        )
        fleet.server.api.store.upload(
            make_remote_control_app(PHONE_ADDRESS)
        ).unwrap()
    gc.collect()
    start = perf_counter()
    gateway = FleetGateway(fleet).start(drive=True)
    build.wall_s += perf_counter() - start
    try:
        print(
            json.dumps({"url": gateway.base_url, "vins": fleet.vins}),
            flush=True,
        )
        start = perf_counter()
        sys.stdin.readline()
        wall_s = perf_counter() - start
    finally:
        gateway.stop()
    return {
        **_timings(build),
        "wall_s": wall_s,
        "sim_events": fleet.sim.events_executed,
        "sim_time_s": fleet.sim.now / 1e6,
        "counters": {**_server_counters(fleet), "campaign.sim_time_s": 0.0},
    }, fleet


#: Workload name -> repeat body (run in a worker process).
BODIES = {
    "rollout-full": rollout,
    "rollout-stat": rollout,
    "plugin-dataplane": dataplane,
    "portal-mixed": portal_server,
}
