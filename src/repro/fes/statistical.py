"""Statistical vehicle model: calibrated low-fidelity fleet members.

A full :class:`~repro.fes.vehicle.Vehicle` simulates every ECU tick —
alarms, scheduler dispatches, VM instruction execution — which costs
thousands of kernel events per vehicle per simulated second.  That
fidelity matters for the canary wave, where the campaign's health and
soak gates must see real plug-in behaviour; it is wasted on the other
99% of a 100k-vehicle fleet, whose only observable contribution to a
campaign is *when* the acks come back and *whether* they are positive.

:class:`StatisticalVehicle` replaces the ECU/VM substrate with seeded
draws from a :class:`StatisticalModel` (ack latency, jitter, failure
rates), calibrated against the full simulation via
:func:`repro.fes.fleet.calibrate_model`.  It answers the management
protocol through the full PIRTE's own contract
(:class:`~repro.core.plugin.PluginTable`) over the real simulated
network, on the ECM's kind of server link
(:class:`~repro.network.sockets.Uplink`: the same dial, offline buffer
and flush), so the trusted server cannot tell the fidelities apart
(``tests/test_fidelity_contract.py`` holds them to it), and campaign
engines, health gates, pusher accounting, and telemetry soak windows
all work unchanged on mixed-fidelity fleets.

Determinism: each vehicle draws from the fabric's stream
``statvehicle:<VIN>``; stream paths are isolated (see
:mod:`repro.sim.random`), so adding statistical vehicles to a scenario
never perturbs the draws of the full-simulation vehicles, and the same
seed replays byte-identically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.core import messages as msg
from repro.core.plugin import MANAGEMENT, PluginState, PluginTable, unhosted
from repro.errors import ConfigurationError
from repro.fes.vehicle import VehicleSpec
from repro.network.sockets import NetworkFabric, Uplink
from repro.sim.kernel import MS, Simulator

#: Stream-path prefix for per-vehicle draws.
STREAM_PREFIX = "statvehicle"

#: VM memory blocks an installed plug-in occupies in diagnostic reports.
MEMORY_BLOCKS_PER_PLUGIN = 4

#: Rate at which a reported plug-in's activation counter grows with
#: simulated time, like a real 10 ms dispatch loop's.
ACTIVATION_RATE_HZ = 100


@dataclass(frozen=True)
class StatisticalModel:
    """Response-time and outcome distributions of one vehicle class.

    ``ack_latency_us`` is the mean vehicle-side processing time between
    receiving a management message and handing the ack to the uplink
    (link latency is NOT included — the simulated channel still adds
    its own delays, so channel profiles and fault plans keep working).
    ``ack_jitter_us`` spreads it uniformly.  ``install_failure_rate``
    is a Bernoulli draw per package of a plug-in not yet installed that
    produces a negative acknowledgement; every other answer follows the
    contract of :class:`~repro.core.plugin.PluginTable`.
    Diagnostic reports use the fixed :data:`MEMORY_BLOCKS_PER_PLUGIN`
    and :data:`ACTIVATION_RATE_HZ`.
    """

    ack_latency_us: int = 120 * MS
    ack_jitter_us: int = 40 * MS
    install_failure_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.ack_latency_us < 0 or self.ack_jitter_us < 0:
            raise ConfigurationError(
                "statistical latency and jitter must be >= 0"
            )
        if not 0.0 <= self.install_failure_rate <= 1.0:
            raise ConfigurationError(
                f"install_failure_rate must be in [0, 1] "
                f"(got {self.install_failure_rate})"
            )


class StatisticalVehicle(PluginTable):
    """A fleet member that answers the server statistically.

    Answers the calls the platform and campaign layers make on a
    :class:`~repro.fes.vehicle.Vehicle`: ``vin``, ``spec``, ``sim``,
    ``boot()``, ``run()``, ``redial()`` (the fault injector's end of an
    offline window), ``book_fault()`` (its soak anomalies),
    ``diagnostic_reports()`` (the soak baseline) and
    ``emit_diagnostics()`` (the soak path).  A management message for a
    hosted SW-C is answered by the plug-in table, one for any other SW-C
    ``UNKNOWN_PLUGIN``, as the ECM routes them; the ack leaves after a
    drawn processing time.

    What a vehicle owns is its identity and its state: the spec (whose
    description it shares with its model), its ``statvehicle:<VIN>``
    stream, its server link with its offline outbox, and its installed
    plug-ins.  The ``model`` is shared too: :meth:`ScenarioBuilder.build
    <repro.api.builder.ScenarioBuilder.build>` passes one per scenario.
    """

    fidelity = "statistical"
    #: ``(SW-C, plug-in)`` of the stopped plug-ins, and the soak faults
    #: booked by ``(counter, SW-C, plug-in)``.  Few vehicles get either,
    #: so a vehicle starts with these shared empty values.
    stopped: frozenset = frozenset()
    faults: Optional[Counter] = None

    def __init__(
        self,
        spec: VehicleSpec,
        fabric: NetworkFabric,
        sim: Simulator,
        server_address: str,
        model: StatisticalModel,
    ) -> None:
        self.spec = spec
        self._sim = sim
        self.model = model
        self._stream = fabric.streams.stream(f"{STREAM_PREFIX}:{spec.vin}")
        #: The vehicle's link to the trusted server.
        self.uplink = Uplink(fabric, server_address, spec.vin, self)
        #: ``(SW-C, plug-in)`` -> the shared decoded package installed.
        self.installed: dict[tuple[str, str], msg.InstallMessage] = {}
        self.acks_sent = 0
        self.nacks_sent = 0
        self._booted = False

    # -- platform-facing surface --------------------------------------------

    @property
    def vin(self) -> str:
        return self.spec.vin

    @property
    def sim(self) -> Simulator:
        return self._sim

    def boot(self) -> None:
        """Dial the trusted server (idempotent, like a real boot)."""
        if self._booted:
            return
        self._booted = True
        self.uplink.dial()

    def run(self, duration_us: int) -> None:
        self.boot()
        self._sim.run_for(duration_us)

    # -- connectivity --------------------------------------------------------

    def redial(self) -> bool:
        """Dial the trusted server unless the link is up; True when it
        dialled (see :class:`~repro.network.sockets.Uplink`)."""
        return self.uplink.dial()

    # -- protocol ------------------------------------------------------------

    def on_server_data(self, raw: bytes) -> None:
        """Answer one message from the trusted server."""
        message = msg.decode(raw)
        if not isinstance(message, MANAGEMENT):
            return  # DATA messages have no statistical observable.
        if self._placement(message.target_swc) is None:
            self._reply(unhosted(message))
        else:
            self._reply(self.answer(message))

    def held(
        self, swc: str, name: str
    ) -> Optional[tuple[msg.InstallMessage, PluginState]]:
        package = self.installed.get((swc, name))
        if package is None:
            return None
        stopped = (swc, name) in self.stopped
        return package, PluginState.STOPPED if stopped else PluginState.RUNNING

    def admit(self, message: msg.InstallMessage) -> msg.AckMessage:
        """Install a new plug-in unless the failure draw refuses it."""
        ok = not self._stream.chance(self.model.install_failure_rate)
        if ok:
            self.installed[(message.target_swc, message.plugin_name)] = message
        return msg.AckMessage(
            message.plugin_name, message.target_swc, msg.MessageType.INSTALL,
            msg.AckStatus.OK if ok else msg.AckStatus.BAD_PACKAGE,
            "" if ok else "statistical install failure",
        )

    def remove(self, swc: str, name: str) -> None:
        del self.installed[(swc, name)]
        self.enter(swc, name, PluginState.UNINSTALLED)

    def enter(self, swc: str, name: str, state: PluginState) -> None:
        key = (swc, name)
        if state is PluginState.STOPPED:
            self.stopped = self.stopped | {key}
        elif key in self.stopped:
            self.stopped = self.stopped - {key}

    def _reply(self, ack: msg.AckMessage) -> None:
        """Send ``ack`` after the drawn vehicle-side processing time."""
        raw = ack.encode()
        delay = self._stream.jitter(
            self.model.ack_latency_us, self.model.ack_jitter_us
        )
        if ack.ok:
            self.acks_sent += 1
        else:
            self.nacks_sent += 1
        self._sim.schedule(
            delay,
            lambda: self.uplink.send(raw),
            f"statvehicle:{self.vin}:ack",
        )

    # -- telemetry ------------------------------------------------------------

    def _placement(self, swc: str):
        for placement in self.spec.all_placements():
            if placement.instance_name == swc:
                return placement
        return None

    def _memory(self, swc: str) -> tuple[int, int]:
        """``(used, free)`` VM memory blocks of hosted SW-C ``swc``."""
        used = (self.faults or {}).get(("blocks", swc, ""), 0) + sum(
            MEMORY_BLOCKS_PER_PLUGIN for host, __ in self.installed
            if host == swc
        )
        capacity = self._placement(swc).spec.vm_memory_blocks
        return used, max(0, capacity - used)

    def book_fault(
        self, swc: str, plugin: str, traps: int, fuel: int, blocks: int
    ) -> Optional[int]:
        """Book a soak fault as :meth:`Vehicle.book_fault
        <repro.fes.vehicle.Vehicle.book_fault>` does, into the counters
        :meth:`diagnostic_reports` reads: the blocks leaked, or None
        when the plug-in is not installed."""
        if (swc, plugin) not in self.installed:
            return None
        leaked = min(blocks, self._memory(swc)[1])
        if self.faults is None:
            self.faults = Counter()
        self.faults.update({
            ("traps", swc, plugin): traps,
            ("fuel", swc, plugin): fuel,
            ("blocks", swc, ""): leaked,
        })
        return leaked

    def diagnostic_reports(self) -> list[msg.DiagMessage]:
        """One DiagMessage per plug-in-hosting SW-C, as of now.

        Mirrors the full PIRTE's report shape so the campaign soak gate
        evaluates mixed fleets with one code path: each installed
        plug-in's state, activation counters growing at
        :data:`ACTIVATION_RATE_HZ`, :data:`MEMORY_BLOCKS_PER_PLUGIN` used
        per installed plug-in, and the soak faults :meth:`book_fault`
        booked (a trap counts as an activation, as in a VM).
        """
        faults = self.faults or {}
        activations = (self._sim.now * ACTIVATION_RATE_HZ) // 1_000_000
        reports = []
        for placement in self.spec.all_placements():
            swc = placement.instance_name
            used, free = self._memory(swc)
            plugins = []
            for host, name in sorted(self.installed):
                if host != swc:
                    continue
                traps = faults.get(("traps", swc, name), 0)
                plugins.append(
                    msg.PluginHealth(
                        plugin_name=name,
                        state=self.held(swc, name)[1].value,
                        activations=activations + traps,
                        traps=traps,
                        fuel_used=faults.get(("fuel", swc, name), 0),
                    )
                )
            reports.append(
                msg.DiagMessage(
                    source_ecu=placement.ecu_name,
                    source_swc=swc,
                    memory_used_blocks=used,
                    memory_free_blocks=free,
                    plugins=tuple(plugins),
                )
            )
        return reports

    def emit_diagnostics(self) -> None:
        """Send :meth:`diagnostic_reports` toward the trusted server."""
        for report in self.diagnostic_reports():
            self.uplink.send(report.encode())


__all__ = [
    "ACTIVATION_RATE_HZ",
    "MEMORY_BLOCKS_PER_PLUGIN",
    "StatisticalModel",
    "StatisticalVehicle",
    "STREAM_PREFIX",
]
