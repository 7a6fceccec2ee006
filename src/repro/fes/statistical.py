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
:func:`repro.fes.fleet.calibrate_model`.  It speaks the real management protocol over
the real simulated network — the trusted server cannot tell the
difference — so campaign engines, health gates, pusher accounting, and
telemetry soak windows all work unchanged on mixed-fidelity fleets.

Determinism: each vehicle draws from the fabric's stream
``statvehicle:<VIN>``; stream paths are isolated (see
:mod:`repro.sim.random`), so adding statistical vehicles to a scenario
never perturbs the draws of the full-simulation vehicles, and the same
seed replays byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import messages as msg
from repro.errors import ConfigurationError
from repro.fes.vehicle import VehicleSpec
from repro.network.sockets import Endpoint, NetworkFabric
from repro.sim.kernel import MS, Simulator

#: Stream-path prefix for per-vehicle draws.
STREAM_PREFIX = "statvehicle"


@dataclass(frozen=True)
class StatisticalModel:
    """Response-time and outcome distributions of one vehicle class.

    ``ack_latency_us`` is the mean vehicle-side processing time between
    receiving a management message and handing the ack to the uplink
    (link latency is NOT included — the simulated channel still adds
    its own delays, so channel profiles and fault plans keep working).
    ``ack_jitter_us`` spreads it uniformly.  The failure rates are
    per-message Bernoulli draws producing negative acknowledgements.
    ``memory_blocks_per_plugin`` feeds the diagnostic reports the soak
    gate reads; ``activation_rate_hz`` makes reported activation
    counters grow with simulated time like a real dispatch loop's.
    """

    ack_latency_us: int = 120 * MS
    ack_jitter_us: int = 40 * MS
    install_failure_rate: float = 0.0
    uninstall_failure_rate: float = 0.0
    memory_blocks_per_plugin: int = 4
    activation_rate_hz: int = 100

    def __post_init__(self) -> None:
        if self.ack_latency_us < 0 or self.ack_jitter_us < 0:
            raise ConfigurationError(
                "statistical latency and jitter must be >= 0"
            )
        for rate in (self.install_failure_rate, self.uninstall_failure_rate):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"failure rates must be in [0, 1] (got {rate})"
                )


class StatisticalVehicle:
    """A fleet member that answers the server statistically.

    Protocol-compatible with :class:`~repro.fes.vehicle.Vehicle` where
    the platform and campaign layers touch vehicles: ``vin``, ``spec``,
    ``sim``, ``boot()``, ``run()``, and ``emit_diagnostics()`` (the
    soak path).  ``pirte_of`` raises — there is no PIRTE to introspect,
    which the campaign engine's baseline capture already tolerates.
    """

    fidelity = "statistical"

    def __init__(
        self,
        spec: VehicleSpec,
        fabric: NetworkFabric,
        sim: Simulator,
        model: Optional[StatisticalModel] = None,
    ) -> None:
        self.spec = spec
        self.fabric = fabric
        self._sim = sim
        self.model = model or StatisticalModel()
        self._stream = fabric.streams.stream(f"{STREAM_PREFIX}:{spec.vin}")
        self._endpoint: Optional[Endpoint] = None
        self._outbox: list[bytes] = []
        #: plugin name -> (target_swc, target_ecu) of confirmed installs.
        self.installed: dict[str, tuple[str, str]] = {}
        self.acks_sent = 0
        self.messages_received = 0
        self.nacks_sent = 0
        self._booted = False

    # -- platform-facing surface --------------------------------------------

    @property
    def vin(self) -> str:
        return self.spec.vin

    @property
    def sim(self) -> Simulator:
        return self._sim

    def pirte_of(self, swc_instance: str):
        raise ConfigurationError(
            f"vehicle {self.vin} is statistical-fidelity; it has no PIRTE "
            f"for SW-C {swc_instance!r}"
        )

    def boot(self) -> None:
        """Dial the trusted server (idempotent, like a real boot)."""
        if self._booted:
            return
        self._booted = True
        self.fabric.connect(
            self.spec.server_address, self.vin, self._on_connected
        )

    def run(self, duration_us: int) -> None:
        self.boot()
        self._sim.run_for(duration_us)

    # -- connectivity --------------------------------------------------------

    def _on_connected(self, endpoint: Endpoint) -> None:
        self._endpoint = endpoint
        endpoint.on_receive(self._on_message)
        while self._outbox:
            raw = self._outbox.pop(0)
            endpoint.send(raw, size=len(raw))

    def _send_upstream(self, raw: bytes) -> None:
        if self._endpoint is None or self._endpoint.closed:
            # Offline (never connected, or the link was severed by a
            # fault): buffer like the real ECM's server outbox does.
            self._endpoint = None
            self._outbox.append(raw)
            return
        self._endpoint.send(raw, size=len(raw))

    # -- protocol ------------------------------------------------------------

    def _on_message(self, raw: bytes) -> None:
        self.messages_received += 1
        message = msg.decode(raw)
        if isinstance(message, msg.InstallMessage):
            self._handle_install(message)
        elif isinstance(message, msg.UninstallMessage):
            self._handle_uninstall(message)
        elif isinstance(message, msg.LifecycleMessage):
            self._reply(
                msg.AckMessage(
                    message.plugin_name, message.target_swc,
                    message.op, msg.AckStatus.OK,
                )
            )
        # DataMessages have no statistical observable; drop them.

    def _handle_install(self, message: msg.InstallMessage) -> None:
        if self._stream.chance(self.model.install_failure_rate):
            self._reply(
                msg.AckMessage(
                    message.plugin_name, message.target_swc,
                    msg.MessageType.INSTALL, msg.AckStatus.BAD_PACKAGE,
                    "statistical install failure",
                )
            )
            return
        self.installed[message.plugin_name] = (
            message.target_swc, message.target_ecu
        )
        self._reply(
            msg.AckMessage(
                message.plugin_name, message.target_swc,
                msg.MessageType.INSTALL, msg.AckStatus.OK,
            )
        )

    def _handle_uninstall(self, message: msg.UninstallMessage) -> None:
        if message.plugin_name not in self.installed:
            self._reply(
                msg.AckMessage(
                    message.plugin_name, message.target_swc,
                    msg.MessageType.UNINSTALL, msg.AckStatus.UNKNOWN_PLUGIN,
                    f"plug-in {message.plugin_name} is not installed",
                )
            )
            return
        if self._stream.chance(self.model.uninstall_failure_rate):
            self._reply(
                msg.AckMessage(
                    message.plugin_name, message.target_swc,
                    msg.MessageType.UNINSTALL, msg.AckStatus.LIFECYCLE_ERROR,
                    "statistical uninstall failure",
                )
            )
            return
        del self.installed[message.plugin_name]
        self._reply(
            msg.AckMessage(
                message.plugin_name, message.target_swc,
                msg.MessageType.UNINSTALL, msg.AckStatus.OK,
            )
        )

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
            lambda: self._send_upstream(raw),
            f"statvehicle:{self.vin}:ack",
        )

    # -- telemetry ------------------------------------------------------------

    def emit_diagnostics(self) -> None:
        """Send one healthy DiagMessage per plug-in-hosting SW-C.

        Mirrors the full PIRTE's report shape so the campaign soak gate
        evaluates mixed fleets with one code path: zero traps, activation
        counters growing at ``activation_rate_hz``, and memory usage
        proportional to the confirmed plug-in population.
        """
        by_swc: dict[str, list[str]] = {}
        for plugin_name, (swc, __) in self.installed.items():
            by_swc.setdefault(swc, []).append(plugin_name)
        activations = (self._sim.now * self.model.activation_rate_hz) // 1_000_000
        for placement in self.spec.all_placements():
            plugins = sorted(by_swc.get(placement.instance_name, ()))
            used = len(plugins) * self.model.memory_blocks_per_plugin
            report = msg.DiagMessage(
                source_ecu=placement.ecu_name,
                source_swc=placement.instance_name,
                memory_used_blocks=used,
                memory_free_blocks=max(
                    0, placement.spec.vm_memory_blocks - used
                ),
                plugins=tuple(
                    msg.PluginHealth(
                        plugin_name=name,
                        state="running",
                        activations=activations,
                        traps=0,
                        fuel_used=0,
                    )
                    for name in plugins
                ),
            )
            self._send_upstream(report.encode())


__all__ = [
    "StatisticalModel",
    "StatisticalVehicle",
    "STREAM_PREFIX",
]
