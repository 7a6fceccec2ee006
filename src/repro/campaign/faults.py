"""Seeded fault injection for fleet campaigns.

Real OTA campaigns are interesting because fleets are lossy: vehicles
park in underground garages mid-transfer, cellular links drop packages,
and some installations simply fail on the target.  A :class:`FaultPlan`
declares those behaviours as rates and windows; a :class:`FaultInjector`
realises them deterministically against one platform:

* **offline windows** — the pusher connection is severed (in-flight
  traffic reclaimed into the offline outbox) and the vehicle redials
  after the window (``vehicle.redial()``, at either fidelity);
* **drop / delay** — downstream pusher messages vanish or arrive late,
  via the pusher's push filter;
* **install failures** — an installation package is swallowed and a
  negative acknowledgement is synthesised after one round trip, exactly
  as if the vehicle's PIRTE had rejected the package.

The values no plan varies are module constants: the delay range, the
offline start range, the synthesised NACK's latency, the delay before
a soak anomaly strikes and how many packages a flaky vehicle NACKs.
Soak anomalies arm when a ``deploy`` event on the control plane's bus
reports an install resolved ACTIVE, and strike through
``vehicle.book_fault()``, which both fidelities answer, so a
statistical vehicle's diagnostic reports carry them as a full one's do.

All randomness flows from per-VIN :class:`~repro.sim.random.SeededStream`
children of ``plan.seed`` (``faults:<VIN>`` and ``faults:soak:<VIN>``),
so a campaign under faults replays identically for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet

from repro.core import messages as msg
from repro.errors import ConfigurationError
from repro.server.models import InstallStatus
from repro.server.pusher import PushVerdict
from repro.sim.kernel import MS, SECOND
from repro.sim.random import StreamFactory
from repro.telemetry.bus import TelemetryEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.platform import Platform

#: Range a delayed downstream message is held back for.
DELAY_MIN_US = 50 * MS
DELAY_MAX_US = 500 * MS
#: Range, from attach, in which an offline window starts.
OFFLINE_AFTER_MIN_US = 0
OFFLINE_AFTER_MAX_US = 2 * SECOND
#: Time from a swallowed install package to its synthesised NACK.
NACK_LATENCY_US = 150 * MS
#: Time from an install resolving ACTIVE to its soak anomaly.
SOAK_ANOMALY_AFTER_US = 200 * MS
#: Install packages a flaky vehicle NACKs before it behaves.
FLAKY_INSTALL_FAILURES = 2


def _rate(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1] (got {value})")
    return value


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of a fleet's misbehaviour.

    Rates are per-message (drop/delay/install failure) or per-vehicle
    (offline).  ``doomed_vins`` always fail their installs, independent
    of ``install_failure_rate`` — handy for scripting one deterministic
    casualty in examples and tests.  Delays are drawn from
    [:data:`DELAY_MIN_US`, :data:`DELAY_MAX_US`] and offline windows
    start within [:data:`OFFLINE_AFTER_MIN_US`,
    :data:`OFFLINE_AFTER_MAX_US`] of attach.  :meth:`from_dict`
    refuses a key that names no field.
    """

    seed: int = 0
    install_failure_rate: float = 0.0
    doomed_vins: FrozenSet[str] = field(default_factory=frozenset)
    #: Vehicles that NACK their first :data:`FLAKY_INSTALL_FAILURES`
    #: install packages, then behave — the transient-failure shape a
    #: retry budget exists for.
    flaky_vins: FrozenSet[str] = field(default_factory=frozenset)
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    offline_rate: float = 0.0
    offline_duration_us: int = 5 * SECOND
    #: Soak-window anomalies: vehicles that install *cleanly* but then
    #: misbehave — the failure shape only a telemetry-driven
    #: :class:`~repro.telemetry.SoakPolicy` gate can catch.  Each strikes
    #: :data:`SOAK_ANOMALY_AFTER_US` after the install resolves.  Trap
    #: anomalies burst ``soak_trap_count`` trapped activations on the
    #: freshly installed plug-in; drain anomalies leak
    #: ``soak_drain_blocks`` from the hosting SW-C's memory pool.
    #: ``*_vins`` script deterministic casualties; ``*_rate`` dooms a
    #: seeded per-vehicle fraction.
    soak_trap_vins: FrozenSet[str] = field(default_factory=frozenset)
    soak_trap_rate: float = 0.0
    soak_trap_count: int = 5
    soak_drain_vins: FrozenSet[str] = field(default_factory=frozenset)
    soak_drain_rate: float = 0.0
    soak_drain_blocks: int = 8
    #: Fuel anomalies: the freshly installed plug-in burns
    #: ``soak_fuel_amount`` extra VM fuel — a plug-in whose compute cost
    #: regressed without trapping, caught only by the policy's fuel
    #: thresholds.
    soak_fuel_vins: FrozenSet[str] = field(default_factory=frozenset)
    soak_fuel_rate: float = 0.0
    soak_fuel_amount: int = 100_000

    def __post_init__(self) -> None:
        _rate("install_failure_rate", self.install_failure_rate)
        _rate("drop_rate", self.drop_rate)
        _rate("delay_rate", self.delay_rate)
        _rate("offline_rate", self.offline_rate)
        _rate("soak_trap_rate", self.soak_trap_rate)
        _rate("soak_drain_rate", self.soak_drain_rate)
        _rate("soak_fuel_rate", self.soak_fuel_rate)
        if self.soak_trap_count < 0:
            raise ConfigurationError("soak_trap_count must be >= 0")
        if self.soak_drain_blocks < 0:
            raise ConfigurationError("soak_drain_blocks must be >= 0")
        if self.soak_fuel_amount < 0:
            raise ConfigurationError("soak_fuel_amount must be >= 0")
        # Normalise so equality/replay semantics do not depend on the
        # container type the caller used.
        object.__setattr__(self, "doomed_vins", frozenset(self.doomed_vins))
        object.__setattr__(self, "flaky_vins", frozenset(self.flaky_vins))
        object.__setattr__(
            self, "soak_trap_vins", frozenset(self.soak_trap_vins)
        )
        object.__setattr__(
            self, "soak_drain_vins", frozenset(self.soak_drain_vins)
        )
        object.__setattr__(
            self, "soak_fuel_vins", frozenset(self.soak_fuel_vins)
        )

    @property
    def active(self) -> bool:
        return bool(
            self.install_failure_rate
            or self.doomed_vins
            or self.flaky_vins
            or self.drop_rate
            or self.delay_rate
            or self.offline_rate
            or self.soak_trap_vins
            or self.soak_trap_rate
            or self.soak_drain_vins
            or self.soak_drain_rate
            or self.soak_fuel_vins
            or self.soak_fuel_rate
        )

    def to_dict(self) -> dict:
        """Serialize for campaign-record persistence (all fields)."""
        return {
            "seed": self.seed,
            "install_failure_rate": self.install_failure_rate,
            "doomed_vins": sorted(self.doomed_vins),
            "flaky_vins": sorted(self.flaky_vins),
            "drop_rate": self.drop_rate,
            "delay_rate": self.delay_rate,
            "offline_rate": self.offline_rate,
            "offline_duration_us": self.offline_duration_us,
            "soak_trap_vins": sorted(self.soak_trap_vins),
            "soak_trap_rate": self.soak_trap_rate,
            "soak_trap_count": self.soak_trap_count,
            "soak_drain_vins": sorted(self.soak_drain_vins),
            "soak_drain_rate": self.soak_drain_rate,
            "soak_drain_blocks": self.soak_drain_blocks,
            "soak_fuel_vins": sorted(self.soak_fuel_vins),
            "soak_fuel_rate": self.soak_fuel_rate,
            "soak_fuel_amount": self.soak_fuel_amount,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        data = dict(data)
        data["doomed_vins"] = frozenset(data.get("doomed_vins", ()))
        data["flaky_vins"] = frozenset(data.get("flaky_vins", ()))
        data["soak_trap_vins"] = frozenset(data.get("soak_trap_vins", ()))
        data["soak_drain_vins"] = frozenset(data.get("soak_drain_vins", ()))
        data["soak_fuel_vins"] = frozenset(data.get("soak_fuel_vins", ()))
        return cls(**data)


@dataclass
class FaultStats:
    """What the injector actually did during one run."""

    installs_failed: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    offline_events: int = 0
    requeued_in_flight: int = 0
    reconnects: int = 0
    soak_traps_injected: int = 0
    soak_blocks_drained: int = 0
    soak_fuel_burned: int = 0

    def to_dict(self) -> dict:
        return {
            "installs_failed": self.installs_failed,
            "messages_dropped": self.messages_dropped,
            "messages_delayed": self.messages_delayed,
            "offline_events": self.offline_events,
            "requeued_in_flight": self.requeued_in_flight,
            "reconnects": self.reconnects,
            "soak_traps_injected": self.soak_traps_injected,
            "soak_blocks_drained": self.soak_blocks_drained,
            "soak_fuel_burned": self.soak_fuel_burned,
        }


class FaultInjector:
    """Applies a :class:`FaultPlan` to one platform's server link."""

    def __init__(self, platform: "Platform", plan: FaultPlan) -> None:
        self.platform = platform
        self.plan = plan
        self.stats = FaultStats()
        # Soak-anomaly draws use their own path per vehicle, so they
        # never perturb the drop/delay/install draws of that vehicle.
        self._streams = StreamFactory(plan.seed)
        self._flaky_used: dict[str, int] = {}
        self._anomalies_armed: set[str] = set()
        self._bus = None
        self._attached = False

    # -- life cycle ------------------------------------------------------------

    def attach(self) -> None:
        """Install the push filter and schedule the offline windows."""
        if self._attached:
            return
        self._attached = True
        self.platform.server.pusher.set_push_filter(self._filter)
        if self._faults_soak:
            # Soak anomalies arm when an install resolves ACTIVE — the
            # vehicle said yes, then misbehaves.
            self._bus = self.platform.server.api.telemetry
            self._bus.subscribe(self._on_deploy, ("deploy",))
        if self.plan.offline_rate > 0:
            for vin in self.platform.vins:
                stream = self._streams.stream(f"faults:{vin}")
                if not stream.chance(self.plan.offline_rate):
                    continue
                after = stream.randint(
                    OFFLINE_AFTER_MIN_US, OFFLINE_AFTER_MAX_US
                )
                self.platform.sim.schedule(
                    after,
                    lambda vin=vin: self.take_offline(
                        vin, self.plan.offline_duration_us
                    ),
                    f"faults:offline:{vin}",
                )

    def detach(self) -> None:
        """Remove the push filter (scheduled offline windows still fire)."""
        if not self._attached:
            return
        self._attached = False
        self.platform.server.pusher.set_push_filter(None)
        if self._bus is not None:
            self._bus.unsubscribe(self._on_deploy)
            self._bus = None

    # -- fault primitives ------------------------------------------------------

    def take_offline(self, vin: str, duration_us: int) -> None:
        """Sever ``vin``'s server connection now; redial after the window."""
        pusher = self.platform.server.pusher
        if pusher.is_connected(vin):
            self.stats.requeued_in_flight += pusher.disconnect(vin)
            self.stats.offline_events += 1
        self.platform.sim.schedule(
            duration_us, lambda: self._reconnect(vin), f"faults:redial:{vin}"
        )

    def _reconnect(self, vin: str) -> None:
        if self.platform.vehicle(vin).redial():
            self.stats.reconnects += 1

    # -- soak-window anomalies -------------------------------------------------

    @property
    def _faults_soak(self) -> bool:
        return bool(
            self.plan.soak_trap_vins
            or self.plan.soak_trap_rate
            or self.plan.soak_drain_vins
            or self.plan.soak_drain_rate
            or self.plan.soak_fuel_vins
            or self.plan.soak_fuel_rate
        )

    def _on_deploy(self, event: TelemetryEvent) -> None:
        """Bus tap: arm post-install anomalies when an install
        resolves ACTIVE."""
        if event.name != "install_resolved":
            return
        if InstallStatus(event.data["status"]) is not InstallStatus.ACTIVE:
            return
        vin = event.vin
        app_name = event.data["app"]
        if vin in self._anomalies_armed:
            return
        # One decision per vehicle per run, in install-resolution order
        # — deterministic under the kernel's FIFO event ordering.
        self._anomalies_armed.add(vin)
        plan = self.plan
        stream = self._streams.stream(f"faults:soak:{vin}")
        trap = vin in plan.soak_trap_vins or (
            plan.soak_trap_rate > 0 and stream.chance(plan.soak_trap_rate)
        )
        drain = vin in plan.soak_drain_vins or (
            plan.soak_drain_rate > 0 and stream.chance(plan.soak_drain_rate)
        )
        fuel = vin in plan.soak_fuel_vins or (
            plan.soak_fuel_rate > 0 and stream.chance(plan.soak_fuel_rate)
        )
        if trap or drain or fuel:
            self.platform.sim.schedule(
                SOAK_ANOMALY_AFTER_US,
                lambda: self._strike(
                    vin, app_name,
                    traps=plan.soak_trap_count if trap else 0,
                    fuel=plan.soak_fuel_amount if fuel else 0,
                    blocks=plan.soak_drain_blocks if drain else 0,
                ),
                f"faults:soak:{vin}",
            )

    def _strike(
        self, vin: str, app_name: str, traps: int, fuel: int, blocks: int
    ) -> None:
        """Book one vehicle's soak anomaly: ``traps`` trapped activations
        and ``fuel`` extra fuel on each of ``app_name``'s plug-ins the
        vehicle runs, and ``blocks`` leaked from the first one's SW-C."""
        installed = self.platform.server.db.installation(vin, app_name)
        if installed is None:
            return
        vehicle = self.platform.vehicle(vin)
        for entry in installed.plugins:
            leaked = vehicle.book_fault(
                entry.swc_name, entry.plugin_name, traps, fuel, blocks
            )
            if leaked is None:
                continue
            self.stats.soak_traps_injected += traps
            self.stats.soak_fuel_burned += fuel
            self.stats.soak_blocks_drained += leaked
            blocks = 0

    # -- the push filter -------------------------------------------------------

    @property
    def _faults_installs(self) -> bool:
        return bool(
            self.plan.install_failure_rate
            or self.plan.doomed_vins
            or self.plan.flaky_vins
        )

    def _filter(self, vin: str, raw: bytes) -> PushVerdict:
        stream = self._streams.stream(f"faults:{vin}")
        # Decoding is only needed to single out install packages; skip
        # it on the hot push path when no install fault is configured.
        message = msg.decode(raw) if self._faults_installs else None
        if isinstance(message, msg.InstallMessage):
            flaky = (
                vin in self.plan.flaky_vins
                and self._flaky_used.get(vin, 0) < FLAKY_INSTALL_FAILURES
            )
            if flaky:
                self._flaky_used[vin] = self._flaky_used.get(vin, 0) + 1
            doomed = vin in self.plan.doomed_vins
            if doomed or flaky or (
                self.plan.install_failure_rate > 0
                and stream.chance(self.plan.install_failure_rate)
            ):
                self._fail_install(vin, message)
                return PushVerdict.drop()
        if self.plan.drop_rate > 0 and stream.chance(self.plan.drop_rate):
            self.stats.messages_dropped += 1
            return PushVerdict.drop()
        if self.plan.delay_rate > 0 and stream.chance(self.plan.delay_rate):
            self.stats.messages_delayed += 1
            return PushVerdict.delay(stream.randint(DELAY_MIN_US, DELAY_MAX_US))
        return PushVerdict.allow()

    def _fail_install(self, vin: str, message: msg.InstallMessage) -> None:
        """Swallow the package; NACK it back after one round trip."""
        self.stats.installs_failed += 1
        nack = msg.AckMessage(
            message.plugin_name,
            message.target_swc,
            msg.MessageType.INSTALL,
            msg.AckStatus.BAD_PACKAGE,
            "fault injection: installation failed on vehicle",
        ).encode()
        pusher = self.platform.server.pusher
        self.platform.sim.schedule(
            NACK_LATENCY_US,
            lambda: pusher.inject_upstream(vin, nack),
            f"faults:nack:{vin}",
        )


__all__ = [
    "DELAY_MAX_US",
    "DELAY_MIN_US",
    "FLAKY_INSTALL_FAILURES",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "NACK_LATENCY_US",
    "OFFLINE_AFTER_MAX_US",
    "OFFLINE_AFTER_MIN_US",
    "SOAK_ANOMALY_AFTER_US",
]
