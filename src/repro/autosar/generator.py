"""The "RTE generator": builds a runtime system from a description.

This mirrors the AUTOSAR methodology step where tooling processes the
description files into executable BSW + RTE + ASW for each ECU: the
:class:`SystemBuilder` instantiates ECUs, components, and OS tasks,
allocates COM signal/PDU/CAN identifiers for every cross-ECU connector
element, and turns RTE events into alarms and delivery hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.autosar.ecu import Ecu
from repro.autosar.events import DataReceivedEvent, InitEvent, TimingEvent
from repro.autosar.bsw.com import SignalConfig
from repro.autosar.os.task import Activation, Task, WorkItem
from repro.autosar.rte.rte import ComRoute, LocalRoute
from repro.autosar.swc import ComponentInstance
from repro.autosar.system import SystemDescription
from repro.can.bus import CanBus
from repro.can.frame import MAX_STD_ID
from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.telemetry.bus import TelemetryBus

#: First CAN identifier handed to generated signals.  Identifiers below
#: this are reserved for built-in, manually configured traffic.
CAN_ID_BASE = 0x100


@dataclass
class BuiltSystem:
    """The runtime artefacts produced by :class:`SystemBuilder`."""

    description: SystemDescription
    sim: Simulator
    ecus: dict[str, Ecu]
    bus: CanBus
    tracer: Optional[TelemetryBus]
    signal_allocation: dict[tuple[str, str, str, str, str], int] = field(
        default_factory=dict
    )

    def ecu(self, name: str) -> Ecu:
        """Look up a built ECU."""
        try:
            return self.ecus[name]
        except KeyError:
            raise ConfigurationError(f"no ECU named {name!r}") from None

    def instance(self, name: str) -> ComponentInstance:
        """Find a component instance on whichever ECU holds it."""
        placement = self.description.placement(name)
        return self.ecu(placement.ecu_name).instance(name)

    def boot_all(self) -> None:
        """Boot every ECU (idempotent)."""
        for ecu in self.ecus.values():
            ecu.boot()

    def run(self, duration_us: int) -> None:
        """Boot if necessary and advance simulated time."""
        self.boot_all()
        self.sim.run_for(duration_us)


class SystemBuilder:
    """Generates the runtime system for a :class:`SystemDescription`."""

    def __init__(
        self,
        description: SystemDescription,
        sim: Optional[Simulator] = None,
        tracer: Optional[TelemetryBus] = None,
    ) -> None:
        self.description = description
        self.sim = sim or Simulator()
        self.tracer = tracer
        self._next_pdu = 0

    def build(self) -> BuiltSystem:
        """Validate the description and construct the runtime system."""
        description = self.description
        description.validate()
        bus = CanBus(
            self.sim,
            "can0",
            bitrate=description.can_bitrate,
            tracer=self.tracer,
        )
        ecus = {
            name: Ecu(name, self.sim, bus, self.tracer)
            for name in description.ecus
        }
        built = BuiltSystem(description, self.sim, ecus, bus, self.tracer)
        self._instantiate_components(built)
        self._wire_sr_routes(built)
        self._install_events(built)
        return built

    def _instantiate_components(self, built: BuiltSystem) -> None:
        for placement in self.description.placements.values():
            ecu = built.ecu(placement.ecu_name)
            instance = placement.ctype.instantiate(placement.instance_name)
            task = Task(f"task_{placement.instance_name}", placement.priority)
            ecu.add_instance(instance, task)

    def _allocate_signal(self) -> tuple[int, int]:
        """Allocate a fresh (signal_id, can_id) pair."""
        pdu_id = self._next_pdu
        self._next_pdu += 1
        can_id = CAN_ID_BASE + pdu_id
        if can_id > MAX_STD_ID:
            raise ConfigurationError(
                "CAN identifier space exhausted: too many cross-ECU "
                "connector elements"
            )
        return pdu_id, can_id

    def _wire_sr_routes(self, built: BuiltSystem) -> None:
        description = self.description
        for connector in description.connectors:
            from_place = description.placement(connector.from_instance)
            iface = from_place.ctype.port(connector.from_port).interface
            src_ecu = built.ecu(from_place.ecu_name)
            if not description.is_cross_ecu(connector):
                for element in iface.elements:
                    src_ecu.rte.add_sr_route(
                        connector.from_instance,
                        connector.from_port,
                        element.name,
                        LocalRoute(connector.to_instance, connector.to_port),
                    )
                continue
            to_place = description.placement(connector.to_instance)
            dst_ecu = built.ecu(to_place.ecu_name)
            for element in iface.elements:
                signal_id, can_id = self._allocate_signal()
                built.signal_allocation[
                    (
                        connector.from_instance,
                        connector.from_port,
                        connector.to_instance,
                        connector.to_port,
                        element.name,
                    )
                ] = signal_id
                config = SignalConfig(
                    name=(
                        f"{connector.from_instance}_{connector.from_port}_"
                        f"{element.name}"
                    ),
                    signal_id=signal_id,
                    dtype=element.dtype,
                    pdu_id=signal_id,
                )
                src_ecu.com.configure_tx_signal(config)
                src_ecu.canif.configure_tx(signal_id, can_id)
                dst_ecu.com.configure_rx_signal(config)
                dst_ecu.canif.configure_rx(can_id, signal_id)
                src_ecu.rte.add_sr_route(
                    connector.from_instance,
                    connector.from_port,
                    element.name,
                    ComRoute(signal_id),
                )
                dst_ecu.com.subscribe(
                    signal_id,
                    self._make_remote_delivery(
                        dst_ecu,
                        connector.to_instance,
                        connector.to_port,
                        element.name,
                    ),
                )

    @staticmethod
    def _make_remote_delivery(ecu: Ecu, instance: str, port: str, element: str):
        def deliver(value) -> None:
            ecu.rte.deliver_local(instance, port, element, value)

        return deliver

    def _install_events(self, built: BuiltSystem) -> None:
        for placement in self.description.placements.values():
            ecu = built.ecu(placement.ecu_name)
            instance = ecu.instance(placement.instance_name)
            task = ecu.task_for(placement.instance_name)
            for event in placement.ctype.events:
                if isinstance(event, TimingEvent):
                    self._install_timing_event(ecu, instance, task, event)
                elif isinstance(event, DataReceivedEvent):
                    self._install_data_event(ecu, instance, task, event)
                elif isinstance(event, InitEvent):
                    self._install_init_event(ecu, instance, task, event)

    @staticmethod
    def _activation_item(
        instance: ComponentInstance, runnable_name: str, periodic: bool = False
    ) -> WorkItem:
        """Build the work item for one runnable activation.

        The item is immutable once built (preemption clones rather than
        mutating), so event installers construct it once and re-enqueue
        the same object every period — a periodic runnable would
        otherwise allocate a WorkItem, a label string, and a closure on
        every tick of every vehicle.  A ``periodic`` item carries the
        runnable's ``noop`` predicate, bound to ``instance``.
        """
        runnable = instance.ctype.runnable(runnable_name)
        noop = runnable.noop if periodic else None
        return WorkItem(
            label=f"{instance.name}.{runnable_name}",
            duration_us=runnable.execution_time_us,
            action=lambda: runnable.run(instance),
            noop=None if noop is None else partial(noop, instance),
        )

    def _install_timing_event(
        self,
        ecu: Ecu,
        instance: ComponentInstance,
        task: Task,
        event: TimingEvent,
    ) -> None:
        item = self._activation_item(instance, event.runnable, periodic=True)
        alarm = ecu.alarms.create(
            f"{instance.name}.{event.runnable}.timer", Activation(task, item)
        )
        ecu.at_boot(
            lambda a=alarm, e=event: a.set_relative(e.offset_us, e.period_us)
        )

    def _install_data_event(
        self,
        ecu: Ecu,
        instance: ComponentInstance,
        task: Task,
        event: DataReceivedEvent,
    ) -> None:
        item = self._activation_item(instance, event.runnable)
        ecu.rte.add_delivery_hook(
            instance.name,
            event.port,
            event.element,
            lambda: ecu.cpu.activate(task, item),
        )

    def _install_init_event(
        self,
        ecu: Ecu,
        instance: ComponentInstance,
        task: Task,
        event: InitEvent,
    ) -> None:
        item = self._activation_item(instance, event.runnable)
        ecu.at_boot(lambda: ecu.cpu.activate(task, item))


def build_system(
    description: SystemDescription,
    sim: Optional[Simulator] = None,
    tracer: Optional[TelemetryBus] = None,
) -> BuiltSystem:
    """One-call convenience wrapper around :class:`SystemBuilder`.

    The OS, RTE, CAN bus and PIRTEs publish their events into
    ``tracer`` when one is given.
    """
    return SystemBuilder(description, sim, tracer).build()


__all__ = ["SystemBuilder", "BuiltSystem", "build_system", "CAN_ID_BASE"]
