"""Software components: atomic types and their runtime instances.

A :class:`ComponentType` is the reusable design-time artefact (ports,
runnables, events).  A :class:`ComponentInstance` is the runtime object
living on one ECU, holding port instances and the hook to the ECU's RTE.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.autosar.events import DataReceivedEvent, RteEvent
from repro.autosar.ports import PortInstance, PortPrototype
from repro.autosar.runnable import Runnable
from repro.errors import ConfigurationError, PortError

if TYPE_CHECKING:  # pragma: no cover
    from repro.autosar.os.scheduler import Cpu
    from repro.autosar.rte.rte import Rte


class ComponentType:
    """An atomic AUTOSAR software component type."""

    def __init__(
        self,
        name: str,
        ports: Sequence[PortPrototype] = (),
        runnables: Sequence[Runnable] = (),
        events: Sequence[RteEvent] = (),
    ) -> None:
        if not name:
            raise ConfigurationError("component type needs a non-empty name")
        self.name = name
        self._ports: dict[str, PortPrototype] = {}
        for port in ports:
            self.add_port(port)
        self._runnables: dict[str, Runnable] = {}
        for runnable in runnables:
            self.add_runnable(runnable)
        self.events: list[RteEvent] = []
        for event in events:
            self.add_event(event)

    @property
    def ports(self) -> list[PortPrototype]:
        return list(self._ports.values())

    @property
    def runnables(self) -> list[Runnable]:
        return list(self._runnables.values())

    def add_port(self, port: PortPrototype) -> None:
        """Declare a port; names must be unique within the type."""
        if port.name in self._ports:
            raise ConfigurationError(
                f"duplicate port {port.name!r} on component {self.name}"
            )
        self._ports[port.name] = port

    def add_runnable(self, runnable: Runnable) -> None:
        """Declare a runnable; names must be unique within the type."""
        if runnable.name in self._runnables:
            raise ConfigurationError(
                f"duplicate runnable {runnable.name!r} on {self.name}"
            )
        self._runnables[runnable.name] = runnable

    def add_event(self, event: RteEvent) -> None:
        """Attach an event; it must reference declared entities."""
        if event.runnable not in self._runnables:
            raise ConfigurationError(
                f"event references unknown runnable {event.runnable!r} "
                f"on component {self.name}"
            )
        if isinstance(event, DataReceivedEvent):
            port = self.port(event.port)
            if not port.is_required:
                raise ConfigurationError(
                    f"data-received event needs a required S/R port, "
                    f"got {event.port!r} on {self.name}"
                )
        self.events.append(event)

    def port(self, name: str) -> PortPrototype:
        """Look up a port prototype by name."""
        try:
            return self._ports[name]
        except KeyError:
            raise PortError(
                f"component {self.name} has no port {name!r}"
            ) from None

    def runnable(self, name: str) -> Runnable:
        """Look up a runnable by name."""
        try:
            return self._runnables[name]
        except KeyError:
            raise ConfigurationError(
                f"component {self.name} has no runnable {name!r}"
            ) from None

    def instantiate(self, instance_name: str) -> "ComponentInstance":
        """Create a runtime instance of this type."""
        return ComponentInstance(instance_name, self)

    def __repr__(self) -> str:
        return f"<ComponentType {self.name}>"


class ComponentInstance:
    """A runtime instance of an atomic component type on one ECU."""

    def __init__(self, name: str, ctype: ComponentType) -> None:
        if not name:
            raise ConfigurationError("component instance needs a name")
        self.name = name
        self.ctype = ctype
        self.ports: dict[str, PortInstance] = {
            p.name: PortInstance(name, p) for p in ctype.ports
        }
        self.rte: Optional["Rte"] = None
        #: The CPU that runs this instance's runnables (set by
        #: ``Ecu.add_instance``); state a ``noop`` predicate reads
        #: changes only after ``cpu.wake()``.
        self.cpu: Optional["Cpu"] = None
        #: Free-form per-instance state for runnable bodies.
        self.state: dict[str, Any] = {}

    def port(self, name: str) -> PortInstance:
        """Look up a runtime port by name."""
        try:
            return self.ports[name]
        except KeyError:
            raise PortError(
                f"instance {self.name} has no port {name!r}"
            ) from None

    def write(self, port: str, element: str, value: Any) -> None:
        """Rte_Write: send ``value`` out of a provided S/R port."""
        if self.rte is None:
            raise ConfigurationError(
                f"instance {self.name} is not bound to an RTE"
            )
        self.rte.write(self, port, element, value)

    def read(self, port: str, element: str) -> Any:
        """Rte_Read: last-is-best read from a required S/R port."""
        return self.port(port).read_latest(element)

    def receive(self, port: str, element: str) -> Any:
        """Rte_Receive: queued read from a required S/R port."""
        return self.port(port).receive(element)

    def pending(self, port: str, element: str) -> int:
        """Unconsumed values on a required port element."""
        return self.port(port).pending(element)

    def __repr__(self) -> str:
        return f"<ComponentInstance {self.name} of {self.ctype.name}>"


__all__ = [
    "ComponentType",
    "ComponentInstance",
]
