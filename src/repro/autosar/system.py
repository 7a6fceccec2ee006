"""System description: the design-time model the RTE is generated from.

A :class:`SystemDescription` collects ECUs, component instances with
their ECU allocation and task mapping, and VFB connectors.  It validates
structural consistency and is the single input to
:class:`repro.autosar.generator.SystemBuilder`, mirroring how
AUTOSAR description files feed the RTE generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.autosar.interfaces import SenderReceiverInterface
from repro.autosar.swc import ComponentType, CompositionType
from repro.autosar.vfb import Connector, validate_connector
from repro.errors import ConfigurationError


@dataclass
class TaskMapping:
    """OS task parameters for one component instance."""

    task_name: str
    priority: int = 5
    preemptable: bool = True


@dataclass
class EcuDescription:
    """One ECU's static description."""

    name: str
    on_bus: bool = True
    memory_block_size: int = 256
    memory_block_count: int = 4096


@dataclass
class InstancePlacement:
    """A component instance allocated to an ECU."""

    instance_name: str
    ctype: ComponentType
    ecu_name: str
    task: TaskMapping = field(default_factory=lambda: TaskMapping("", 5))

    def __post_init__(self) -> None:
        if not self.task.task_name:
            self.task = TaskMapping(
                f"task_{self.instance_name}",
                self.task.priority,
                self.task.preemptable,
            )


class SystemDescription:
    """The complete design-time system model."""

    def __init__(self, name: str = "system") -> None:
        self.name = name
        self.ecus: dict[str, EcuDescription] = {}
        self.placements: dict[str, InstancePlacement] = {}
        self.connectors: list[Connector] = []
        self.can_bitrate = 500_000

    def add_ecu(
        self,
        name: str,
        on_bus: bool = True,
        memory_block_size: int = 256,
        memory_block_count: int = 4096,
    ) -> EcuDescription:
        """Declare an ECU."""
        if name in self.ecus:
            raise ConfigurationError(f"duplicate ECU {name!r}")
        ecu = EcuDescription(name, on_bus, memory_block_size, memory_block_count)
        self.ecus[name] = ecu
        return ecu

    def add_component(
        self,
        instance_name: str,
        ctype: ComponentType,
        ecu_name: str,
        priority: int = 5,
        preemptable: bool = True,
    ) -> InstancePlacement:
        """Place an atomic component instance on an ECU."""
        if instance_name in self.placements:
            raise ConfigurationError(
                f"duplicate component instance {instance_name!r}"
            )
        if ecu_name not in self.ecus:
            raise ConfigurationError(f"unknown ECU {ecu_name!r}")
        placement = InstancePlacement(
            instance_name,
            ctype,
            ecu_name,
            TaskMapping(f"task_{instance_name}", priority, preemptable),
        )
        self.placements[instance_name] = placement
        return placement

    def add_composition(
        self,
        instance_prefix: str,
        composition: CompositionType,
        ecu_name: str,
        priority: int = 5,
    ) -> list[InstancePlacement]:
        """Place a composition; it is flattened into atomic instances."""
        instances, connectors = composition.flatten(instance_prefix)
        placements = [
            self.add_component(name, ctype, ecu_name, priority=priority)
            for name, ctype in instances
        ]
        for from_i, from_p, to_i, to_p in connectors:
            self.connect(from_i, from_p, to_i, to_p)
        return placements

    def placement(self, instance_name: str) -> InstancePlacement:
        """Look up a placement by instance name."""
        try:
            return self.placements[instance_name]
        except KeyError:
            raise ConfigurationError(
                f"unknown component instance {instance_name!r}"
            ) from None

    def connect(
        self,
        from_instance: str,
        from_port: str,
        to_instance: str,
        to_port: str,
    ) -> Connector:
        """Add a VFB connector between two instance ports.

        For sender-receiver, ``from`` is the provider.  For
        client-server, ``from`` is the client (required port).
        """
        from_proto = self.placement(from_instance).ctype.port(from_port)
        to_proto = self.placement(to_instance).ctype.port(to_port)
        connector = Connector(from_instance, from_port, to_instance, to_port)
        validate_connector(connector, from_proto, to_proto)
        if connector in self.connectors:
            raise ConfigurationError(f"duplicate connector {connector}")
        self.connectors.append(connector)
        return connector

    def is_cross_ecu(self, connector: Connector) -> bool:
        """Whether a connector spans two ECUs."""
        return (
            self.placement(connector.from_instance).ecu_name
            != self.placement(connector.to_instance).ecu_name
        )

    def validate(self) -> None:
        """Full structural validation; raises on the first inconsistency."""
        if not self.ecus:
            raise ConfigurationError("system has no ECUs")
        for connector in self.connectors:
            from_place = self.placement(connector.from_instance)
            to_place = self.placement(connector.to_instance)
            from_proto = from_place.ctype.port(connector.from_port)
            to_proto = to_place.ctype.port(connector.to_port)
            validate_connector(connector, from_proto, to_proto)
            if self.is_cross_ecu(connector):
                if not from_proto.is_sender_receiver:
                    raise ConfigurationError(
                        f"cross-ECU client-server connector {connector} "
                        f"is not supported; use sender-receiver"
                    )
                ecus = (self.ecus[from_place.ecu_name], self.ecus[to_place.ecu_name])
                if not all(e.on_bus for e in ecus):
                    raise ConfigurationError(
                        f"cross-ECU connector {connector} requires both "
                        f"ECUs on the bus"
                    )
        # Each required S/R element may have at most one writer per
        # element; multiple receivers of one provider are fine.
        seen_receivers: dict[tuple[str, str], str] = {}
        for connector in self.connectors:
            to_proto = self.placement(connector.to_instance).ctype.port(
                connector.to_port
            )
            if not to_proto.is_sender_receiver:
                continue
            key = (connector.to_instance, connector.to_port)
            if key in seen_receivers:
                raise ConfigurationError(
                    f"port {key[0]}.{key[1]} has multiple writers "
                    f"({seen_receivers[key]} and {connector.from_instance})"
                )
            seen_receivers[key] = connector.from_instance

    def cross_ecu_elements(self) -> list[tuple[Connector, str]]:
        """All (connector, element) pairs that need COM signals."""
        out = []
        for connector in self.connectors:
            if not self.is_cross_ecu(connector):
                continue
            proto = self.placement(connector.from_instance).ctype.port(
                connector.from_port
            )
            iface = proto.interface
            assert isinstance(iface, SenderReceiverInterface)
            for element in iface.elements:
                out.append((connector, element.name))
        return out


__all__ = [
    "TaskMapping",
    "EcuDescription",
    "InstancePlacement",
    "SystemDescription",
]
