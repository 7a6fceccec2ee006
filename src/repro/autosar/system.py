"""System description: the design-time model the RTE is generated from.

A :class:`SystemDescription` collects ECUs, component instances with
their ECU allocation and task priority, and VFB connectors.  It checks
each connector as it is added and the whole system before a build, and
is the single input to :class:`repro.autosar.generator.SystemBuilder`,
mirroring how AUTOSAR description files feed the RTE generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autosar.swc import ComponentType
from repro.autosar.vfb import Connector, validate_connector
from repro.errors import ConfigurationError


@dataclass
class InstancePlacement:
    """A component instance allocated to an ECU.

    The instance's runnables execute in OS task ``task_<instance>`` at
    ``priority``.
    """

    instance_name: str
    ctype: ComponentType
    ecu_name: str
    priority: int = 5


class SystemDescription:
    """The complete design-time system model.

    Every ECU sits on the one CAN bus, so any connector may span ECUs.
    """

    def __init__(self, name: str = "system") -> None:
        self.name = name
        self.ecus: list[str] = []
        self.placements: dict[str, InstancePlacement] = {}
        self.connectors: list[Connector] = []
        self.can_bitrate = 500_000

    def add_ecu(self, name: str) -> None:
        """Declare an ECU."""
        if name in self.ecus:
            raise ConfigurationError(f"duplicate ECU {name!r}")
        self.ecus.append(name)

    def add_component(
        self,
        instance_name: str,
        ctype: ComponentType,
        ecu_name: str,
        priority: int = 5,
    ) -> InstancePlacement:
        """Place an atomic component instance on an ECU."""
        if instance_name in self.placements:
            raise ConfigurationError(
                f"duplicate component instance {instance_name!r}"
            )
        if ecu_name not in self.ecus:
            raise ConfigurationError(f"unknown ECU {ecu_name!r}")
        placement = InstancePlacement(instance_name, ctype, ecu_name, priority)
        self.placements[instance_name] = placement
        return placement

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
        """Add a VFB connector from a provided to a required port."""
        from_proto = self.placement(from_instance).ctype.port(from_port)
        to_proto = self.placement(to_instance).ctype.port(to_port)
        connector = Connector(from_instance, from_port, to_instance, to_port)
        validate_connector(
            connector,
            (from_proto.is_provided, from_proto.interface),
            (to_proto.is_provided, to_proto.interface),
        )
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
        """Whole-system rules; raises on the first inconsistency.

        :meth:`connect` has already checked each connector on its own.
        """
        if not self.ecus:
            raise ConfigurationError("system has no ECUs")
        # Each required S/R element may have at most one writer per
        # element; multiple receivers of one provider are fine.
        seen_receivers: dict[tuple[str, str], str] = {}
        for connector in self.connectors:
            key = (connector.to_instance, connector.to_port)
            if key in seen_receivers:
                raise ConfigurationError(
                    f"port {key[0]}.{key[1]} has multiple writers "
                    f"({seen_receivers[key]} and {connector.from_instance})"
                )
            seen_receivers[key] = connector.from_instance


__all__ = [
    "InstancePlacement",
    "SystemDescription",
]
