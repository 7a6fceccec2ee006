"""Virtual Function Bus: the design-time connector model.

The VFB view is location-transparent: connectors join component instance
ports without saying where the instances run.  The RTE generator later
maps each connector either to a local route (same ECU) or to COM signals
over the vehicle network (different ECUs) — the components themselves
never change, which is the AUTOSAR property the paper's plug-in model
mirrors at the plug-in level.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autosar.interfaces import SenderReceiverInterface
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Connector:
    """One VFB assembly connector between two instance ports."""

    from_instance: str
    from_port: str
    to_instance: str
    to_port: str

    def __str__(self) -> str:
        return (
            f"{self.from_instance}.{self.from_port} -> "
            f"{self.to_instance}.{self.to_port}"
        )


def validate_connector(
    connector: Connector,
    from_end: tuple[bool, SenderReceiverInterface],
    to_end: tuple[bool, SenderReceiverInterface],
) -> None:
    """Check direction and interface compatibility of a connector.

    Each end is its port's ``(provided, interface)``, so a vehicle spec
    is checked by the same rule as a system description without
    building component types.  Sender-receiver connectors run
    provided -> required.
    """
    from_provided, from_interface = from_end
    to_provided, to_interface = to_end
    if not from_provided or to_provided:
        raise ConfigurationError(
            f"S/R connector {connector} must run provided -> required"
        )
    if not from_interface.compatible_with(to_interface):
        raise ConfigurationError(
            f"connector {connector}: incompatible interfaces "
            f"({from_interface.name} vs {to_interface.name})"
        )


__all__ = ["Connector", "validate_connector"]
