"""AUTOSAR port interfaces.

An interface is the contract attached to a port.  Every port here is
sender-receiver: its interface groups named, typed data elements.
Interfaces are design-time, immutable objects shared between component
types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.autosar.types import DataType
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DataElement:
    """One named, typed element of a sender-receiver interface.

    ``queued`` selects AUTOSAR's event semantics (a receive queue) over
    the default last-is-best data semantics.
    """

    name: str
    dtype: DataType
    queued: bool = False
    queue_length: int = 16

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("data element needs a non-empty name")
        if self.queued and self.queue_length <= 0:
            raise ConfigurationError(
                f"queued element {self.name} needs a positive queue length"
            )


class SenderReceiverInterface:
    """Data-oriented interface: a set of typed data elements."""

    def __init__(self, name: str, elements: Sequence[DataElement]) -> None:
        if not name:
            raise ConfigurationError("interface needs a non-empty name")
        if not elements:
            raise ConfigurationError(
                f"sender-receiver interface {name} needs >= 1 element"
            )
        names = [e.name for e in elements]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate element names in interface {name}: {names}"
            )
        self.name = name
        self.elements: tuple[DataElement, ...] = tuple(elements)
        self._by_name = {e.name: e for e in self.elements}

    def element(self, name: str) -> DataElement:
        """Look up an element by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(
                f"interface {self.name} has no element {name!r}"
            ) from None

    def compatible_with(self, other: SenderReceiverInterface) -> bool:
        """Same element names, types, and queueing discipline."""
        if len(self.elements) != len(other.elements):
            return False
        for mine in self.elements:
            theirs = other._by_name.get(mine.name)
            if theirs is None or mine.dtype.name != theirs.dtype.name:
                return False
            if mine.queued != theirs.queued:
                return False
        return True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


__all__ = ["DataElement", "SenderReceiverInterface"]
