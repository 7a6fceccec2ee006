"""AUTOSAR port interfaces: sender-receiver and client-server.

An interface is the contract attached to a port.  Sender-receiver
interfaces group named data elements; client-server interfaces group
named operations.  Interfaces are design-time, immutable objects shared
between component types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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


@dataclass(frozen=True)
class Operation:
    """One operation of a client-server interface.

    ``arguments`` maps argument names to types in call order;
    ``result`` is the return type (None for fire-and-forget).
    """

    name: str
    arguments: tuple[tuple[str, DataType], ...] = ()
    result: Optional[DataType] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("operation needs a non-empty name")


class PortInterface:
    """Base class for port interfaces."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigurationError("interface needs a non-empty name")
        self.name = name

    def compatible_with(self, other: "PortInterface") -> bool:
        """Structural compatibility check used when wiring connectors."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class SenderReceiverInterface(PortInterface):
    """Data-oriented interface: a set of typed data elements."""

    def __init__(self, name: str, elements: Sequence[DataElement]) -> None:
        super().__init__(name)
        if not elements:
            raise ConfigurationError(
                f"sender-receiver interface {name} needs >= 1 element"
            )
        names = [e.name for e in elements]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate element names in interface {name}: {names}"
            )
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

    def has_element(self, name: str) -> bool:
        return name in self._by_name

    def compatible_with(self, other: PortInterface) -> bool:
        """Same element names, types, and queueing discipline."""
        if not isinstance(other, SenderReceiverInterface):
            return False
        if len(self.elements) != len(other.elements):
            return False
        for mine in self.elements:
            if not other.has_element(mine.name):
                return False
            theirs = other.element(mine.name)
            if mine.dtype.name != theirs.dtype.name:
                return False
            if mine.queued != theirs.queued:
                return False
        return True


class ClientServerInterface(PortInterface):
    """Operation-oriented interface: a set of callable operations."""

    def __init__(self, name: str, operations: Sequence[Operation]) -> None:
        super().__init__(name)
        if not operations:
            raise ConfigurationError(
                f"client-server interface {name} needs >= 1 operation"
            )
        names = [o.name for o in operations]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate operation names in interface {name}: {names}"
            )
        self.operations: tuple[Operation, ...] = tuple(operations)
        self._by_name = {o.name: o for o in self.operations}

    def operation(self, name: str) -> Operation:
        """Look up an operation by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(
                f"interface {self.name} has no operation {name!r}"
            ) from None

    def has_operation(self, name: str) -> bool:
        return name in self._by_name

    def compatible_with(self, other: PortInterface) -> bool:
        """Same operation names and argument/result type names."""
        if not isinstance(other, ClientServerInterface):
            return False
        if len(self.operations) != len(other.operations):
            return False
        for mine in self.operations:
            if not other.has_operation(mine.name):
                return False
            theirs = other.operation(mine.name)
            mine_sig = [(n, t.name) for n, t in mine.arguments]
            their_sig = [(n, t.name) for n, t in theirs.arguments]
            if mine_sig != their_sig:
                return False
            mine_res = mine.result.name if mine.result else None
            their_res = theirs.result.name if theirs.result else None
            if mine_res != their_res:
                return False
        return True


__all__ = [
    "DataElement",
    "Operation",
    "PortInterface",
    "SenderReceiverInterface",
    "ClientServerInterface",
]
