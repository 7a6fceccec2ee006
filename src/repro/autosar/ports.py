"""SW-C port prototypes and runtime port instances.

Design time: a :class:`PortPrototype` (provided or required) on a
component *type*, referencing a
:class:`~repro.autosar.interfaces.SenderReceiverInterface`.

Run time: a :class:`PortInstance` on a component *instance*, holding the
receive buffers/queues that the RTE reads and fills.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Optional

from repro.autosar.interfaces import DataElement, SenderReceiverInterface
from repro.errors import PortError


class PortDirection(enum.Enum):
    """Whether the component provides or requires the interface."""

    PROVIDED = "provided"
    REQUIRED = "required"


@dataclass(frozen=True)
class PortPrototype:
    """Design-time port declaration on a component type."""

    name: str
    direction: PortDirection
    interface: SenderReceiverInterface

    def __post_init__(self) -> None:
        if not self.name:
            raise PortError("port needs a non-empty name")

    @property
    def is_provided(self) -> bool:
        return self.direction is PortDirection.PROVIDED

    @property
    def is_required(self) -> bool:
        return self.direction is PortDirection.REQUIRED


class _ElementBuffer:
    """Receive-side storage for one data element of an R-port."""

    def __init__(self, element: DataElement) -> None:
        self.element = element
        self.updated = False
        if element.queued:
            self.queue: Optional[Deque[Any]] = deque(maxlen=element.queue_length)
            self.value: Any = None
        else:
            self.queue = None
            self.value = element.dtype.initial_value()

    def put(self, value: Any) -> bool:
        """Store a received value; returns False on queue overflow."""
        self.element.dtype.validate(value)
        if self.queue is not None:
            if len(self.queue) == self.queue.maxlen:
                return False
            self.queue.append(value)
        else:
            self.value = value
        self.updated = True
        return True

    def get_latest(self) -> Any:
        """Last-is-best read; clears the update flag."""
        if self.queue is not None:
            raise PortError(
                f"element {self.element.name} is queued; use receive()"
            )
        self.updated = False
        return self.value

    def receive(self) -> Any:
        """Queued read; raises :class:`PortError` when empty."""
        if self.queue is None:
            raise PortError(
                f"element {self.element.name} is last-is-best; use get_latest()"
            )
        if not self.queue:
            raise PortError(f"no data queued on element {self.element.name}")
        value = self.queue.popleft()
        self.updated = bool(self.queue)
        return value

    def pending(self) -> int:
        """Queued element count (0/1 for last-is-best update flag)."""
        if self.queue is not None:
            return len(self.queue)
        return 1 if self.updated else 0


class PortInstance:
    """Runtime port on a component instance.

    Provided sender-receiver ports have no storage (writes flow through
    the RTE); required ports hold one :class:`_ElementBuffer` per
    interface element.
    """

    def __init__(self, owner_name: str, prototype: PortPrototype) -> None:
        self.owner_name = owner_name
        self.prototype = prototype
        self._buffers: dict[str, _ElementBuffer] = {}
        if prototype.is_required:
            for element in prototype.interface.elements:
                self._buffers[element.name] = _ElementBuffer(element)
        self.writes = 0
        self.overflows = 0

    @property
    def name(self) -> str:
        return self.prototype.name

    @property
    def full_name(self) -> str:
        """Globally unique ``instance.port`` name."""
        return f"{self.owner_name}.{self.prototype.name}"

    def buffer(self, element: str) -> _ElementBuffer:
        """The receive buffer for ``element`` (required S/R ports only)."""
        try:
            return self._buffers[element]
        except KeyError:
            raise PortError(
                f"port {self.full_name} has no receive buffer for "
                f"element {element!r}"
            ) from None

    def deliver(self, element: str, value: Any) -> bool:
        """RTE-side delivery of a value into this port's buffer."""
        ok = self.buffer(element).put(value)
        if ok:
            self.writes += 1
        else:
            self.overflows += 1
        return ok

    def read_latest(self, element: str) -> Any:
        """Application-side last-is-best read."""
        return self.buffer(element).get_latest()

    def receive(self, element: str) -> Any:
        """Application-side queued receive."""
        return self.buffer(element).receive()

    def pending(self, element: str) -> int:
        """Number of unread values for ``element``."""
        return self.buffer(element).pending()

    def __repr__(self) -> str:
        return f"<PortInstance {self.full_name} {self.prototype.direction.value}>"


def provided_port(
    name: str, interface: SenderReceiverInterface
) -> PortPrototype:
    """Shorthand for a provided port prototype."""
    return PortPrototype(name, PortDirection.PROVIDED, interface)


def required_port(
    name: str, interface: SenderReceiverInterface
) -> PortPrototype:
    """Shorthand for a required port prototype."""
    return PortPrototype(name, PortDirection.REQUIRED, interface)


__all__ = [
    "PortDirection",
    "PortPrototype",
    "PortInstance",
    "provided_port",
    "required_port",
]
