"""Virtual ports: the PIRTE's static API toward the SW-C ports.

The paper (Sec. 3.1.2-3.1.3) defines virtual ports as the type-dependent
mapping between plug-in ports and SW-C ports.  Four kinds exist here:

* ``RELAY_OUT`` / ``RELAY_IN`` — the two ends of a type II SW-C port
  pair: outgoing plug-in messages get the recipient port id attached and
  are multiplexed over one static byte-carrying SW-C port; incoming
  messages are demultiplexed by that id.
* ``SERVICE_OUT`` / ``SERVICE_IN`` — type III mappings onto typed
  AUTOSAR ports of the built-in software, with format translation
  between the VM's 32-bit values and the AUTOSAR data types.

Type I traffic is not represented as virtual ports: it is handled by the
PIRTE's management path directly, as in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.wire import Reader, Writer
from repro.errors import ContextError


class VirtualPortKind(enum.Enum):
    """Direction/type of a virtual port."""

    RELAY_OUT = "relay_out"
    RELAY_IN = "relay_in"
    SERVICE_OUT = "service_out"
    SERVICE_IN = "service_in"


@dataclass(frozen=True)
class PortGuard:
    """Fault protection policy on a critical outbound signal.

    The paper (Sec. 3.1.1) requires the built-in software to "monitor
    the exposed API and provide fault protection mechanisms for the
    critical signals".  A guard enforces a value range and a minimum
    inter-write interval on one SERVICE_OUT virtual port; violating
    writes are rejected (and counted by the PIRTE) instead of reaching
    the built-in software.

    The guard is only the policy.  Each PIRTE enforces it with its own
    :class:`GuardState`, so one declaration shared by every vehicle of a
    model rate-limits each vehicle's port independently.
    """

    min_value: Optional[int] = None
    max_value: Optional[int] = None
    min_interval_us: int = 0


class GuardState:
    """One PIRTE's enforcement of one :class:`PortGuard`: the time of
    the last admitted write and the violations counted so far."""

    __slots__ = ("guard", "last_accept", "range_violations", "rate_violations")

    def __init__(self, guard: PortGuard) -> None:
        self.guard = guard
        self.last_accept = -(1 << 62)
        self.range_violations = 0
        self.rate_violations = 0

    def check(self, value: int, now: int) -> bool:
        """Whether a write of ``value`` at time ``now`` is admissible."""
        guard = self.guard
        if guard.min_value is not None and value < guard.min_value:
            self.range_violations += 1
            return False
        if guard.max_value is not None and value > guard.max_value:
            self.range_violations += 1
            return False
        if guard.min_interval_us > 0:
            if now - self.last_accept < guard.min_interval_us:
                self.rate_violations += 1
                return False
        self.last_accept = now
        return True

    @property
    def violations(self) -> int:
        return self.range_violations + self.rate_violations


@dataclass(frozen=True)
class VirtualPortSpec:
    """Static declaration of one virtual port (OEM-provided).

    ``swc_port``/``element`` name the SW-C port this virtual port wraps.
    ``to_wire`` converts a VM value into the SW-C element's type
    (SERVICE_OUT); ``from_wire`` converts a received element value into
    a VM value (SERVICE_IN).  Identity int conversion by default.
    """

    name: str
    kind: VirtualPortKind
    swc_port: str
    element: str
    to_wire: Optional[Callable[[int], Any]] = None
    from_wire: Optional[Callable[[Any], int]] = None
    guard: Optional[PortGuard] = None

    def __post_init__(self) -> None:
        if not self.name or not self.swc_port or not self.element:
            raise ContextError(
                "virtual port needs name, swc_port, and element"
            )
        if self.guard is not None and self.kind is not VirtualPortKind.SERVICE_OUT:
            raise ContextError(
                f"virtual port {self.name}: guards protect SERVICE_OUT "
                f"ports only"
            )

    def translate_out(self, value: int) -> Any:
        """VM value -> SW-C element value."""
        if self.to_wire is not None:
            return self.to_wire(value)
        return value

    def translate_in(self, value: Any) -> int:
        """SW-C element value -> VM value."""
        if self.from_wire is not None:
            return self.from_wire(value)
        return int(value)


def encode_relay(recipient_port_id: int, value: int) -> bytes:
    """Type II wire format: recipient id + payload value."""
    return Writer().u16(recipient_port_id).i32(value).getvalue()


def decode_relay(payload: bytes) -> tuple[int, int]:
    """Inverse of :func:`encode_relay`."""
    reader = Reader(payload)
    port_id = reader.u16()
    value = reader.i32()
    reader.expect_end()
    return port_id, value


#: Size in bytes of the type II multiplexing header + value.
RELAY_MESSAGE_SIZE = 6


__all__ = [
    "VirtualPortKind",
    "VirtualPortSpec",
    "PortGuard",
    "GuardState",
    "encode_relay",
    "decode_relay",
    "RELAY_MESSAGE_SIZE",
]
