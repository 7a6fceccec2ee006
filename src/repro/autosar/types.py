"""AUTOSAR application data types.

A small but faithful slice of the AUTOSAR type system: fixed-width scalar
types with range checking and little-endian byte encoding (what COM packs
into PDUs), plus a variable-length byte-array type used by the dynamic
component model to ship opaque plug-in payloads through standard ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

from repro.errors import ConfigurationError


class DataType:
    """Base class of all application data types.

    Concrete subclasses are dataclasses that define a ``name`` field;
    the base deliberately declares no attributes so dataclass field
    ordering in subclasses is unconstrained.
    """

    def validate(self, value: Any) -> None:
        """Raise :class:`ValueError` when ``value`` is not representable."""
        raise NotImplementedError

    def encode(self, value: Any) -> bytes:
        """Serialize ``value`` to its wire representation."""
        raise NotImplementedError

    def decode(self, data: bytes) -> Any:
        """Inverse of :meth:`encode`."""
        raise NotImplementedError

    @property
    def fixed_size(self) -> bool:
        """Whether the wire representation has a constant byte length."""
        return True

    def initial_value(self) -> Any:
        """Default value used to initialise receiver buffers."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{self.name}>"


@dataclass(frozen=True, repr=False)
class IntegerType(DataType):
    """Fixed-width two's-complement or unsigned integer."""

    name: str
    bits: int
    signed: bool

    def __post_init__(self) -> None:
        if self.bits not in (8, 16, 32, 64):
            raise ConfigurationError(f"unsupported integer width {self.bits}")

    @property
    def low(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def high(self) -> int:
        if self.signed:
            return (1 << (self.bits - 1)) - 1
        return (1 << self.bits) - 1

    def validate(self, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{self.name} requires an int (got {value!r})")
        if not self.low <= value <= self.high:
            raise ValueError(
                f"{value} outside {self.name} range [{self.low}, {self.high}]"
            )

    def encode(self, value: int) -> bytes:
        self.validate(value)
        return value.to_bytes(self.bits // 8, "little", signed=self.signed)

    def decode(self, data: bytes) -> int:
        if len(data) != self.bits // 8:
            raise ValueError(
                f"{self.name} expects {self.bits // 8} bytes, got {len(data)}"
            )
        return int.from_bytes(data, "little", signed=self.signed)

    def initial_value(self) -> int:
        return 0


@dataclass(frozen=True, repr=False)
class BooleanType(DataType):
    """One-byte boolean."""

    name: str = "boolean"

    def validate(self, value: Any) -> None:
        if not isinstance(value, bool):
            raise ValueError(f"boolean required (got {value!r})")

    def encode(self, value: bool) -> bytes:
        self.validate(value)
        return b"\x01" if value else b"\x00"

    def decode(self, data: bytes) -> bool:
        if len(data) != 1:
            raise ValueError(f"boolean expects 1 byte, got {len(data)}")
        return data != b"\x00"

    def initial_value(self) -> bool:
        return False


@dataclass(frozen=True, repr=False)
class BytesType(DataType):
    """Variable-length opaque byte array, bounded by ``max_length``.

    This is the carrier type for the dynamic component model: plug-in
    binaries, contexts, and multiplexed plug-in messages all travel as
    ``BytesType`` elements through ordinary SW-C ports, exactly as the
    paper's type I/II ports carry opaque plug-in data.
    """

    name: str = "bytes"
    max_length: int = 65_535

    def validate(self, value: Any) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise ValueError(f"{self.name} requires bytes (got {type(value)})")
        if len(value) > self.max_length:
            raise ValueError(
                f"payload of {len(value)} bytes exceeds {self.name} "
                f"max of {self.max_length}"
            )

    def encode(self, value: Union[bytes, bytearray]) -> bytes:
        self.validate(value)
        return bytes(value)

    def decode(self, data: bytes) -> bytes:
        if len(data) > self.max_length:
            raise ValueError(f"{len(data)} bytes exceeds max {self.max_length}")
        return bytes(data)

    @property
    def fixed_size(self) -> bool:
        return False

    def initial_value(self) -> bytes:
        return b""


UINT8 = IntegerType("uint8", 8, signed=False)
UINT16 = IntegerType("uint16", 16, signed=False)
UINT32 = IntegerType("uint32", 32, signed=False)
INT8 = IntegerType("sint8", 8, signed=True)
INT16 = IntegerType("sint16", 16, signed=True)
INT32 = IntegerType("sint32", 32, signed=True)
BOOL = BooleanType()
BYTES = BytesType()


__all__ = [
    "DataType",
    "IntegerType",
    "BooleanType",
    "BytesType",
    "UINT8",
    "UINT16",
    "UINT32",
    "INT8",
    "INT16",
    "INT32",
    "BOOL",
    "BYTES",
]
