"""Management message protocol.

Typed messages exchanged between the trusted server and the ECM, and
relayed over type I SW-C ports between the ECM and plug-in SW-Cs.  The
paper gives message type 0 to installation packages; the remaining codes
cover the life-cycle operations and the external data relay.

Every message encodes to bytes (see :mod:`repro.core.wire`), so link
latency models operate on true message sizes.

Messages are frozen dataclasses whose containers are tuples, so equal
messages are interchangeable: :func:`decode` hands every receiver of
equal bytes the same message object, and the acknowledgements a fleet
repeats are encoded once per distinct value.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Union

from repro.core.context import Ecc, Pic, Plc
from repro.core.wire import Reader, Writer
from repro.errors import ContextError, PackagingError

PROTOCOL_VERSION = 1

# Entries each codec memo keeps (distinct byte strings :func:`decode`
# parsed, distinct ACK messages encoded), least recently used dropped
# first.  A campaign needs a handful at a time.
_CODEC_CACHE_SIZE = 32


class MessageType(enum.Enum):
    """Wire codes of the management protocol."""

    INSTALL = 0          # paper: "e.g. 0 for the installation package"
    ACK = 1
    UNINSTALL = 2
    DATA = 3
    START = 4
    STOP = 5
    DIAG = 6             # diagnostic report (paper Sec. 3.1.3, type I)


class AckStatus(enum.Enum):
    """Result codes carried in ACK messages."""

    OK = 0
    BAD_PACKAGE = 1
    OUT_OF_MEMORY = 2
    UNKNOWN_PLUGIN = 3
    CONTEXT_ERROR = 4
    LIFECYCLE_ERROR = 5


@dataclass(frozen=True)
class InstallMessage:
    """An installation package addressed to one plug-in SW-C.

    Matches the paper's wrapping ``{0, 'OP', ECU2, op.pkg}`` where the
    package contains PIC, PLC, (optionally ECC) and the binary.
    """

    plugin_name: str
    version: str
    target_ecu: str
    target_swc: str
    pic: Pic
    plc: Plc
    ecc: Ecc
    binary: bytes

    msg_type = MessageType.INSTALL

    def encode(self) -> bytes:
        writer = Writer()
        writer.u8(self.msg_type.value).u8(PROTOCOL_VERSION)
        writer.string(self.plugin_name)
        writer.string(self.version)
        writer.string(self.target_ecu)
        writer.string(self.target_swc)
        self.pic.encode(writer)
        self.plc.encode(writer)
        self.ecc.encode(writer)
        writer.blob(self.binary)
        return writer.getvalue()

    @classmethod
    def decode_body(cls, reader: Reader) -> "InstallMessage":
        message = cls(
            plugin_name=reader.string(),
            version=reader.string(),
            target_ecu=reader.string(),
            target_swc=reader.string(),
            pic=Pic.decode(reader),
            plc=Plc.decode(reader),
            ecc=Ecc.decode(reader),
            binary=reader.blob(),
        )
        reader.expect_end()
        return message


@dataclass(frozen=True)
class AckMessage:
    """Acknowledgement of a management operation."""

    plugin_name: str
    target_swc: str
    op: MessageType
    status: AckStatus
    detail: str = ""

    msg_type = MessageType.ACK

    @property
    def ok(self) -> bool:
        return self.status is AckStatus.OK

    @functools.lru_cache(maxsize=_CODEC_CACHE_SIZE)
    def encode(self) -> bytes:
        writer = Writer()
        writer.u8(self.msg_type.value).u8(PROTOCOL_VERSION)
        writer.string(self.plugin_name)
        writer.string(self.target_swc)
        writer.u8(self.op.value)
        writer.u8(self.status.value)
        writer.string(self.detail)
        return writer.getvalue()

    @classmethod
    def decode_body(cls, reader: Reader) -> "AckMessage":
        message = cls(
            plugin_name=reader.string(),
            target_swc=reader.string(),
            op=MessageType(reader.u8()),
            status=AckStatus(reader.u8()),
            detail=reader.string(),
        )
        reader.expect_end()
        return message


@dataclass(frozen=True)
class UninstallMessage:
    """Request to remove an installed plug-in."""

    plugin_name: str
    target_ecu: str
    target_swc: str

    msg_type = MessageType.UNINSTALL

    def encode(self) -> bytes:
        writer = Writer()
        writer.u8(self.msg_type.value).u8(PROTOCOL_VERSION)
        writer.string(self.plugin_name)
        writer.string(self.target_ecu)
        writer.string(self.target_swc)
        return writer.getvalue()

    @classmethod
    def decode_body(cls, reader: Reader) -> "UninstallMessage":
        message = cls(reader.string(), reader.string(), reader.string())
        reader.expect_end()
        return message


@dataclass(frozen=True)
class LifecycleMessage:
    """START/STOP request for an installed plug-in."""

    op: MessageType
    plugin_name: str
    target_ecu: str
    target_swc: str

    def __post_init__(self) -> None:
        if self.op not in (MessageType.START, MessageType.STOP):
            raise PackagingError(f"lifecycle op must be START or STOP")

    @property
    def msg_type(self) -> MessageType:
        return self.op

    def encode(self) -> bytes:
        writer = Writer()
        writer.u8(self.op.value).u8(PROTOCOL_VERSION)
        writer.string(self.plugin_name)
        writer.string(self.target_ecu)
        writer.string(self.target_swc)
        return writer.getvalue()

    @classmethod
    def decode_body(cls, op: MessageType, reader: Reader) -> "LifecycleMessage":
        message = cls(op, reader.string(), reader.string(), reader.string())
        reader.expect_end()
        return message


@dataclass(frozen=True)
class DataMessage:
    """External data relayed to/from a plug-in port.

    ``target_ecu`` routes the relay hop (ECM -> plug-in SW-C);
    ``port_id`` is the SW-C-scope plug-in port id from the ECC.
    """

    target_ecu: str
    target_swc: str
    port_id: int
    value: int

    msg_type = MessageType.DATA

    def encode(self) -> bytes:
        writer = Writer()
        writer.u8(self.msg_type.value).u8(PROTOCOL_VERSION)
        writer.string(self.target_ecu)
        writer.string(self.target_swc)
        writer.u16(self.port_id)
        writer.i32(self.value)
        return writer.getvalue()

    @classmethod
    def decode_body(cls, reader: Reader) -> "DataMessage":
        message = cls(
            reader.string(), reader.string(), reader.u16(), reader.i32()
        )
        reader.expect_end()
        return message


@dataclass(frozen=True)
class PluginHealth:
    """Health snapshot of one installed plug-in."""

    plugin_name: str
    state: str
    activations: int
    traps: int
    fuel_used: int


@dataclass(frozen=True)
class DiagMessage:
    """Diagnostic report from one plug-in SW-C.

    The paper names "transfer of diagnostic messages" as a type I use
    case; reports flow SW-C -> ECM -> trusted server.
    """

    source_ecu: str
    source_swc: str
    memory_used_blocks: int
    memory_free_blocks: int
    plugins: tuple[PluginHealth, ...]

    msg_type = MessageType.DIAG

    def encode(self) -> bytes:
        writer = Writer()
        writer.u8(self.msg_type.value).u8(PROTOCOL_VERSION)
        writer.string(self.source_ecu)
        writer.string(self.source_swc)
        writer.u32(self.memory_used_blocks)
        writer.u32(self.memory_free_blocks)
        writer.u16(len(self.plugins))
        for health in self.plugins:
            writer.string(health.plugin_name)
            writer.string(health.state)
            writer.u32(health.activations)
            writer.u32(health.traps)
            writer.u32(health.fuel_used)
        return writer.getvalue()

    @classmethod
    def decode_body(cls, reader: Reader) -> "DiagMessage":
        source_ecu = reader.string()
        source_swc = reader.string()
        used = reader.u32()
        free = reader.u32()
        count = reader.u16()
        plugins = tuple(
            PluginHealth(
                reader.string(), reader.string(),
                reader.u32(), reader.u32(), reader.u32(),
            )
            for __ in range(count)
        )
        message = cls(source_ecu, source_swc, used, free, plugins)
        reader.expect_end()
        return message


Message = Union[
    InstallMessage,
    AckMessage,
    UninstallMessage,
    LifecycleMessage,
    DataMessage,
    DiagMessage,
]


@functools.lru_cache(maxsize=_CODEC_CACHE_SIZE)
def decode(raw: bytes) -> Message:
    """Parse any management message from its wire form.

    Memoized on the bytes: the result is a frozen value, so receivers
    of equal bytes share one message.  Malformed input raises
    :class:`PackagingError` on every call (an exception is never
    cached), whether a length, an enum code, a string's UTF-8 or a
    context entry is bad.
    """
    try:
        return _decode(Reader(raw))
    except (ValueError, ContextError) as exc:
        raise PackagingError(f"malformed message: {exc}") from exc


def _decode(reader: Reader) -> Message:
    msg_type = MessageType(reader.u8())
    version = reader.u8()
    if version != PROTOCOL_VERSION:
        raise PackagingError(f"unsupported protocol version {version}")
    if msg_type is MessageType.INSTALL:
        return InstallMessage.decode_body(reader)
    if msg_type is MessageType.ACK:
        return AckMessage.decode_body(reader)
    if msg_type is MessageType.UNINSTALL:
        return UninstallMessage.decode_body(reader)
    if msg_type in (MessageType.START, MessageType.STOP):
        return LifecycleMessage.decode_body(msg_type, reader)
    if msg_type is MessageType.DIAG:
        return DiagMessage.decode_body(reader)
    return DataMessage.decode_body(reader)


__all__ = [
    "PROTOCOL_VERSION",
    "MessageType",
    "AckStatus",
    "InstallMessage",
    "AckMessage",
    "UninstallMessage",
    "LifecycleMessage",
    "DataMessage",
    "PluginHealth",
    "DiagMessage",
    "Message",
    "decode",
]
