"""Deployment contexts: PIC, PLC, and ECC.

The contexts are the paper's central configuration mechanism: they are
generated by the trusted server for a specific (APP, vehicle) pair,
shipped with the plug-in binaries, stored in the PIRTE, and drive all
dynamic port linking.

* **PIC** (Port Initialization Context): maps developer-chosen plug-in
  port names to SW-C-scope unique port ids, in local-index order (the
  VM's ``RDPORT 2`` refers to the third PIC entry).
* **PLC** (Port Linking Context): one entry per plug-in port describing
  its connection — to another plug-in port on the same SW-C, to a
  virtual port, to a virtual port with a remote recipient port id (the
  paper's ``P2-V0.P0`` notation), or deliberately unconnected
  (PIRTE-direct, the paper's ``P0-`` posts).
* **ECC** (External Connection Context): for externally communicating
  plug-ins, maps an external endpoint and message name to the recipient
  ECU and plug-in port id.

All three have exact byte encodings used inside installation packages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.wire import Reader, Writer
from repro.errors import ContextError


@dataclass(frozen=True)
class PortInit:
    """One PIC entry: plug-in port name and its SW-C-unique id."""

    name: str
    port_id: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ContextError("PIC entry needs a port name")
        if not 0 <= self.port_id <= 0xFFFF:
            raise ContextError(f"port id {self.port_id} outside u16 range")


@dataclass(frozen=True)
class Pic:
    """Port Initialization Context: ordered port name/id mapping."""

    entries: tuple[PortInit, ...]

    def __post_init__(self) -> None:
        names = [e.name for e in self.entries]
        ids = [e.port_id for e in self.entries]
        if len(set(names)) != len(names):
            raise ContextError(f"duplicate port names in PIC: {names}")
        if len(set(ids)) != len(ids):
            raise ContextError(f"duplicate port ids in PIC: {ids}")

    def port_id(self, local_index: int) -> int:
        """Global id of the port at ``local_index``."""
        if not 0 <= local_index < len(self.entries):
            raise ContextError(
                f"local port index {local_index} outside PIC of "
                f"{len(self.entries)} ports"
            )
        return self.entries[local_index].port_id

    def local_index(self, port_id: int) -> int:
        """Local VM index of the port with global ``port_id``."""
        for index, entry in enumerate(self.entries):
            if entry.port_id == port_id:
                return index
        raise ContextError(f"PIC has no port with id {port_id}")

    def id_by_name(self, name: str) -> int:
        """Global id of the port named ``name``."""
        for entry in self.entries:
            if entry.name == name:
                return entry.port_id
        raise ContextError(f"PIC has no port named {name!r}")

    def __len__(self) -> int:
        return len(self.entries)

    def encode(self, writer: Writer) -> None:
        writer.u16(len(self.entries))
        for entry in self.entries:
            writer.string(entry.name)
            writer.u16(entry.port_id)

    @classmethod
    def decode(cls, reader: Reader) -> "Pic":
        count = reader.u16()
        entries = tuple(
            PortInit(reader.string(), reader.u16()) for __ in range(count)
        )
        return cls(entries)


class LinkKind(enum.Enum):
    """How a plug-in port is connected (the PLC target grammar)."""

    UNCONNECTED = 0       # "P0-"      : PIRTE communicates directly
    PLUGIN_PORT = 1       # "P0-P7"    : another plug-in port, same SW-C
    VIRTUAL = 2           # "P3-V5"    : a virtual port
    VIRTUAL_REMOTE = 3    # "P2-V0.P0" : virtual port + remote recipient id


@dataclass(frozen=True)
class PlcLink:
    """One PLC entry: a plug-in port's connection."""

    source_port_id: int
    kind: LinkKind
    target_virtual: str = ""
    target_port_id: int = 0

    def __post_init__(self) -> None:
        if self.kind in (LinkKind.VIRTUAL, LinkKind.VIRTUAL_REMOTE):
            if not self.target_virtual:
                raise ContextError(
                    f"link for port {self.source_port_id} needs a virtual "
                    f"port name"
                )
        if self.kind is LinkKind.PLUGIN_PORT and self.target_virtual:
            raise ContextError("plugin-port link must not name a virtual port")

    def describe(self) -> str:
        """Paper-style rendering, e.g. ``P2-V0.P0``."""
        if self.kind is LinkKind.UNCONNECTED:
            return f"P{self.source_port_id}-"
        if self.kind is LinkKind.PLUGIN_PORT:
            return f"P{self.source_port_id}-P{self.target_port_id}"
        if self.kind is LinkKind.VIRTUAL:
            return f"P{self.source_port_id}-{self.target_virtual}"
        return (
            f"P{self.source_port_id}-{self.target_virtual}."
            f"P{self.target_port_id}"
        )


@dataclass(frozen=True)
class Plc:
    """Port Linking Context: the connection of every plug-in port."""

    links: tuple[PlcLink, ...]

    def __post_init__(self) -> None:
        sources = [l.source_port_id for l in self.links]
        if len(set(sources)) != len(sources):
            raise ContextError(f"duplicate source ports in PLC: {sources}")

    def link_for(self, port_id: int) -> Optional[PlcLink]:
        """The link whose source is ``port_id``, if any."""
        for link in self.links:
            if link.source_port_id == port_id:
                return link
        return None

    def links_to_virtual(self, virtual_name: str) -> list[PlcLink]:
        """All links targeting the named virtual port."""
        return [
            link
            for link in self.links
            if link.kind in (LinkKind.VIRTUAL, LinkKind.VIRTUAL_REMOTE)
            and link.target_virtual == virtual_name
        ]

    def describe(self) -> str:
        """Paper-style rendering: ``{P0-, P1-, P2-V0.P0}``."""
        return "{" + ", ".join(l.describe() for l in self.links) + "}"

    def encode(self, writer: Writer) -> None:
        writer.u16(len(self.links))
        for link in self.links:
            writer.u16(link.source_port_id)
            writer.u8(link.kind.value)
            writer.string(link.target_virtual)
            writer.u16(link.target_port_id)

    @classmethod
    def decode(cls, reader: Reader) -> "Plc":
        count = reader.u16()
        links = []
        for __ in range(count):
            source = reader.u16()
            kind = LinkKind(reader.u8())
            virtual = reader.string()
            target = reader.u16()
            links.append(PlcLink(source, kind, virtual, target))
        return cls(tuple(links))


@dataclass(frozen=True)
class EccEntry:
    """One ECC post: external endpoint -> in-vehicle destination.

    Mirrors the paper's ``{111.22.33.44:56789, ECU1, 'Wheels', P0}``.
    """

    endpoint: str
    recipient_ecu: str
    message_name: str
    port_id: int

    def __post_init__(self) -> None:
        if not self.endpoint or not self.message_name or not self.recipient_ecu:
            raise ContextError("ECC entry needs endpoint, ECU and message name")


@dataclass(frozen=True)
class Ecc:
    """External Connection Context."""

    entries: tuple[EccEntry, ...]

    def __post_init__(self) -> None:
        keys = [(e.endpoint, e.message_name) for e in self.entries]
        if len(set(keys)) != len(keys):
            raise ContextError("duplicate (endpoint, message) pairs in ECC")

    def route_for(self, message_name: str) -> Optional[EccEntry]:
        """The entry handling an inbound external ``message_name``."""
        for entry in self.entries:
            if entry.message_name == message_name:
                return entry
        return None

    def entry_for_port(self, port_id: int, ecu: str) -> Optional[EccEntry]:
        """The entry associated with an outbound plug-in port."""
        for entry in self.entries:
            if entry.port_id == port_id and entry.recipient_ecu == ecu:
                return entry
        return None

    def endpoints(self) -> list[str]:
        """Distinct external endpoints referenced by this ECC."""
        seen: list[str] = []
        for entry in self.entries:
            if entry.endpoint not in seen:
                seen.append(entry.endpoint)
        return seen

    def encode(self, writer: Writer) -> None:
        writer.u16(len(self.entries))
        for entry in self.entries:
            writer.string(entry.endpoint)
            writer.string(entry.recipient_ecu)
            writer.string(entry.message_name)
            writer.u16(entry.port_id)

    @classmethod
    def decode(cls, reader: Reader) -> "Ecc":
        count = reader.u16()
        entries = tuple(
            EccEntry(reader.string(), reader.string(), reader.string(), reader.u16())
            for __ in range(count)
        )
        return cls(entries)


EMPTY_ECC = Ecc(())


__all__ = [
    "PortInit",
    "Pic",
    "LinkKind",
    "PlcLink",
    "Plc",
    "EccEntry",
    "Ecc",
    "EMPTY_ECC",
]
