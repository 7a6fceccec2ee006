"""Data model of the trusted server (paper Fig. 2).

User-side entities: :class:`User`, :class:`Vehicle` with its
:class:`VehicleConf` (hardware configuration, built-in software
configuration, installed-APP records).

Developer-side entities: :class:`App` with its plug-in binaries and one
or more :class:`SwConf` deployment descriptors describing, per vehicle
model, where the plug-ins go and how their ports connect.
"""

from __future__ import annotations

import base64
import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.virtual_ports import VirtualPortKind
from repro.errors import ConfigurationError


# -- user / vehicle side -----------------------------------------------------


@dataclass
class User:
    """A registered user of the plug-in portal."""

    user_id: str
    name: str
    vehicles: list[str] = field(default_factory=list)  # VINs


@dataclass(frozen=True)
class VirtualPortDesc:
    """One virtual port of a plug-in SW-C, as exposed by the OEM.

    ``peer_swc`` names the opposite plug-in SW-C for relay ports (the
    server needs it to pick the right type II pair when translating
    cross-SW-C connections into VIRTUAL_REMOTE links).
    """

    name: str
    kind: VirtualPortKind
    peer_swc: str = ""


@dataclass(frozen=True)
class PluginSwcDesc:
    """One plug-in SW-C of the vehicle's exposed API (SystemSW conf)."""

    swc_name: str
    ecu_name: str
    virtual_ports: tuple[VirtualPortDesc, ...] = ()
    vm_memory_bytes: int = 32_768

    def virtual_port(self, name: str) -> Optional[VirtualPortDesc]:
        for port in self.virtual_ports:
            if port.name == name:
                return port
        return None

    def relay_toward(self, peer_swc: str) -> Optional[VirtualPortDesc]:
        """The relay-out virtual port whose pair reaches ``peer_swc``."""
        for port in self.virtual_ports:
            if (
                port.kind is VirtualPortKind.RELAY_OUT
                and port.peer_swc == peer_swc
            ):
                return port
        return None


@dataclass(frozen=True)
class EcuHw:
    """One ECU in the hardware configuration."""

    name: str
    cpu_class: str = "generic"


@dataclass(frozen=True)
class HwConf:
    """Hardware configuration of a vehicle (HW conf module)."""

    model: str
    ecus: tuple[EcuHw, ...]

    def has_ecu(self, name: str) -> bool:
        return any(e.name == name for e in self.ecus)


@dataclass(frozen=True)
class SystemSwConf:
    """Built-in software configuration: the exposed plug-in API."""

    swcs: tuple[PluginSwcDesc, ...]

    def swc(self, name: str) -> Optional[PluginSwcDesc]:
        for desc in self.swcs:
            if desc.swc_name == name:
                return desc
        return None


class InstallStatus(enum.Enum):
    """Server-side status of an APP on one vehicle."""

    PENDING = "pending"            # packages pushed, awaiting acks
    ACTIVE = "active"              # all installs acked OK
    FAILED = "failed"              # at least one negative ack
    REMOVING = "removing"          # uninstall pushed, awaiting acks


@dataclass
class InstalledPlugin:
    """Record of one deployed plug-in (InstalledAPP row detail).

    ``acked`` records a positive installation acknowledgement;
    ``nacked`` a negative one.  Both False means the vehicle has not
    answered yet (in flight, offline, or lost) — campaign health gates
    need that three-way distinction.
    """

    plugin_name: str
    swc_name: str
    ecu_name: str
    port_ids: tuple[int, ...]
    acked: bool = False
    nacked: bool = False


@dataclass
class InstalledApp:
    """One APP's installation record on one vehicle."""

    app_name: str
    version: str
    status: InstallStatus
    plugins: list[InstalledPlugin] = field(default_factory=list)

    def plugin(self, name: str) -> Optional[InstalledPlugin]:
        for record in self.plugins:
            if record.plugin_name == name:
                return record
        return None

    def all_acked(self) -> bool:
        return all(record.acked for record in self.plugins)


@dataclass
class VehicleConf:
    """The vehicle's complete configuration (Vehicle Conf module)."""

    hw: HwConf
    system_sw: SystemSwConf
    installed: dict[str, InstalledApp] = field(default_factory=dict)

    def used_port_ids(self, swc_name: str) -> set[int]:
        """Port ids already allocated in ``swc_name`` by installed APPs."""
        used: set[int] = set()
        for app in self.installed.values():
            for record in app.plugins:
                if record.swc_name == swc_name:
                    used.update(record.port_ids)
        return used


@dataclass
class Vehicle:
    """A registered vehicle."""

    vin: str
    model: str
    conf: VehicleConf
    owner: Optional[str] = None  # user_id
    online: bool = False
    #: Deployment region the OEM registered the vehicle under (an
    #: arbitrary sharding attribute; empty when the OEM declared none).
    #: FleetSelector queries and wave scheduling key on it.
    region: str = ""
    #: Latest diagnostic report per plug-in SW-C (DiagMessage objects).
    health: dict[str, object] = field(default_factory=dict)
    #: app_name -> rejection reasons of the last failed update redeploy
    #: (the old version was removed, the new one refused): the
    #: queryable trace distinguishing this from a clean uninstall.
    #: Cleared when the app later deploys successfully.
    update_failures: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class CampaignRecord:
    """One staged rollout as a database entity.

    Persists everything the control plane needs to list, query, and —
    after a simulated server restart — resume a campaign: the
    serialized spec and fault plan (``None`` when the spec used an
    opaque callable selector and could not be serialized), the
    lifecycle status, and the final report rendering.
    """

    campaign_id: str
    app_name: str
    owner: str = ""
    #: staged | running | interrupted | succeeded | rolled_back |
    #: halted | timed_out
    status: str = "staged"
    created_us: int = 0
    started_us: Optional[int] = None
    finished_us: Optional[int] = None
    spec: Optional[dict] = None
    faults: Optional[dict] = None
    report: Optional[dict] = None
    notes: list[str] = field(default_factory=list)

    @property
    def persistable(self) -> bool:
        return self.spec is not None

    def to_dict(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "app_name": self.app_name,
            "owner": self.owner,
            "status": self.status,
            "created_us": self.created_us,
            "started_us": self.started_us,
            "finished_us": self.finished_us,
            "spec": self.spec,
            "faults": self.faults,
            "report": self.report,
            "notes": list(self.notes),
        }


# -- developer side ------------------------------------------------------------


@dataclass(frozen=True)
class PluginDescriptor:
    """One plug-in of an APP: its binary and declared ports."""

    name: str
    binary: bytes
    port_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("plug-in descriptor needs a name")
        if len(set(self.port_names)) != len(self.port_names):
            raise ConfigurationError(
                f"duplicate port names on plug-in {self.name}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "binary_b64": base64.b64encode(self.binary).decode("ascii"),
            "port_names": list(self.port_names),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PluginDescriptor":
        return cls(
            name=data["name"],
            binary=base64.b64decode(data["binary_b64"]),
            port_names=tuple(data.get("port_names") or ()),
        )


class ConnectionKind(enum.Enum):
    """Connection grammar of a SwConf."""

    VIRTUAL = "virtual"          # plug-in port -> a virtual port
    PLUGIN = "plugin"            # plug-in port -> another plug-in port
    UNCONNECTED = "unconnected"  # PIRTE-direct


@dataclass(frozen=True)
class ConnectionSpec:
    """One port connection in a deployment descriptor."""

    kind: ConnectionKind
    plugin: str
    port: str
    target_virtual: str = ""
    target_plugin: str = ""
    target_port: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "plugin": self.plugin,
            "port": self.port,
            "target_virtual": self.target_virtual,
            "target_plugin": self.target_plugin,
            "target_port": self.target_port,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConnectionSpec":
        return cls(
            kind=ConnectionKind(data["kind"]),
            plugin=data["plugin"],
            port=data["port"],
            target_virtual=data.get("target_virtual", ""),
            target_plugin=data.get("target_plugin", ""),
            target_port=data.get("target_port", ""),
        )


@dataclass(frozen=True)
class ExternalSpec:
    """One external route: endpoint + message name -> plug-in port."""

    endpoint: str
    message_name: str
    plugin: str
    port: str

    def to_dict(self) -> dict:
        return {
            "endpoint": self.endpoint,
            "message_name": self.message_name,
            "plugin": self.plugin,
            "port": self.port,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExternalSpec":
        return cls(
            endpoint=data["endpoint"],
            message_name=data["message_name"],
            plugin=data["plugin"],
            port=data["port"],
        )


@dataclass(frozen=True)
class SwConf:
    """Deployment descriptor of an APP for one vehicle model."""

    model: str
    placements: tuple[tuple[str, str], ...]  # (plugin_name, swc_name)
    connections: tuple[ConnectionSpec, ...] = ()
    externals: tuple[ExternalSpec, ...] = ()

    def swc_for(self, plugin_name: str) -> Optional[str]:
        for plugin, swc in self.placements:
            if plugin == plugin_name:
                return swc
        return None

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "placements": [list(pair) for pair in self.placements],
            "connections": [c.to_dict() for c in self.connections],
            "externals": [e.to_dict() for e in self.externals],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SwConf":
        return cls(
            model=data["model"],
            placements=tuple(
                (plugin, swc) for plugin, swc in data.get("placements") or []
            ),
            connections=tuple(
                ConnectionSpec.from_dict(c)
                for c in data.get("connections") or []
            ),
            externals=tuple(
                ExternalSpec.from_dict(e) for e in data.get("externals") or []
            ),
        )


@dataclass
class App:
    """An application: plug-ins plus deployment descriptors."""

    name: str
    version: str
    plugins: dict[str, PluginDescriptor]
    sw_confs: list[SwConf] = field(default_factory=list)
    dependencies: tuple[str, ...] = ()  # required APP names
    conflicts: tuple[str, ...] = ()     # conflicting APP names

    def conf_for_model(self, model: str) -> Optional[SwConf]:
        for conf in self.sw_confs:
            if conf.model == model:
                return conf
        return None

    def total_binary_size(self) -> int:
        return sum(len(p.binary) for p in self.plugins.values())

    def to_dict(self) -> dict:
        """Wire form for HTTP upload; binaries travel base64-encoded."""
        return {
            "name": self.name,
            "version": self.version,
            "plugins": {
                name: descriptor.to_dict()
                for name, descriptor in sorted(self.plugins.items())
            },
            "sw_confs": [conf.to_dict() for conf in self.sw_confs],
            "dependencies": list(self.dependencies),
            "conflicts": list(self.conflicts),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "App":
        return cls(
            name=data["name"],
            version=data.get("version", ""),
            plugins={
                name: PluginDescriptor.from_dict(descriptor)
                for name, descriptor in (data.get("plugins") or {}).items()
            },
            sw_confs=[
                SwConf.from_dict(conf) for conf in data.get("sw_confs") or []
            ],
            dependencies=tuple(data.get("dependencies") or ()),
            conflicts=tuple(data.get("conflicts") or ()),
        )


__all__ = [
    "CampaignRecord",
    "User",
    "VirtualPortDesc",
    "PluginSwcDesc",
    "EcuHw",
    "HwConf",
    "SystemSwConf",
    "InstallStatus",
    "InstalledPlugin",
    "InstalledApp",
    "VehicleConf",
    "Vehicle",
    "PluginDescriptor",
    "ConnectionKind",
    "ConnectionSpec",
    "ExternalSpec",
    "SwConf",
    "App",
]
