"""Context generation: deployment descriptors -> PIC/PLC/ECC.

The paper's server "creates a PIC context by assigning SW-C-scope
unique ids to the plug-in ports, using the knowledge about the already
installed plug-ins", then translates the port connection information of
the SW conf into a PLC, taking "special care with the plug-in ports
that will be connected to plug-ins located in other SW-Cs" (the
recipient's port ids are embedded into the sender's context), and
finally prepares an ECC package for externally communicating plug-ins.

A package set is a pure function of those inputs.  :class:`PackagePlans`
derives and encodes each distinct set once and shares it among the
vehicles it fits; :func:`generate_packages` is the derivation itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.context import (
    Ecc,
    EccEntry,
    LinkKind,
    Pic,
    Plc,
    PlcLink,
    PortInit,
)
from repro.core.messages import InstallMessage
from repro.errors import CompatibilityError
from repro.server.models import App, ConnectionKind, SwConf, Vehicle


# Distinct package sets one :class:`PackagePlans` keeps; the oldest is
# dropped first.
_PLAN_CACHE_SIZE = 128


@dataclass(frozen=True)
class GeneratedPackage:
    """One install message plus its allocation bookkeeping.

    Immutable, so one package can go to every vehicle whose plan key is
    equal.  :attr:`raw` is the encoded message, built on first use.
    """

    message: InstallMessage
    port_ids: tuple[int, ...]

    @cached_property
    def raw(self) -> bytes:
        return self.message.encode()


class PortIdAllocator:
    """Allocates SW-C-scope unique plug-in port ids per SW-C."""

    def __init__(self, vehicle: Vehicle) -> None:
        self._conf = vehicle.conf
        self._used: dict[str, set[int]] = {}
        self._cursor: dict[str, int] = {}

    def allocate(self, swc_name: str) -> int:
        used = self._used.get(swc_name)
        if used is None:
            used = self._used[swc_name] = self._conf.used_port_ids(swc_name)
        cursor = self._cursor.get(swc_name, 0)
        while cursor in used:
            cursor += 1
        used.add(cursor)
        self._cursor[swc_name] = cursor + 1
        return cursor


def generate_packages(
    app: App, conf: SwConf, vehicle: Vehicle
) -> list[GeneratedPackage]:
    """Produce one installation package per plug-in of ``app``.

    Assumes :func:`~repro.server.compatibility.check_compatibility`
    passed; inconsistencies at this stage raise
    :class:`CompatibilityError` (server bug or racing configuration).
    """
    allocator = PortIdAllocator(vehicle)
    # First pass: allocate ids for every plug-in port (receivers must be
    # known before senders' VIRTUAL_REMOTE links are emitted).
    ids: dict[tuple[str, str], int] = {}
    pics: dict[str, Pic] = {}
    for plugin_name, descriptor in app.plugins.items():
        swc_name = conf.swc_for(plugin_name)
        if swc_name is None:
            raise CompatibilityError(
                f"plug-in {plugin_name} has no placement"
            )
        entries = []
        for port_name in descriptor.port_names:
            port_id = allocator.allocate(swc_name)
            ids[(plugin_name, port_name)] = port_id
            entries.append(PortInit(port_name, port_id))
        pics[plugin_name] = Pic(tuple(entries))

    # Second pass: translate connections into PLC links.
    links: dict[str, list[PlcLink]] = {name: [] for name in app.plugins}
    for spec in conf.connections:
        source_id = ids[(spec.plugin, spec.port)]
        source_swc = conf.swc_for(spec.plugin)
        assert source_swc is not None
        if spec.kind is ConnectionKind.UNCONNECTED:
            links[spec.plugin].append(PlcLink(source_id, LinkKind.UNCONNECTED))
        elif spec.kind is ConnectionKind.VIRTUAL:
            links[spec.plugin].append(
                PlcLink(source_id, LinkKind.VIRTUAL, spec.target_virtual)
            )
        elif spec.kind is ConnectionKind.PLUGIN:
            target_id = ids[(spec.target_plugin, spec.target_port)]
            target_swc = conf.swc_for(spec.target_plugin)
            if target_swc == source_swc:
                links[spec.plugin].append(
                    PlcLink(
                        source_id, LinkKind.PLUGIN_PORT, target_port_id=target_id
                    )
                )
            else:
                swc_desc = vehicle.conf.system_sw.swc(source_swc)
                assert swc_desc is not None and target_swc is not None
                relay = swc_desc.relay_toward(target_swc)
                if relay is None:
                    raise CompatibilityError(
                        f"no relay from {source_swc} to {target_swc}"
                    )
                links[spec.plugin].append(
                    PlcLink(
                        source_id,
                        LinkKind.VIRTUAL_REMOTE,
                        relay.name,
                        target_id,
                    )
                )

    # Third pass: ECC entries for external routes, grouped per plug-in.
    eccs: dict[str, list[EccEntry]] = {name: [] for name in app.plugins}
    for ext in conf.externals:
        swc_name = conf.swc_for(ext.plugin)
        assert swc_name is not None
        swc_desc = vehicle.conf.system_sw.swc(swc_name)
        assert swc_desc is not None
        eccs[ext.plugin].append(
            EccEntry(
                endpoint=ext.endpoint,
                recipient_ecu=swc_desc.ecu_name,
                message_name=ext.message_name,
                port_id=ids[(ext.plugin, ext.port)],
            )
        )

    # Assemble installation packages.
    packages = []
    for plugin_name, descriptor in app.plugins.items():
        swc_name = conf.swc_for(plugin_name)
        assert swc_name is not None
        swc_desc = vehicle.conf.system_sw.swc(swc_name)
        assert swc_desc is not None
        message = InstallMessage(
            plugin_name=plugin_name,
            version=app.version,
            target_ecu=swc_desc.ecu_name,
            target_swc=swc_name,
            pic=pics[plugin_name],
            plc=Plc(tuple(links[plugin_name])),
            ecc=Ecc(tuple(eccs[plugin_name])),
            binary=descriptor.binary,
        )
        packages.append(
            GeneratedPackage(
                message,
                tuple(
                    ids[(plugin_name, port)]
                    for port in descriptor.port_names
                ),
            )
        )
    return packages


def plan_key(app: App, conf: SwConf, vehicle: Vehicle) -> tuple:
    """Every value :func:`generate_packages` reads, as one hashable key.

    Equal keys give equal packages, so a plan never needs invalidating:
    a new version, another binary, another installed APP or another
    vehicle description makes another key.
    """
    used_port_ids = vehicle.conf.used_port_ids
    return (
        # Ids are allocated in plug-in order, so the order is part of it.
        tuple(
            (name, descriptor.binary, descriptor.port_names)
            for name, descriptor in app.plugins.items()
        ),
        app.version,
        conf,
        vehicle.conf.system_sw,
        tuple(
            (swc_name, frozenset(used_port_ids(swc_name)))
            for swc_name in sorted({swc for __, swc in conf.placements})
        ),
    )


class PackagePlans:
    """:func:`generate_packages` memoized on :func:`plan_key`.

    Vehicles with equal keys share one tuple of packages, so each
    distinct package is derived and encoded once.
    """

    def __init__(self) -> None:
        self._plans: dict[tuple, tuple[GeneratedPackage, ...]] = {}

    def packages(
        self, app: App, conf: SwConf, vehicle: Vehicle
    ) -> tuple[GeneratedPackage, ...]:
        key = plan_key(app, conf, vehicle)
        plan = self._plans.get(key)
        if plan is None:
            plan = tuple(generate_packages(app, conf, vehicle))
            if len(self._plans) >= _PLAN_CACHE_SIZE:
                del self._plans[next(iter(self._plans))]
            self._plans[key] = plan
        return plan


__all__ = [
    "GeneratedPackage",
    "PackagePlans",
    "PortIdAllocator",
    "generate_packages",
    "plan_key",
]
