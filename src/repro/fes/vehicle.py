"""Vehicle assembly: ECUs + plug-in SW-Cs + ECM, ready to federate.

A :class:`VehicleSpec` declares the OEM-provided platform: ECUs, the
plug-in SW-Cs with their virtual-port APIs, the ECM placement, and any
legacy components.  :meth:`VehicleSpec.validate` is the one judge of
whether a spec describes a buildable vehicle, at either simulation
fidelity.  :func:`build_vehicle` turns a valid spec into a running
AUTOSAR system wired to the wide-area network, and
:meth:`VehicleSpec.describe_for_server` produces exactly the HW conf and
SystemSW conf the OEM would upload to the trusted server — keeping the
vehicle and its server-side description consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.autosar.generator import BuiltSystem, build_system
from repro.autosar.interfaces import SenderReceiverInterface
from repro.autosar.swc import ComponentType
from repro.autosar.system import SystemDescription
from repro.autosar.vfb import Connector, validate_connector
from repro.core.ecm import EcmPirte, EcmSpec, SwcRoute, make_ecm_swc_type
from repro.core.messages import DiagMessage
from repro.core.pirte import MGMT_IN, MGMT_OUT, Pirte
from repro.core.plugin_swc import (
    TYPE_I_PORTS,
    PluginSwcSpec,
    PortDecl,
    build_virtual_port_specs,
    get_pirte,
    make_plugin_swc_type,
)
from repro.core.virtual_ports import VirtualPortKind
from repro.errors import ConfigurationError
from repro.network.sockets import NetworkFabric
from repro.server.models import (
    EcuHw,
    HwConf,
    PluginSwcDesc,
    SystemSwConf,
    VirtualPortDesc,
)
from repro.sim.kernel import Simulator
from repro.telemetry.bus import TelemetryBus

#: OS task priorities of the ECM and of the other plug-in SW-Cs.
ECM_PRIORITY = 4
PLUGIN_PRIORITY = 2


@dataclass(frozen=True)
class PluginSwcPlacement:
    """One plug-in SW-C on one ECU."""

    instance_name: str
    ecu_name: str
    spec: PluginSwcSpec


@dataclass(frozen=True)
class LegacyComponent:
    """A built-in (non-plug-in) component placed on an ECU.

    Component types compare by identity: two legacy components are
    equal only when they place the same :class:`ComponentType` object.
    """

    instance_name: str
    ctype: ComponentType
    ecu_name: str
    priority: int = 6


@dataclass
class VehicleSpec:
    """Static description of one vehicle platform.

    The spec says what the vehicle is, not where it runs: the trusted
    server's address belongs to the deployment and is handed to
    :func:`build_vehicle` (or the statistical vehicle) separately.

    A spec is per vehicle (its VIN, region and fidelity), but its
    description of the model — ECUs, placements, legacy components and
    connectors — is made of tuples and frozen parts that every vehicle
    of the model may share (see :meth:`description`).  Vary a spec by
    reassigning a field (``spec.connectors = (*spec.connectors,
    extra)``), never by changing a shared part in place.
    """

    vin: str
    model: str
    ecus: tuple[str, ...]
    ecm: PluginSwcPlacement
    plugin_swcs: tuple[PluginSwcPlacement, ...] = ()
    legacy: tuple[LegacyComponent, ...] = ()
    connectors: tuple[tuple[str, str, str, str], ...] = ()
    #: Deployment region the OEM registers the vehicle under (empty =
    #: undeclared); a FleetSelector/wave-scheduling sharding attribute.
    region: str = ""
    #: Simulation fidelity: ``"full"`` builds the complete ECU/VM
    #: substrate, ``"statistical"`` a calibrated response model (see
    #: :mod:`repro.fes.statistical`).  The server-side description is
    #: identical either way — fidelity is a simulation choice, not a
    #: vehicle property.
    fidelity: str = "full"

    def all_placements(self) -> list[PluginSwcPlacement]:
        return [self.ecm] + list(self.plugin_swcs)

    def description(self) -> tuple:
        """Everything :meth:`validate` and :meth:`describe_for_server`
        read, as one hashable value: the model, ECUs, ECM, plug-in
        SW-Cs, legacy components and connectors.  The VIN only appears
        in error messages; region and fidelity are not read.  Vehicles
        whose descriptions are equal are judged and described alike."""
        return (
            self.model, tuple(self.ecus), self.ecm, tuple(self.plugin_swcs),
            tuple(self.legacy), tuple(self.connectors),
        )

    def validate(self) -> "VehicleSpec":
        """Check that the spec describes a buildable vehicle; returns self.

        Raises :class:`~repro.errors.ConfigurationError` for: no ECUs, a
        duplicate ECU or component instance, a SW-C or legacy component
        on an unknown ECU, a SW-C spec with a duplicate virtual or SW-C
        port name, a relay to an undeclared peer or one whose peer lacks
        the back-relay, and a connector to an undeclared component
        instance or port, into a port another connector already writes,
        from a required or to a provided port, or between incompatible
        interfaces.  The same rules hold at either fidelity, so a
        statistical vehicle is only ever a stand-in for one that
        :func:`build_vehicle` could build.
        """
        where = f"vehicle {self.vin}"
        if not self.ecus:
            raise ConfigurationError(f"{where} declares no ECUs")
        ecus: set[str] = set()
        for name in self.ecus:
            if name in ecus:
                raise ConfigurationError(f"{where}: duplicate ECU {name!r}")
            ecus.add(name)
        placements = self.all_placements()
        instances: set[str] = set()
        for name in [p.instance_name for p in placements] + [
            c.instance_name for c in self.legacy
        ]:
            if name in instances:
                raise ConfigurationError(
                    f"{where}: duplicate component instance {name!r}"
                )
            instances.add(name)
        by_name = {p.instance_name: p for p in placements}
        for placement in placements:
            name = placement.instance_name
            if placement.ecu_name not in ecus:
                raise ConfigurationError(
                    f"{where}: SW-C {name!r} placed on unknown ECU "
                    f"{placement.ecu_name!r}"
                )
            placement.spec.validate()
            for relay in placement.spec.relays:
                peer = by_name.get(relay.peer)
                if peer is None:
                    raise ConfigurationError(
                        f"{where}: SW-C {name!r} relays to undeclared "
                        f"peer {relay.peer!r}"
                    )
                if not any(r.peer == name for r in peer.spec.relays):
                    raise ConfigurationError(
                        f"{where}: SW-C {relay.peer!r} lacks the "
                        f"back-relay toward {name!r}"
                    )
        for legacy in self.legacy:
            if legacy.ecu_name not in ecus:
                raise ConfigurationError(
                    f"{where}: legacy component {legacy.instance_name!r} "
                    f"placed on unknown ECU {legacy.ecu_name!r}"
                )
        self._validate_connectors(where, instances, by_name)
        return self

    def _validate_connectors(
        self,
        where: str,
        instances: set[str],
        by_name: dict[str, PluginSwcPlacement],
    ) -> None:
        """The VFB rules of :func:`build_vehicle`'s system description,
        checked on the spec: a connector names declared instances and
        ports, is the only writer of its target port, the connectors of
        :meth:`wiring` included, and passes
        :func:`~repro.autosar.vfb.validate_connector` (provided ->
        required, compatible interfaces)."""
        writers = {
            (to_instance, to_port): (from_instance, from_port)
            for from_instance, from_port, to_instance, to_port
            in self.wiring()
        }
        legacy = {c.instance_name: c.ctype for c in self.legacy}
        # instance -> port name -> (provided, interface), filled on use.
        roles: dict[str, dict[str, tuple[bool, SenderReceiverInterface]]] = {}

        def end(
            instance: str, port: str
        ) -> tuple[bool, SenderReceiverInterface]:
            if instance not in instances:
                raise ConfigurationError(
                    f"{where}: unknown component instance {instance!r}"
                )
            ports = roles.get(instance)
            if ports is None:
                if instance in legacy:
                    declared = [
                        (p.name, p.is_provided, p.interface)
                        for p in legacy[instance].ports
                    ]
                else:
                    declared = self.ports_of(by_name[instance])
                ports = {
                    name: (provided, interface)
                    for name, provided, interface in declared
                }
                roles[instance] = ports
            if port not in ports:
                raise ConfigurationError(
                    f"{where}: component instance {instance!r} has no "
                    f"port {port!r}"
                )
            return ports[port]

        for connector in self.connectors:
            from_instance, from_port, to_instance, to_port = connector
            from_end = end(from_instance, from_port)
            to_end = end(to_instance, to_port)
            key = (to_instance, to_port)
            if key in writers:
                writer_instance, writer_port = writers[key]
                raise ConfigurationError(
                    f"{where}: port {to_instance}.{to_port} has multiple "
                    f"writers ({writer_instance}.{writer_port} and "
                    f"{from_instance}.{from_port})"
                )
            writers[key] = (from_instance, from_port)
            try:
                validate_connector(Connector(*connector), from_end, to_end)
            except ConfigurationError as exc:
                raise ConfigurationError(f"{where}: {exc}") from None

    def ports_of(self, placement: PluginSwcPlacement) -> list[PortDecl]:
        """``(name, provided, interface)`` of every port of a placed
        SW-C, by its role: a plug-in SW-C's type I pair, then its spec's
        ports; the ECM's spec ports, then its routes' type I pairs."""
        ports = placement.spec.swc_ports()
        if placement.instance_name != self.ecm.instance_name:
            return [*TYPE_I_PORTS, *ports]
        for route in self.ecm_routes():
            ports += route.ports()
        return ports

    def ecm_routes(self) -> list[SwcRoute]:
        """The ECM's type I port pair toward each other plug-in SW-C."""
        return [
            SwcRoute(
                p.ecu_name, p.instance_name,
                f"mgmt_{p.instance_name}_out", f"mgmt_{p.instance_name}_in",
            )
            for p in self.plugin_swcs
        ]

    def wiring(self) -> list[tuple[str, str, str, str]]:
        """The connectors :func:`build_vehicle` adds on its own: a type I
        pair between the ECM and each plug-in SW-C, then one connector
        per relay, into the matching in port of the peer's back-relay."""
        ecm = self.ecm.instance_name
        connectors = []
        for route in self.ecm_routes():
            swc = route.target_swc
            connectors.append((ecm, route.out_port, swc, MGMT_IN))
            connectors.append((swc, MGMT_OUT, ecm, route.in_port))
        placements = self.all_placements()
        by_name = {p.instance_name: p for p in placements}
        for placement in placements:
            name = placement.instance_name
            for relay in placement.spec.relays:
                for back in by_name[relay.peer].spec.relays:
                    if back.peer == name:
                        connectors.append(
                            (name, relay.resolved_out_port(),
                             relay.peer, back.resolved_in_port())
                        )
                        break
        return connectors

    def describe_for_server(self) -> tuple[HwConf, SystemSwConf]:
        """The HW conf + SystemSW conf the OEM uploads for this model."""
        hw = HwConf(self.model, tuple(EcuHw(name) for name in self.ecus))
        swcs = []
        for placement in self.all_placements():
            specs = build_virtual_port_specs(placement.spec)
            ports = []
            for vp in specs:
                peer = ""
                if vp.kind in (VirtualPortKind.RELAY_OUT, VirtualPortKind.RELAY_IN):
                    peer = _relay_peer(placement.spec, vp.name)
                ports.append(VirtualPortDesc(vp.name, vp.kind, peer))
            swcs.append(
                PluginSwcDesc(
                    swc_name=placement.instance_name,
                    ecu_name=placement.ecu_name,
                    virtual_ports=tuple(ports),
                    vm_memory_bytes=(
                        placement.spec.vm_memory_blocks
                        * placement.spec.vm_block_size
                    ),
                )
            )
        return hw, SystemSwConf(tuple(swcs))


def _relay_peer(spec: PluginSwcSpec, virtual_name: str) -> str:
    for relay in spec.relays:
        if virtual_name in (relay.out_virtual, relay.in_virtual):
            return relay.peer
    return ""


class Vehicle:
    """A built, running vehicle.

    The campaign layer reaches it through the calls a
    :class:`~repro.fes.statistical.StatisticalVehicle` answers too:
    ``vin``, ``spec``, ``sim``, ``boot()``, ``run()``, ``redial()``,
    ``book_fault()``, ``diagnostic_reports()`` and
    ``emit_diagnostics()``.
    """

    def __init__(self, spec: VehicleSpec, system: BuiltSystem) -> None:
        self.spec = spec
        self.system = system

    @property
    def vin(self) -> str:
        return self.spec.vin

    @property
    def sim(self) -> Simulator:
        return self.system.sim

    def pirte_of(self, swc_instance: str) -> Pirte:
        """The PIRTE inside a plug-in SW-C (ECU must have booted)."""
        return get_pirte(self.system.instance(swc_instance))

    @property
    def ecm_pirte(self) -> EcmPirte:
        pirte = self.pirte_of(self.spec.ecm.instance_name)
        assert isinstance(pirte, EcmPirte)
        return pirte

    def boot(self) -> None:
        self.system.boot_all()

    def run(self, duration_us: int) -> None:
        self.system.run(duration_us)

    def redial(self) -> bool:
        """Have the ECM dial the trusted server unless its link is up;
        True when it dialled (see :class:`~repro.network.sockets.Uplink`)."""
        return self.ecm_pirte.uplink.dial()

    def book_fault(
        self, swc: str, plugin: str, traps: int, fuel: int, blocks: int
    ) -> Optional[int]:
        """Book a soak fault on plug-in ``plugin`` of SW-C ``swc``:
        ``traps`` trapped activations, ``fuel`` extra VM fuel and up to
        ``blocks`` leaked from the SW-C's VM memory, booked where a real
        fault would leave them, so the next diagnostic report carries
        them.  Returns the blocks leaked, or None when the SW-C does not
        run that plug-in."""
        return self.pirte_of(swc).book_fault(plugin, traps, fuel, blocks)

    def diagnostic_reports(self) -> list[DiagMessage]:
        """The DiagMessage each plug-in-hosting SW-C (the ECM included)
        would send now.  A SW-C whose PIRTE does not exist yet (its
        ECU's init task has not run) has nothing to report."""
        reports = []
        for placement in self.spec.all_placements():
            try:
                pirte = self.pirte_of(placement.instance_name)
            except ConfigurationError:
                continue
            reports.append(pirte.diagnostic_report())
        return reports

    def emit_diagnostics(self) -> None:
        """Have every plug-in-hosting SW-C (the ECM included) send one
        DiagMessage toward the trusted server."""
        for placement in self.spec.all_placements():
            self.pirte_of(placement.instance_name).emit_diagnostics()


def build_vehicle(
    spec: VehicleSpec,
    fabric: NetworkFabric,
    server_address: str,
    sim: Optional[Simulator] = None,
    tracer: Optional[TelemetryBus] = None,
) -> Vehicle:
    """Validate ``spec`` and build the vehicle connected to ``fabric``.

    Its ECM dials the trusted server at ``server_address``.  The
    vehicle's substrate publishes its events into ``tracer`` when one
    is given.
    """
    spec.validate()
    desc = SystemDescription(f"vehicle-{spec.vin}")
    for ecu_name in spec.ecus:
        desc.add_ecu(ecu_name)

    ecm_spec = EcmSpec(
        base=spec.ecm.spec,
        server_address=server_address,
        routes=spec.ecm_routes(),
    )
    ecm_type = make_ecm_swc_type(ecm_spec, fabric, client_name=spec.vin)
    desc.add_component(
        spec.ecm.instance_name, ecm_type, spec.ecm.ecu_name,
        priority=ECM_PRIORITY,
    )

    # Plug-in SW-Cs and legacy components, then the vehicle's own
    # wiring and the declared connectors.
    for placement in spec.plugin_swcs:
        desc.add_component(
            placement.instance_name,
            make_plugin_swc_type(placement.spec),
            placement.ecu_name,
            priority=PLUGIN_PRIORITY,
        )
    for legacy in spec.legacy:
        desc.add_component(
            legacy.instance_name, legacy.ctype, legacy.ecu_name,
            priority=legacy.priority,
        )
    for connector in (*spec.wiring(), *spec.connectors):
        desc.connect(*connector)

    system = build_system(desc, sim=sim, tracer=tracer)
    return Vehicle(spec, system)


__all__ = [
    "PluginSwcPlacement",
    "LegacyComponent",
    "VehicleSpec",
    "Vehicle",
    "build_vehicle",
]
