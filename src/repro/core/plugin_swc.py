"""Factory for plug-in SW-C component types.

The OEM provides plug-in SW-Cs "which to start with only contain VMs and
APIs in the form of provided and required SW-C ports" (paper Sec. 3.1.1).
This module builds such a component type from a declarative spec: which
type II/III SW-C ports it has and which virtual ports the PIRTE maps
them to.  The SW-C's role decides its type I ports: every plug-in SW-C
has one pair toward the ECM (:data:`TYPE_I_PORTS`), and the ECM has one
pair per plug-in SW-C it manages instead (:mod:`repro.core.ecm`).  The
embedded PIRTE is created on the component instance at ECU start-up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.autosar.events import DataReceivedEvent, InitEvent, TimingEvent
from repro.autosar.interfaces import DataElement, SenderReceiverInterface
from repro.autosar.ports import provided_port, required_port
from repro.autosar.runnable import Runnable
from repro.autosar.swc import ComponentInstance, ComponentType
from repro.autosar.types import BYTES, DataType
from repro.core.pirte import MGMT_ELEMENT, MGMT_IF, MGMT_IN, MGMT_OUT, Pirte
from repro.core.virtual_ports import PortGuard, VirtualPortKind, VirtualPortSpec
from repro.errors import ConfigurationError

#: Key under which the PIRTE lives in the instance state dict.
PIRTE_KEY = "pirte"

#: Byte-stream interface of the type II ports; the type I ports use
#: :data:`~repro.core.pirte.MGMT_IF`.
RELAY_IF = SenderReceiverInterface(
    "PluginRelayIf", [DataElement("data", BYTES, queued=True, queue_length=64)]
)

#: ``(name, provided, interface)`` of a plug-in SW-C's type I pair: it
#: reads management messages from the ECM and writes acks and reports.
TYPE_I_PORTS = ((MGMT_IN, False, MGMT_IF), (MGMT_OUT, True, MGMT_IF))

#: One SW-C port: ``(name, provided, interface)``; a port that is not
#: provided is required.
PortDecl = tuple[str, bool, SenderReceiverInterface]


@dataclass(frozen=True)
class RelayLink:
    """One type II SW-C port pair toward a peer plug-in SW-C.

    ``out_virtual``/``in_virtual`` are the virtual port names exposed to
    PLCs (the paper's V0 on the sender and V3 on the receiver).
    """

    peer: str
    out_virtual: str
    in_virtual: str
    out_port: str = ""
    in_port: str = ""

    def resolved_out_port(self) -> str:
        return self.out_port or f"p2p_{self.peer}_out"

    def resolved_in_port(self) -> str:
        return self.in_port or f"p2p_{self.peer}_in"


@dataclass(frozen=True)
class ServicePort:
    """One type III SW-C port exposed to plug-ins as a virtual port.

    ``direction`` "out": plug-ins write; the SW-C port is provided.
    ``direction`` "in": plug-ins receive; the SW-C port is required and
    its element must be queued.
    """

    virtual: str
    swc_port: str
    direction: str
    dtype: DataType
    element: str = "value"
    to_wire: Optional[Callable[[int], Any]] = None
    from_wire: Optional[Callable[[Any], int]] = None
    #: Optional fault protection on critical outbound signals.
    guard: Optional["PortGuard"] = None

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out"):
            raise ConfigurationError(
                f"service port direction must be 'in' or 'out', "
                f"got {self.direction!r}"
            )
        if self.guard is not None and self.direction != "out":
            raise ConfigurationError(
                f"service port {self.virtual}: guards apply to 'out' ports"
            )


@dataclass(frozen=True)
class PluginSwcSpec:
    """Declarative description of one plug-in SW-C type.

    Immutable and hashable, so every vehicle of one model can share its
    spec: ``relays`` and ``services`` are tuples (lists passed in are
    converted).  To vary a spec, make a new one
    (:func:`dataclasses.replace`).
    """

    type_name: str
    relays: tuple[RelayLink, ...] = ()
    services: tuple[ServicePort, ...] = ()
    dispatch_period_us: int = 2_000
    timer_period_us: int = 10_000
    dispatch_exec_us: int = 200
    vm_memory_blocks: int = 512
    vm_block_size: int = 64
    fuel_per_activation: int = 20_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "relays", tuple(self.relays))
        object.__setattr__(self, "services", tuple(self.services))

    def swc_ports(self) -> list[PortDecl]:
        """The type II and III ports the spec declares, in declaration
        order.  A component type adds the type I ports of its role."""
        ports: list[PortDecl] = []
        for relay in self.relays:
            ports.append((relay.resolved_out_port(), True, RELAY_IF))
            ports.append((relay.resolved_in_port(), False, RELAY_IF))
        for service in self.services:
            ports.append((
                service.swc_port,
                service.direction == "out",
                _service_interface(
                    service.virtual, service.swc_port, service.element,
                    service.dtype,
                ),
            ))
        return ports

    def validate(self) -> "PluginSwcSpec":
        """Reject colliding virtual-port or SW-C port names eagerly.

        Without this, a duplicate virtual port only surfaces as a
        :class:`~repro.errors.ContextError` when the PIRTE is created at
        ECU boot — far from the declaration that caused it.
        """
        virtuals: set[str] = set()
        swc_ports: set[str] = set()

        def claim(seen: set[str], name: str, what: str) -> None:
            if name in seen:
                raise ConfigurationError(
                    f"SW-C type {self.type_name}: duplicate {what} "
                    f"{name!r}"
                )
            seen.add(name)

        for relay in self.relays:
            claim(virtuals, relay.out_virtual, "virtual port")
            claim(virtuals, relay.in_virtual, "virtual port")
            claim(swc_ports, relay.resolved_out_port(), "SW-C port")
            claim(swc_ports, relay.resolved_in_port(), "SW-C port")
        for service in self.services:
            claim(virtuals, service.virtual, "virtual port")
            claim(swc_ports, service.swc_port, "SW-C port")
        return self


@functools.lru_cache(maxsize=256)
def _service_interface(
    virtual: str, swc_port: str, element: str, dtype: DataType
) -> SenderReceiverInterface:
    """The interface of one type III port, built once per distinct
    declaration: every vehicle of a fleet shares its model's."""
    # Queued semantics in both directions: provided ports hold no buffer
    # anyway, and receivers must not lose back-to-back plug-in values.
    return SenderReceiverInterface(
        f"{virtual}_{swc_port}_if",
        [DataElement(element, dtype, queued=True, queue_length=32)],
    )


def build_virtual_port_specs(spec: PluginSwcSpec) -> list[VirtualPortSpec]:
    """The PIRTE's static virtual port table for a spec."""
    specs: list[VirtualPortSpec] = []
    for relay in spec.relays:
        specs.append(
            VirtualPortSpec(
                relay.out_virtual,
                VirtualPortKind.RELAY_OUT,
                relay.resolved_out_port(),
                "data",
            )
        )
        specs.append(
            VirtualPortSpec(
                relay.in_virtual,
                VirtualPortKind.RELAY_IN,
                relay.resolved_in_port(),
                "data",
            )
        )
    for service in spec.services:
        kind = (
            VirtualPortKind.SERVICE_OUT
            if service.direction == "out"
            else VirtualPortKind.SERVICE_IN
        )
        specs.append(
            VirtualPortSpec(
                service.virtual,
                kind,
                service.swc_port,
                service.element,
                to_wire=service.to_wire,
                from_wire=service.from_wire,
                guard=service.guard,
            )
        )
    return specs


def get_pirte(instance: ComponentInstance) -> Pirte:
    """The PIRTE hosted by a plug-in SW-C instance."""
    pirte = instance.state.get(PIRTE_KEY)
    if pirte is None:
        raise ConfigurationError(
            f"instance {instance.name} has no PIRTE (ECU not booted?)"
        )
    return pirte


def make_plugin_swc_type(spec: PluginSwcSpec) -> ComponentType:
    """Build the plug-in SW-C component type for ``spec``: its type I
    pair, then the spec's ports, around a plain :class:`Pirte`."""

    def factory(instance: ComponentInstance) -> Pirte:
        return Pirte(
            instance,
            build_virtual_port_specs(spec),
            vm_memory_blocks=spec.vm_memory_blocks,
            vm_block_size=spec.vm_block_size,
            fuel_per_activation=spec.fuel_per_activation,
        )

    return make_pirte_host_type(
        spec, factory, [*TYPE_I_PORTS, *spec.swc_ports()]
    )


def make_pirte_host_type(
    spec: PluginSwcSpec,
    factory: Callable[[ComponentInstance], Pirte],
    ports: list[PortDecl],
) -> ComponentType:
    """A component type with ``ports`` that hosts the PIRTE ``factory``
    makes.

    The ``init`` runnable creates the PIRTE; the periodic ``dispatch``
    and ``timer`` runnables declare ``noop`` predicates: a tick is a
    no-op once the PIRTE exists and :meth:`Pirte.idle` (for ``timer``,
    :meth:`Pirte.timer_idle`) holds.  When both hold the CPU parks,
    queueing no tick; the PIRTE wakes its CPU before any change from
    outside its own runnables, and data on any required port (each
    interface here has one element) activates ``dispatch``.
    """

    def ensure_pirte(instance: ComponentInstance) -> Pirte:
        pirte = instance.state.get(PIRTE_KEY)
        if pirte is None:
            pirte = factory(instance)
            instance.state[PIRTE_KEY] = pirte
        return pirte

    def init_body(instance: ComponentInstance) -> None:
        ensure_pirte(instance)

    def dispatch_body(instance: ComponentInstance) -> None:
        ensure_pirte(instance).step()

    def timer_body(instance: ComponentInstance) -> None:
        ensure_pirte(instance).timer_tick()

    def dispatch_noop(instance: ComponentInstance) -> bool:
        pirte = instance.state.get(PIRTE_KEY)
        return pirte is not None and pirte.idle()

    def timer_noop(instance: ComponentInstance) -> bool:
        pirte = instance.state.get(PIRTE_KEY)
        return pirte is not None and pirte.timer_idle()

    runnables = [
        Runnable("init", init_body, execution_time_us=50),
        Runnable(
            "dispatch", dispatch_body,
            execution_time_us=spec.dispatch_exec_us, noop=dispatch_noop,
        ),
        Runnable(
            "timer", timer_body,
            execution_time_us=spec.dispatch_exec_us, noop=timer_noop,
        ),
    ]
    events: list = [
        InitEvent("init"),
        TimingEvent(
            "dispatch",
            period_us=spec.dispatch_period_us,
            offset_us=spec.dispatch_period_us,
        ),
        TimingEvent(
            "timer",
            period_us=spec.timer_period_us,
            offset_us=spec.timer_period_us,
        ),
    ]
    events += [
        DataReceivedEvent(
            "dispatch", port=name, element=iface.elements[0].name
        )
        for name, provided, iface in ports
        if not provided
    ]
    return ComponentType(
        spec.type_name,
        ports=[
            (provided_port if provided else required_port)(name, iface)
            for name, provided, iface in ports
        ],
        runnables=runnables,
        events=events,
    )


__all__ = [
    "PIRTE_KEY",
    "MGMT_ELEMENT",
    "MGMT_IF",
    "MGMT_IN",
    "MGMT_OUT",
    "RELAY_IF",
    "TYPE_I_PORTS",
    "PortDecl",
    "RelayLink",
    "ServicePort",
    "PluginSwcSpec",
    "build_virtual_port_specs",
    "get_pirte",
    "make_pirte_host_type",
    "make_plugin_swc_type",
]
