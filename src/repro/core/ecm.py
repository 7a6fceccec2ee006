"""The External Communication Manager (ECM) SW-C.

"It inherits from the plug-in SW-C and adds a communication module for
interacting with the external world" (paper Sec. 3.1.1).  The
:class:`EcmPirte` extends the plain PIRTE with:

* a socket client to the pre-defined trusted server, created during
  initialization (Sec. 3.1.3, type I ports);
* routing of each management message by its target SW-C alone: the
  ECM's own plug-in table answers it, another plug-in SW-C gets it over
  its type I port (its acks are relayed back to the server), and a SW-C
  the vehicle does not host is answered ``UNKNOWN_PLUGIN``;
* the ECC table: external endpoints are dialled when an ECC arrives,
  inbound named messages are routed to the recipient plug-in port
  (locally, or as DATA messages over type I), and unconnected plug-in
  port writes are routed outward.  Entries are kept per (target SW-C,
  plug-in): a re-install replaces them and the plug-in's uninstall
  drops them, so an updated APP is routed by its own ECC.

Messages from the server and from external endpoints land in inboxes
that the next ``dispatch`` tick drains; each arrival wakes the host CPU
first, so a parked CPU resumes its ticks and never misses one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.autosar.events import InitEvent
from repro.autosar.interfaces import SenderReceiverInterface
from repro.autosar.swc import ComponentInstance, ComponentType
from repro.core import messages as msg
from repro.core.context import EccEntry
from repro.core.external import decode_external, encode_external
from repro.core.pirte import Pirte
from repro.core.plugin import MANAGEMENT, Plugin, unhosted
from repro.core.plugin_swc import (
    MGMT_ELEMENT,
    MGMT_IF,
    PluginSwcSpec,
    build_virtual_port_specs,
    make_plugin_swc_type,
)
from repro.autosar.ports import provided_port, required_port
from repro.errors import ConfigurationError, ConnectionRefusedError_
from repro.network.sockets import Endpoint, NetworkFabric


@dataclass(frozen=True)
class SwcRoute:
    """How the ECM reaches one remote plug-in SW-C over type I ports."""

    target_ecu: str
    target_swc: str
    out_port: str
    in_port: str

    def ports(self) -> list[tuple[str, bool, SenderReceiverInterface]]:
        """``(name, provided, interface)`` of the ECM's type I port pair:
        it writes the out port and reads the in port."""
        return [(self.out_port, True, MGMT_IF), (self.in_port, False, MGMT_IF)]


@dataclass
class EcmSpec:
    """Declarative description of an ECM SW-C type.

    Extends :class:`PluginSwcSpec` semantics: the ECM is itself a
    plug-in SW-C (it hosts plug-ins like the paper's COM), plus server
    connectivity and routes to the other plug-in SW-Cs.
    """

    base: PluginSwcSpec
    server_address: str
    routes: list[SwcRoute] = field(default_factory=list)

    def route_for_ecu(self, ecu: str) -> Optional[SwcRoute]:
        for route in self.routes:
            if route.target_ecu == ecu:
                return route
        return None

    def route_for_swc(self, swc: str) -> Optional[SwcRoute]:
        for route in self.routes:
            if route.target_swc == swc:
                return route
        return None


class EcmPirte(Pirte):
    """PIRTE of the ECM SW-C: plain PIRTE + external communication."""

    def __init__(
        self,
        instance: ComponentInstance,
        spec: EcmSpec,
        fabric: NetworkFabric,
        client_name: str,
    ) -> None:
        super().__init__(
            instance,
            build_virtual_port_specs(spec.base),
            mgmt_in=None,
            mgmt_out=None,
            vm_memory_blocks=spec.base.vm_memory_blocks,
            vm_block_size=spec.base.vm_block_size,
            fuel_per_activation=spec.base.fuel_per_activation,
        )
        self.spec = spec
        self.fabric = fabric
        self.client_name = client_name
        self._server: Optional[Endpoint] = None
        self._server_outbox: Deque[bytes] = deque()
        self._server_inbox: Deque[bytes] = deque()
        self._ext_inbox: Deque[tuple[str, bytes]] = deque()
        self._externals: dict[str, Endpoint] = {}
        #: (target SW-C, plug-in) -> the ECC entries its install carried.
        self._ecc: dict[tuple[str, str], tuple[EccEntry, ...]] = {}
        self.acks_forwarded = 0
        self.external_in = 0
        #: Lazy (port name, buffer) cache for :meth:`_drain_remote_acks`.
        self._ack_buffers: Optional[list] = None

    # -- server connectivity ------------------------------------------------

    def connect_to_server(self) -> None:
        """Dial the pre-defined trusted server (called at ECU init)."""
        self.fabric.connect(
            self.spec.server_address, self.client_name, self._on_server_connected
        )

    def _on_server_connected(self, endpoint: Endpoint) -> None:
        self._server = endpoint
        endpoint.on_receive(self._on_server_data)
        self._trace("server_connected")
        while self._server_outbox:
            raw = self._server_outbox.popleft()
            endpoint.send(raw, size=len(raw))

    def _on_server_data(self, raw: bytes) -> None:
        self._wake()
        self._server_inbox.append(raw)

    def _on_external_data(self, address: str, raw: bytes) -> None:
        self._wake()
        self._ext_inbox.append((address, raw))

    @property
    def connected(self) -> bool:
        return self._server is not None and not self._server.closed

    def send_to_server(self, raw: bytes) -> None:
        """Send bytes to the trusted server (queued until connected)."""
        if self._server is not None and self._server.closed:
            # The link was severed (vehicle offline / server cut us off):
            # fall back to buffering until the next successful dial.
            self._server = None
            self._trace("server_link_lost")
        if self._server is None:
            self._server_outbox.append(raw)
        else:
            self._server.send(raw, size=len(raw))

    # -- external endpoints ----------------------------------------------------

    def _connect_external(self, address: str) -> None:
        if address in self._externals:
            return
        self._externals[address] = None  # type: ignore[assignment]

        def on_connected(endpoint: Endpoint) -> None:
            self._externals[address] = endpoint
            endpoint.on_receive(
                lambda raw: self._on_external_data(address, raw)
            )
            self._trace("external_connected", endpoint=address)

        try:
            self.fabric.connect(address, f"{self.client_name}:ext", on_connected)
        except ConnectionRefusedError_:
            # External party absent (phone out of range): keep the ECC
            # entry; outbound traffic is dropped until reconnection.
            self._trace("external_unreachable", endpoint=address)
            del self._externals[address]

    @property
    def ecc_entries(self) -> list[EccEntry]:
        """The ECC entries of every installed plug-in, oldest first."""
        return [entry for entries in self._ecc.values() for entry in entries]

    def register_ecc(self, swc: str, plugin: str, entries) -> None:
        """Adopt one plug-in's ECC entries and dial their endpoints.

        They replace any entries registered for the same plug-in.
        """
        self._ecc[(swc, plugin)] = tuple(entries)
        for entry in entries:
            self._connect_external(entry.endpoint)

    def _ecc_route_for_message(self, name: str) -> Optional[EccEntry]:
        for entries in self._ecc.values():
            for entry in entries:
                if entry.message_name == name:
                    return entry
        return None

    def _ecc_entry_for_port(self, port_id: int) -> Optional[EccEntry]:
        ecu = self.ecu_name
        for entries in self._ecc.values():
            for entry in entries:
                if entry.port_id == port_id and entry.recipient_ecu == ecu:
                    return entry
        return None

    # -- overrides ---------------------------------------------------------------

    def handle_direct_write(
        self, plugin: Plugin, global_port_id: int, value: int
    ) -> None:
        """Unconnected plug-in port write: route externally via ECC."""
        entry = self._ecc_entry_for_port(global_port_id)
        if entry is None:
            super().handle_direct_write(plugin, global_port_id, value)
            return
        endpoint = self._externals.get(entry.endpoint)
        if endpoint is None:
            self.dropped_messages += 1
            self._trace("external_not_connected", endpoint=entry.endpoint)
            return
        raw = encode_external(entry.message_name, value)
        endpoint.send(raw, size=len(raw))

    def idle(self) -> bool:
        """:meth:`Pirte.idle`, plus empty server, external and ack inboxes."""
        if self._server_inbox or self._ext_inbox:
            return False
        # Unresolved until the first step, which resolves the base
        # class's buffers too; Pirte.idle is false until then.
        for __, buffer in self._ack_buffers or ():
            if buffer.pending():
                return False
        return super().idle()

    def step(self) -> int:
        """ECM processing: server + external traffic, acks, then base."""
        while self._server_inbox:
            self.handle_server_message(self._server_inbox.popleft())
        while self._ext_inbox:
            __, raw = self._ext_inbox.popleft()
            name, value = decode_external(raw)
            self.route_external_in(name, value)
        self._drain_remote_acks()
        return super().step()

    # -- server message handling ----------------------------------------------

    def handle_server_message(self, raw: bytes) -> None:
        """Route one message pushed by the trusted server.

        A management message goes by its target SW-C alone (see the
        module docstring); a DATA message by its target ECU.
        """
        message = msg.decode(raw)
        if not isinstance(message, MANAGEMENT):
            if isinstance(message, msg.DataMessage):
                self.route_data_message(message)
            else:
                self._trace("unexpected_server_message")
            return
        swc = message.target_swc
        route = self.spec.route_for_swc(swc)
        if swc != self.swc_name and route is None:
            self._trace("no_route", swc=swc)
            self.send_ack(unhosted(message))
            return
        # "An ECC is extracted by the ECM PIRTE" (Sec. 3.1.2), whichever
        # SW-C the plug-in lands on; it goes with the plug-in's
        # uninstall, while its connections stay open.
        if isinstance(message, msg.InstallMessage) and message.ecc.entries:
            self.register_ecc(swc, message.plugin_name, message.ecc.entries)
        elif isinstance(message, msg.UninstallMessage):
            self._ecc.pop((swc, message.plugin_name), None)
        if route is None:
            self.send_ack(self.answer(message))
        else:
            self.instance.write(route.out_port, MGMT_ELEMENT, raw)
            self._trace("forwarded", swc=swc, size=len(raw))

    def send_ack(self, ack: msg.AckMessage) -> None:
        """The ECM's own acks go straight up the server link."""
        self.send_to_server(ack.encode())

    def _drain_remote_acks(self) -> None:
        buffers = self._ack_buffers
        if buffers is None:
            # Routes and ports are fixed after construction; resolve the
            # mgmt receive buffers once instead of three dict lookups
            # per route on every periodic poll.
            buffers = [
                (
                    route.in_port,
                    self.instance.port(route.in_port).buffer(MGMT_ELEMENT),
                )
                for route in self.spec.routes
                if route.in_port in self.instance.ports
            ]
            self._ack_buffers = buffers
        for in_port, buffer in buffers:
            while buffer.pending():
                raw = self.instance.receive(in_port, MGMT_ELEMENT)
                # Acks and diagnostic reports travel back on type I;
                # relay both verbatim to the trusted server.
                self.send_to_server(raw)
                self.acks_forwarded += 1

    def forward_diagnostics(self, report: msg.DiagMessage) -> None:
        """ECM's own diagnostics go straight up the server link."""
        self.send_to_server(report.encode())

    # -- external data routing ---------------------------------------------------

    def route_external_in(self, name: str, value: int) -> None:
        """Route an inbound named external message via the ECC."""
        entry = self._ecc_route_for_message(name)
        if entry is None:
            self.dropped_messages += 1
            self._trace("external_unroutable", message=name)
            return
        self.external_in += 1
        if entry.recipient_ecu == self.ecu_name:
            # "the ECM PIRTE writes or reads directly to/from the
            # plug-in port" (Sec. 3.1.3, type I exception).
            self.deliver_to_port(entry.port_id, value)
        else:
            data = msg.DataMessage(
                entry.recipient_ecu, "", entry.port_id, value
            )
            self.route_data_message(data)

    def route_data_message(self, message: msg.DataMessage) -> None:
        """Relay a DATA message toward its recipient ECU."""
        if message.target_ecu == self.ecu_name:
            self.deliver_to_port(message.port_id, message.value)
            return
        route = self.spec.route_for_ecu(message.target_ecu)
        if route is None:
            self.dropped_messages += 1
            self._trace("no_data_route", ecu=message.target_ecu)
            return
        raw = msg.DataMessage(
            message.target_ecu, route.target_swc, message.port_id, message.value
        ).encode()
        self.instance.write(route.out_port, MGMT_ELEMENT, raw)


def make_ecm_swc_type(
    spec: EcmSpec,
    fabric: NetworkFabric,
    client_name: str,
) -> ComponentType:
    """Build the ECM component type: plug-in SW-C + comm module.

    Adds one provided/required type I port pair per route and connects
    to the trusted server at ECU start-up.
    """
    if spec.base.has_mgmt:
        raise ConfigurationError(
            "the ECM manages others; set has_mgmt=False on its base spec"
        )

    def pirte_factory(instance: ComponentInstance) -> EcmPirte:
        return EcmPirte(instance, spec, fabric, client_name)

    ctype = make_plugin_swc_type(spec.base, pirte_factory=pirte_factory)
    from repro.autosar.events import DataReceivedEvent

    for route in spec.routes:
        for name, provided, iface in route.ports():
            make = provided_port if provided else required_port
            ctype.add_port(make(name, iface))
        ctype.add_event(
            DataReceivedEvent(
                "dispatch", port=route.in_port, element=MGMT_ELEMENT
            )
        )

    from repro.autosar.runnable import Runnable
    from repro.core.plugin_swc import PIRTE_KEY

    def connect_body(instance: ComponentInstance) -> None:
        pirte = instance.state.get(PIRTE_KEY)
        if pirte is None:
            # init runnable may not have run yet within this boot order.
            pirte = pirte_factory(instance)
            instance.state[PIRTE_KEY] = pirte
        if not pirte.connected:
            pirte.connect_to_server()

    ctype.add_runnable(Runnable("connect", connect_body, execution_time_us=100))
    ctype.add_event(InitEvent("connect"))
    return ctype


__all__ = ["SwcRoute", "EcmSpec", "EcmPirte", "make_ecm_swc_type"]
