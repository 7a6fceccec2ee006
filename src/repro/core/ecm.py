"""The External Communication Manager (ECM) SW-C.

"It inherits from the plug-in SW-C and adds a communication module for
interacting with the external world" (paper Sec. 3.1.1).  The
:class:`EcmPirte` extends the plain PIRTE with:

* a socket client to the pre-defined trusted server, dialled during
  initialization (Sec. 3.1.3, type I ports): an
  :class:`~repro.network.sockets.Uplink`, the link a statistical vehicle
  holds too.  Everything the vehicle sends up leaves on it: the ECM's
  own acks and reports, and those the other plug-in SW-Cs send over
  their type I ports, relayed verbatim;
* routing of each management message by its target SW-C alone: the
  ECM's own plug-in table answers it, another plug-in SW-C gets it over
  its type I port, and a SW-C the vehicle does not host is answered
  ``UNKNOWN_PLUGIN``;
* the ECC table: external endpoints are dialled when an ECC is adopted,
  inbound named messages are routed to the recipient plug-in port
  (locally, or as DATA messages over type I), and unconnected plug-in
  port writes are routed outward.  Entries are kept per (target SW-C,
  plug-in), and they follow the answers: an install's ECC is adopted
  only when the install is acked OK, after the ECM's own table answers
  or when the target SW-C's ack passes through.  The ECCs of forwarded
  installs wait per (SW-C, plug-in) in arrival order, and each install
  answer takes the oldest, since type I is FIFO.  An UNINSTALL drops the
  plug-in's entries whatever the answer, and the OK answers of its
  installs still waiting adopt nothing.

Messages from the server and from external endpoints land in inboxes
that the next ``dispatch`` tick drains; each arrival wakes the host CPU
first, so a parked CPU resumes its ticks and never misses one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.autosar.events import InitEvent
from repro.autosar.runnable import Runnable
from repro.autosar.swc import ComponentInstance, ComponentType
from repro.core import messages as msg
from repro.core.context import EMPTY_ECC, Ecc, EccEntry
from repro.core.external import decode_external, encode_external
from repro.core.pirte import Pirte
from repro.core.plugin import MANAGEMENT, Plugin, unhosted
from repro.core.plugin_swc import (
    MGMT_ELEMENT,
    MGMT_IF,
    PIRTE_KEY,
    PluginSwcSpec,
    PortDecl,
    build_virtual_port_specs,
    make_pirte_host_type,
)
from repro.errors import ConnectionRefusedError_
from repro.network.sockets import Endpoint, NetworkFabric, Uplink


@dataclass(frozen=True)
class SwcRoute:
    """How the ECM reaches one remote plug-in SW-C over type I ports."""

    target_ecu: str
    target_swc: str
    out_port: str
    in_port: str

    def ports(self) -> list[PortDecl]:
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
            vm_memory_blocks=spec.base.vm_memory_blocks,
            vm_block_size=spec.base.vm_block_size,
            fuel_per_activation=spec.base.fuel_per_activation,
        )
        self.spec = spec
        self.fabric = fabric
        self.client_name = client_name
        #: The vehicle's link to the trusted server.
        self.uplink = Uplink(fabric, spec.server_address, client_name, self)
        self._server_inbox: Deque[bytes] = deque()
        self._ext_inbox: Deque[tuple[str, bytes]] = deque()
        self._externals: dict[str, Endpoint] = {}
        #: (target SW-C, plug-in) -> the ECC its acked install carried.
        self._ecc: dict[tuple[str, str], Ecc] = {}
        #: (target SW-C, plug-in) -> the ECCs of forwarded installs not
        #: answered yet, oldest first.
        self._waiting: dict[tuple[str, str], Deque[Ecc]] = {}
        self.acks_forwarded = 0
        self.external_in = 0
        #: Lazy (port name, buffer) cache for :meth:`_drain_remote_acks`.
        self._ack_buffers: Optional[list] = None

    # -- server connectivity ------------------------------------------------

    def on_server_data(self, raw: bytes) -> None:
        """Bytes from the trusted server, handled at the next tick."""
        self._wake()
        self._server_inbox.append(raw)

    def _on_external_data(self, address: str, raw: bytes) -> None:
        self._wake()
        self._ext_inbox.append((address, raw))

    def send_up(self, raw: bytes) -> None:
        """The ECM sends toward the trusted server on its server link."""
        self.uplink.send(raw)

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
        return [entry for ecc in self._ecc.values() for entry in ecc.entries]

    def _adopt(self, key: tuple[str, str], ecc: Ecc) -> None:
        """Make ``ecc`` plug-in ``key``'s ECC and dial its endpoints."""
        if not ecc.entries:
            self._ecc.pop(key, None)
            return
        self._ecc[key] = ecc
        for endpoint in ecc.endpoints():
            self._connect_external(endpoint)

    # -- overrides ---------------------------------------------------------------

    def handle_direct_write(
        self, plugin: Plugin, global_port_id: int, value: int
    ) -> None:
        """Unconnected plug-in port write: route externally via ECC."""
        ecu = self.ecu_name
        for ecc in self._ecc.values():
            entry = ecc.entry_for_port(global_port_id, ecu)
            if entry is not None:
                break
        else:
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
            self.send_up(unhosted(message).encode())
            return
        # "An ECC is extracted by the ECM PIRTE" (Sec. 3.1.2), whichever
        # SW-C the plug-in lands on.  It goes with the plug-in's
        # uninstall, while its connections stay open; the installs
        # still waiting come before the uninstall on type I, so their
        # answers adopt nothing.
        key = (swc, message.plugin_name)
        install = isinstance(message, msg.InstallMessage)
        if isinstance(message, msg.UninstallMessage):
            self._ecc.pop(key, None)
            waiting = self._waiting.get(key)
            if waiting:
                self._waiting[key] = deque(EMPTY_ECC for __ in waiting)
        if route is None:
            ack = self.answer(message)
            if install and ack.ok:
                self._adopt(key, message.ecc)
            self.send_up(ack.encode())
            return
        if install:
            self._waiting.setdefault(key, deque()).append(message.ecc)
        self.instance.write(route.out_port, MGMT_ELEMENT, raw)
        self._trace("forwarded", swc=swc, size=len(raw))

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
                if self._waiting:
                    self._answered(msg.decode(raw))
                # Acks and diagnostic reports travel back on type I;
                # relay both verbatim to the trusted server.
                self.send_up(raw)
                self.acks_forwarded += 1

    def _answered(self, message: msg.Message) -> None:
        """A forwarded install's answer takes the oldest ECC waiting
        for its plug-in, and an OK adopts it."""
        if not (
            isinstance(message, msg.AckMessage)
            and message.op is msg.MessageType.INSTALL
        ):
            return
        key = (message.target_swc, message.plugin_name)
        waiting = self._waiting.get(key)
        if not waiting:
            return
        ecc = waiting.popleft()
        if not waiting:
            del self._waiting[key]
        if message.ok:
            self._adopt(key, ecc)

    # -- external data routing ---------------------------------------------------

    def route_external_in(self, name: str, value: int) -> None:
        """Route an inbound named external message via the ECC."""
        for ecc in self._ecc.values():
            entry = ecc.route_for(name)
            if entry is not None:
                break
        else:
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

    Its ports are the base spec's, then a provided/required type I pair
    per route.  A ``connect`` runnable dials the trusted server at ECU
    start-up; its init event runs after ``init``'s, on the same task, so
    the PIRTE exists by then.
    """

    def factory(instance: ComponentInstance) -> EcmPirte:
        return EcmPirte(instance, spec, fabric, client_name)

    ctype = make_pirte_host_type(
        spec.base,
        factory,
        [
            *spec.base.swc_ports(),
            *(port for route in spec.routes for port in route.ports()),
        ],
    )

    def connect_body(instance: ComponentInstance) -> None:
        instance.state[PIRTE_KEY].uplink.dial()

    ctype.add_runnable(Runnable("connect", connect_body, execution_time_us=100))
    ctype.add_event(InitEvent("connect"))
    return ctype


__all__ = ["SwcRoute", "EcmSpec", "EcmPirte", "make_ecm_swc_type"]
