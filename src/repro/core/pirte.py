"""The Plug-in Runtime Environment (PIRTE).

The PIRTE is the paper's dynamically evolving middleware inside each
plug-in SW-C.  Its *static part* is the virtual-port table declared by
the OEM; its *dynamic part* installs, links, activates, and removes
plug-ins using the shipped contexts.

One PIRTE instance lives in the ``state`` dict of its host
:class:`~repro.autosar.swc.ComponentInstance`; the host component's
runnables call :meth:`step` (message processing + VM execution) and
:meth:`timer_tick` (periodic plug-in activations).  :meth:`idle` and
:meth:`timer_idle` tell when those calls would do nothing, which lets
the host CPU park while both hold; every entry point that changes that
state from outside the PIRTE's own runnables wakes the host CPU first.

Routing summary (paper Sec. 3.1.3):

* plug-in write -> PLC link ->
  - another plug-in port on the same SW-C (direct queue delivery),
  - SERVICE_OUT virtual port (translate, Rte_Write on the type III port),
  - RELAY_OUT virtual port + remote id (attach id, Rte_Write on the
    type II port),
  - unconnected (PIRTE-direct; the ECM overrides this for external I/O).
* type II SW-C data -> strip id -> plug-in port with that id.
* type III SW-C data -> SERVICE_IN virtual port -> every plug-in port
  linked to it.
* type I SW-C data -> management protocol (install/uninstall/start/stop/
  external data relay).

Everything a PIRTE sends toward the trusted server, acks and diagnostic
reports, leaves through :meth:`Pirte.send_up`: a plug-in SW-C writes it
to its type I out port, and the ECM (see :mod:`repro.core.ecm`) sends it
on its server link.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.autosar.bsw.memory import Allocation, MemoryPool
from repro.autosar.interfaces import DataElement, SenderReceiverInterface
from repro.autosar.swc import ComponentInstance
from repro.autosar.types import BYTES
from repro.core import messages as msg
from repro.core.context import LinkKind
from repro.core.plugin import (
    ENTRY_ON_INIT,
    ENTRY_ON_MESSAGE,
    ENTRY_ON_TIMER,
    MANAGEMENT,
    Plugin,
    PluginState,
    PluginTable,
)
from repro.core.virtual_ports import (
    GuardState,
    VirtualPortKind,
    VirtualPortSpec,
    decode_relay,
    encode_relay,
)
from repro.errors import (
    BinaryFormatError,
    ContextError,
    LifecycleError,
    MemoryPoolError,
    RoutingError,
    VmTrap,
)
from repro.vm.loader import unpack
from repro.vm.machine import Vm

#: The one data element of the type I interface: management messages,
#: acks and diagnostic reports between the ECM and each plug-in SW-C.
MGMT_ELEMENT = "mgmt"
#: A plug-in SW-C's type I port pair: management messages from the ECM
#: arrive on the in port; acks and reports leave on the out port.
MGMT_IN = "mgmt_in"
MGMT_OUT = "mgmt_out"
#: The type I interface.
MGMT_IF = SenderReceiverInterface(
    "PluginMgmtIf",
    [DataElement(MGMT_ELEMENT, BYTES, queued=True, queue_length=64)],
)


class _Bridge:
    """Per-plug-in VM port bridge wired into the PIRTE router.

    Port indices come straight from plug-in bytecode (WRPORT/RDPORT/
    RECV operands), so an index beyond the PIC is a plug-in fault, not a
    platform fault: it must trap the activation (best-effort contract)
    rather than escape the PIRTE as a raw :class:`LifecycleError`.
    """

    def __init__(self, pirte: "Pirte", plugin: Plugin) -> None:
        self._pirte = pirte
        self._plugin = plugin

    def _port(self, index: int):
        try:
            return self._plugin.port_by_local(index)
        except LifecycleError as exc:
            raise VmTrap(str(exc)) from None

    def read_port(self, index: int) -> int:
        return self._port(index).last_value

    def write_port(self, index: int, value: int) -> None:
        self._port(index)  # bounds check before routing
        self._pirte.plugin_write(self._plugin, index, value)

    def pending(self, index: int) -> int:
        return self._port(index).pending()

    def receive(self, index: int) -> int:
        return self._port(index).pop()


class Pirte(PluginTable):
    """Plug-in runtime environment hosted in one plug-in SW-C.

    Its :class:`~repro.core.plugin.PluginTable` is the SW-C's own
    plug-ins: the management contract holds here, and :meth:`admit`
    adds the full fidelity's binary, context and memory checks.
    """

    #: VM activations one :meth:`step` runs at most; the rest wait for
    #: the next step.
    max_activations_per_step = 64

    def __init__(
        self,
        instance: ComponentInstance,
        virtual_ports: list[VirtualPortSpec],
        vm_memory_blocks: int = 512,
        vm_block_size: int = 64,
        fuel_per_activation: int = 20_000,
    ) -> None:
        self.instance = instance
        self.virtual_ports: dict[str, VirtualPortSpec] = {}
        for spec in virtual_ports:
            if spec.name in self.virtual_ports:
                raise ContextError(f"duplicate virtual port {spec.name!r}")
            self.virtual_ports[spec.name] = spec
        #: This PIRTE's own enforcement state per guarded virtual port;
        #: the specs' guards are shared policies.
        self.guards: dict[str, GuardState] = {
            spec.name: GuardState(spec.guard)
            for spec in virtual_ports
            if spec.guard is not None
        }
        # "The VM is assigned its own memory" (Sec. 3.1.1): a pool owned
        # by this SW-C, charged per installed plug-in.
        self.pool = MemoryPool(
            f"{instance.name}.vm", vm_block_size, vm_memory_blocks
        )
        self.fuel_per_activation = fuel_per_activation
        self.plugins: dict[str, Plugin] = {}
        self._allocations: dict[str, Allocation] = {}
        self._ports_by_id: dict[int, Plugin] = {}
        #: queued VM activations: (plugin, entry, args)
        self._pending: Deque[tuple[Plugin, str, tuple[int, ...]]] = deque()
        self.installs = 0
        self.uninstalls = 0
        self.activations_run = 0
        self.trapped_activations = 0
        self.messages_routed = 0
        self.dropped_messages = 0
        self.guard_rejections = 0
        #: Lazy (buffer, spec) caches for :meth:`_drain_swc_inputs` —
        #: the dispatch runnable polls every period, and resolving
        #: port -> element buffer through three dict lookups per poll
        #: dominates idle ticks.  Ports and virtual_ports are fixed
        #: after construction, so the resolved buffers never go stale.
        self._mgmt_buffer = None
        self._in_buffers: Optional[list] = None

    # -- conveniences ------------------------------------------------------

    @property
    def swc_name(self) -> str:
        return self.instance.name

    @property
    def ecu_name(self) -> str:
        rte = self.instance.rte
        return rte.ecu_name if rte is not None else "?"

    def _now(self) -> int:
        rte = self.instance.rte
        return rte.sim.now if rte is not None else 0

    def _wake(self) -> None:
        """Let a parked host CPU settle and resume before state changes."""
        cpu = self.instance.cpu
        if cpu is not None:
            cpu.wake()

    def _trace(self, name: str, **data: Any) -> None:
        rte = self.instance.rte
        if rte is not None and rte.tracer is not None:
            data.setdefault("swc", self.swc_name)
            rte.tracer.publish("pirte", name, rte.sim.now, **data)

    def plugin(self, name: str) -> Plugin:
        """Look up an installed plug-in by name."""
        try:
            return self.plugins[name]
        except KeyError:
            raise LifecycleError(
                f"no plug-in named {name!r} in {self.swc_name}"
            ) from None

    def virtual_port(self, name: str) -> VirtualPortSpec:
        """Look up a virtual port of the static API."""
        try:
            return self.virtual_ports[name]
        except KeyError:
            raise ContextError(
                f"{self.swc_name} has no virtual port {name!r}"
            ) from None

    # -- installation (dynamic part) ----------------------------------------

    def install(self, message: msg.InstallMessage) -> msg.AckMessage:
        """Install a plug-in from its installation package.

        Never raises for package-level problems; failures are reported
        as negative acks so they travel back to the trusted server.
        """
        return self.answer(message)

    def held(
        self, swc: str, name: str
    ) -> Optional[tuple[msg.InstallMessage, PluginState]]:
        plugin = self.plugins.get(name)
        return None if plugin is None else (plugin.package, plugin.state)

    def admit(self, message: msg.InstallMessage) -> msg.AckMessage:
        """Check and install a plug-in this SW-C does not hold yet."""
        self._wake()

        def nack(status: msg.AckStatus, detail: str) -> msg.AckMessage:
            self._trace(
                "install_failed", plugin=message.plugin_name, detail=detail
            )
            return msg.AckMessage(
                message.plugin_name, message.target_swc,
                msg.MessageType.INSTALL, status, detail,
            )

        try:
            binary = unpack(message.binary)
        except BinaryFormatError as exc:
            return nack(msg.AckStatus.BAD_PACKAGE, str(exc))
        try:
            self._validate_contexts(message)
        except ContextError as exc:
            return nack(msg.AckStatus.CONTEXT_ERROR, str(exc))
        footprint = binary.size + 4 * binary.mem_hint
        try:
            allocation = self.pool.allocate(footprint)
        except MemoryPoolError as exc:
            return nack(msg.AckStatus.OUT_OF_MEMORY, str(exc))

        vm = Vm(
            binary,
            fuel_per_activation=self.fuel_per_activation,
            time_source=self._now,
        )
        plugin = Plugin(message, binary, vm)
        self.plugins[plugin.name] = plugin
        self._allocations[plugin.name] = allocation
        for port in plugin.ports:
            self._ports_by_id[port.global_id] = plugin
        self.installs += 1
        plugin.start()
        if binary.has_entry(ENTRY_ON_INIT):
            self._pending.append((plugin, ENTRY_ON_INIT, ()))
        self._trace("installed", plugin=plugin.name, size=binary.size)
        return msg.AckMessage(
            plugin.name, message.target_swc, msg.MessageType.INSTALL,
            msg.AckStatus.OK,
        )

    def _validate_contexts(self, message: msg.InstallMessage) -> None:
        for entry in message.pic.entries:
            if entry.port_id in self._ports_by_id:
                raise ContextError(
                    f"port id {entry.port_id} already in use in "
                    f"{self.swc_name} (PIC collision)"
                )
        pic_ids = {entry.port_id for entry in message.pic.entries}
        for link in message.plc.links:
            if link.source_port_id not in pic_ids:
                raise ContextError(
                    f"PLC references port {link.source_port_id} missing "
                    f"from the PIC"
                )
            if link.kind in (LinkKind.VIRTUAL, LinkKind.VIRTUAL_REMOTE):
                spec = self.virtual_ports.get(link.target_virtual)
                if spec is None:
                    raise ContextError(
                        f"PLC targets unknown virtual port "
                        f"{link.target_virtual!r}"
                    )
                if (
                    link.kind is LinkKind.VIRTUAL_REMOTE
                    and spec.kind is not VirtualPortKind.RELAY_OUT
                ):
                    raise ContextError(
                        f"remote-id link {link.describe()} must target a "
                        f"relay-out virtual port"
                    )
            if link.kind is LinkKind.PLUGIN_PORT:
                if (
                    link.target_port_id not in pic_ids
                    and link.target_port_id not in self._ports_by_id
                ):
                    raise ContextError(
                        f"PLC links to unknown plug-in port "
                        f"{link.target_port_id}"
                    )

    def uninstall(self, plugin_name: str) -> msg.AckMessage:
        """Remove a plug-in: stop, unlink, release memory."""
        return self.answer(
            msg.UninstallMessage(plugin_name, self.ecu_name, self.swc_name)
        )

    def remove(self, swc: str, name: str) -> None:
        self._wake()
        plugin = self.plugins.pop(name)
        for port in plugin.ports:
            self._ports_by_id.pop(port.global_id, None)
        self._pending = deque(
            (p, entry, args)
            for p, entry, args in self._pending
            if p is not plugin
        )
        self.pool.release(self._allocations.pop(name))
        plugin.mark_uninstalled()
        self.uninstalls += 1
        self._trace("uninstalled", plugin=name)

    def set_state(self, plugin_name: str, op: msg.MessageType) -> msg.AckMessage:
        """Apply a START or STOP request."""
        return self.answer(
            msg.LifecycleMessage(op, plugin_name, self.ecu_name, self.swc_name)
        )

    def enter(self, swc: str, name: str, state: PluginState) -> None:
        self._wake()
        self.plugins[name].state = state
        self._trace("state_change", plugin=name, state=state.value)

    # -- routing: plug-in -> out ---------------------------------------------

    def plugin_write(self, plugin: Plugin, local_index: int, value: int) -> None:
        """Route a value written by the VM on its local port."""
        port = plugin.port_by_local(local_index)
        port.written += 1
        link = plugin.plc.link_for(port.global_id)
        self.messages_routed += 1
        if link is None or link.kind is LinkKind.UNCONNECTED:
            self.handle_direct_write(plugin, port.global_id, value)
            return
        if link.kind is LinkKind.PLUGIN_PORT:
            self.deliver_to_port(link.target_port_id, value)
            return
        spec = self.virtual_port(link.target_virtual)
        if spec.kind is VirtualPortKind.SERVICE_OUT:
            if spec.guard is not None and not self.guards[spec.name].check(
                value, self._now()
            ):
                # Fault protection (paper Sec. 3.1.1): the critical
                # signal never reaches the built-in software.
                self.guard_rejections += 1
                self._trace(
                    "guard_rejected", plugin=plugin.name,
                    virtual=spec.name, value=value,
                )
                return
            self.instance.write(
                spec.swc_port, spec.element, spec.translate_out(value)
            )
        elif spec.kind is VirtualPortKind.RELAY_OUT:
            if link.kind is not LinkKind.VIRTUAL_REMOTE:
                raise RoutingError(
                    f"relay link {link.describe()} lacks a remote port id"
                )
            self.instance.write(
                spec.swc_port,
                spec.element,
                encode_relay(link.target_port_id, value),
            )
        else:
            raise RoutingError(
                f"plug-in {plugin.name} wrote to inbound virtual port "
                f"{spec.name}"
            )

    def handle_direct_write(
        self, plugin: Plugin, global_port_id: int, value: int
    ) -> None:
        """Unconnected-port write: plain PIRTEs drop it with a trace.

        The ECM PIRTE overrides this to route externally via the ECC.
        """
        self.dropped_messages += 1
        self._trace(
            "direct_write_dropped", plugin=plugin.name,
            port=global_port_id, value=value,
        )

    # -- routing: in -> plug-in ----------------------------------------------

    def deliver_to_port(self, global_port_id: int, value: int) -> None:
        """Deliver a value to the plug-in port with ``global_port_id``.

        Running plug-ins with an ``on_message`` entry get the value as
        an activation argument; others (polling-style plug-ins and
        stopped plug-ins) get it queued on the port for RECV.
        """
        self._wake()
        plugin = self._ports_by_id.get(global_port_id)
        if plugin is None:
            self.dropped_messages += 1
            self._trace("no_such_port", port=global_port_id)
            return
        port = plugin.port_by_id(global_port_id)
        if plugin.running and plugin.binary.has_entry(ENTRY_ON_MESSAGE):
            port.record(value)
            self._pending.append(
                (plugin, ENTRY_ON_MESSAGE, (port.local_index, value))
            )
        elif not port.push(value):
            self.dropped_messages += 1

    # -- periodic processing ---------------------------------------------------

    def step(self) -> int:
        """Process incoming SW-C data, then run pending VM activations.

        Returns the number of VM activations executed.  This is the body
        of the host component's dispatch runnable.
        """
        self._drain_swc_inputs()
        return self._run_pending()

    def timer_tick(self) -> int:
        """Queue ``on_timer`` for every running plug-in, then step."""
        for plugin in self.plugins.values():
            if plugin.running and plugin.binary.has_entry(ENTRY_ON_TIMER):
                self._pending.append((plugin, ENTRY_ON_TIMER, ()))
        return self.step()

    def idle(self) -> bool:
        """Whether :meth:`step` would do nothing now.

        True when no activation is pending and every input buffer is
        empty.  Until the first step has resolved the buffers, false.
        """
        in_buffers = self._in_buffers
        if self._pending or in_buffers is None:
            return False
        mgmt = self._mgmt_buffer
        if mgmt is not None and mgmt.pending():
            return False
        for __, buffer in in_buffers:
            if buffer.pending():
                return False
        return True

    def timer_idle(self) -> bool:
        """Whether :meth:`timer_tick` would do nothing now."""
        if not self.idle():
            return False
        for plugin in self.plugins.values():
            if plugin.running and plugin.binary.has_entry(ENTRY_ON_TIMER):
                return False
        return True

    def _resolve_in_buffers(self) -> list:
        """Resolve the receive buffers the drain loop polls (once)."""
        instance = self.instance
        if MGMT_IN in instance.ports:  # the ECM has no type I in port
            self._mgmt_buffer = instance.port(MGMT_IN).buffer(MGMT_ELEMENT)
        buffers = []
        for spec in self.virtual_ports.values():
            if spec.kind in (VirtualPortKind.RELAY_IN, VirtualPortKind.SERVICE_IN):
                buffers.append(
                    (spec, instance.port(spec.swc_port).buffer(spec.element))
                )
        self._in_buffers = buffers
        return buffers

    def _drain_swc_inputs(self) -> None:
        in_buffers = self._in_buffers
        if in_buffers is None:
            in_buffers = self._resolve_in_buffers()
        instance = self.instance
        # Management traffic (type I).
        mgmt = self._mgmt_buffer
        if mgmt is not None:
            while mgmt.pending():
                raw = instance.receive(MGMT_IN, MGMT_ELEMENT)
                self.handle_management(raw)
        # Relay (type II) and service (type III) inbound virtual ports.
        for spec, buffer in in_buffers:
            if spec.kind is VirtualPortKind.RELAY_IN:
                while buffer.pending():
                    payload = instance.receive(spec.swc_port, spec.element)
                    port_id, value = decode_relay(payload)
                    self.deliver_to_port(port_id, value)
            else:
                while buffer.pending():
                    raw_value = instance.receive(spec.swc_port, spec.element)
                    self._deliver_from_service(spec, raw_value)

    def _deliver_from_service(self, spec: VirtualPortSpec, raw_value: Any) -> None:
        value = spec.translate_in(raw_value)
        delivered = False
        for plugin in self.plugins.values():
            for link in plugin.plc.links_to_virtual(spec.name):
                self.deliver_to_port(link.source_port_id, value)
                delivered = True
        if not delivered:
            self.dropped_messages += 1
            self._trace("service_in_unclaimed", virtual=spec.name)

    def _run_pending(self) -> int:
        executed = 0
        while self._pending and executed < self.max_activations_per_step:
            plugin, entry, args = self._pending.popleft()
            if not plugin.running:
                continue
            bridge = _Bridge(self, plugin)
            try:
                plugin.vm.activate(entry, bridge, args=args)
            except VmTrap as exc:
                # Best-effort contract: the plug-in loses its activation,
                # nothing else is affected.
                plugin.failed_activations += 1
                self.trapped_activations += 1
                self._trace(
                    "activation_trapped", plugin=plugin.name,
                    entry=entry, error=str(exc),
                )
            executed += 1
            self.activations_run += 1
        return executed

    @property
    def backlog(self) -> int:
        """Pending VM activations not yet executed."""
        return len(self._pending)

    # -- management protocol ----------------------------------------------------

    def handle_management(self, raw: bytes) -> None:
        """Process one type I management message."""
        message = msg.decode(raw)
        if isinstance(message, MANAGEMENT):
            self.send_up(self.answer(message).encode())
        elif isinstance(message, msg.DataMessage):
            self.deliver_to_port(message.port_id, message.value)
        else:  # An ack or a report arriving at a plug-in SW-C: ignore.
            self._trace("unexpected_ack")

    def send_up(self, raw: bytes) -> None:
        """Send an encoded ack or report toward the trusted server: over
        the type I out port, to the ECM, which relays it."""
        self.instance.write(MGMT_OUT, MGMT_ELEMENT, raw)

    # -- diagnostics ---------------------------------------------------------------

    def book_fault(
        self, name: str, traps: int, fuel: int, blocks: int
    ) -> Optional[int]:
        """Book a soak fault on plug-in ``name`` the way a real one
        lands: ``traps`` trapped activations (VM, plug-in and PIRTE
        counters), ``fuel`` extra VM fuel, and up to ``blocks`` leaked
        from this SW-C's VM pool for good.  The blocks leaked, or None
        without such a plug-in."""
        plugin = self.plugins.get(name)
        if plugin is None:
            return None
        plugin.vm.activations += traps
        plugin.vm.traps += traps
        plugin.failed_activations += traps
        self.trapped_activations += traps
        plugin.vm.total_fuel_used += fuel
        leaked = min(blocks, self.pool.free_blocks)
        if leaked:
            self.pool.allocate(leaked * self.pool.block_size)
        return leaked

    def diagnostic_report(self) -> msg.DiagMessage:
        """Current health snapshot of this SW-C's dynamic state."""
        return msg.DiagMessage(
            source_ecu=self.ecu_name,
            source_swc=self.swc_name,
            memory_used_blocks=self.pool.used_blocks,
            memory_free_blocks=self.pool.free_blocks,
            plugins=tuple(
                msg.PluginHealth(
                    plugin.name,
                    plugin.state.value,
                    plugin.vm.activations,
                    plugin.vm.traps,
                    plugin.vm.total_fuel_used,
                )
                for plugin in self.plugins.values()
            ),
        )

    def emit_diagnostics(self) -> None:
        """Send a diagnostic report toward the trusted server.

        The paper lists "transfer of diagnostic messages" as a type I
        use case; the ECM relays these reports to the trusted server.
        """
        self.send_up(self.diagnostic_report().encode())


__all__ = ["MGMT_ELEMENT", "MGMT_IF", "MGMT_IN", "MGMT_OUT", "Pirte"]
