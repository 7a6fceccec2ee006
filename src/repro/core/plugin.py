"""Plug-in runtime objects, their life cycle and the management contract.

A :class:`Plugin` couples a verified binary with its VM instance, its
installation package (deployment contexts PIC/PLC/ECC included), and
its runtime ports.  The life cycle follows the paper's pragmatic model:
install -> run, stop before any update, uninstall removes everything
(no state transfer; a re-installed plug-in "restarts fresh", Sec. 5).

:class:`PluginTable` is the vehicle side of the management protocol,
written once for every simulation fidelity: the full PIRTE and the
statistical vehicle both answer INSTALL, UNINSTALL, START and STOP
through it.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Union

from repro.core import messages as msg
from repro.errors import LifecycleError
from repro.vm.loader import PluginBinary
from repro.vm.machine import Vm

#: Entry point names the PIRTE knows how to drive.
ENTRY_ON_INIT = "on_init"
ENTRY_ON_MESSAGE = "on_message"
ENTRY_ON_TIMER = "on_timer"


class PluginState(enum.Enum):
    """Life-cycle states of an installed plug-in."""

    INSTALLED = "installed"   # binary accepted, contexts applied
    RUNNING = "running"       # receives activations
    STOPPED = "stopped"       # retained but not activated
    UNINSTALLED = "uninstalled"


#: START and STOP: the states each may leave, and the state it enters.
_TRANSITIONS = {
    msg.MessageType.START: (
        (PluginState.INSTALLED, PluginState.STOPPED), PluginState.RUNNING,
    ),
    msg.MessageType.STOP: ((PluginState.RUNNING,), PluginState.STOPPED),
}


def next_state(
    name: str, state: PluginState, op: msg.MessageType
) -> PluginState:
    """The state START or STOP moves plug-in ``name`` to from ``state``;
    :class:`LifecycleError` when the rule forbids it."""
    sources, target = _TRANSITIONS[op]
    if state not in sources:
        raise LifecycleError(
            f"cannot {op.name.lower()} plug-in {name} in state {state.value}"
        )
    return target


class PluginPort:
    """One runtime plug-in port: a bounded value queue plus last-value.

    ``global_id`` is the SW-C-scope unique id assigned in the PIC;
    ``local_index`` is what the plug-in's bytecode references.
    """

    def __init__(
        self,
        name: str,
        global_id: int,
        local_index: int,
        queue_length: int = 32,
    ) -> None:
        self.name = name
        self.global_id = global_id
        self.local_index = local_index
        self.queue: Deque[int] = deque(maxlen=queue_length)
        self.last_value = 0
        self.received = 0
        self.dropped = 0
        self.written = 0

    def record(self, value: int) -> None:
        """Note a delivered value (last-value semantics, no queueing).

        Used when the value is handed to the plug-in as an
        ``on_message`` activation argument — queueing it as well would
        fill the queue with values nobody RECVs.
        """
        self.last_value = value
        self.received += 1

    def push(self, value: int) -> bool:
        """Queue a value for RECV-style polling; False when full."""
        if len(self.queue) == self.queue.maxlen:
            self.dropped += 1
            return False
        self.queue.append(value)
        self.last_value = value
        self.received += 1
        return True

    def pop(self) -> int:
        """Oldest queued value (0 when empty, matching the VM's RECV)."""
        if not self.queue:
            return 0
        return self.queue.popleft()

    def pending(self) -> int:
        return len(self.queue)


class Plugin:
    """One installed plug-in inside a PIRTE."""

    def __init__(
        self, package: msg.InstallMessage, binary: PluginBinary, vm: Vm
    ) -> None:
        self.package = package
        self.name = package.plugin_name
        self.version = package.version
        self.binary = binary
        self.pic = package.pic
        self.plc = package.plc
        self.vm = vm
        self.state = PluginState.INSTALLED
        self.ports: list[PluginPort] = [
            PluginPort(entry.name, entry.port_id, index)
            for index, entry in enumerate(package.pic.entries)
        ]
        self.failed_activations = 0

    def port_by_id(self, global_id: int) -> PluginPort:
        """The runtime port with SW-C-scope ``global_id``."""
        for port in self.ports:
            if port.global_id == global_id:
                return port
        raise LifecycleError(
            f"plug-in {self.name} has no port with id {global_id}"
        )

    def port_by_local(self, local_index: int) -> PluginPort:
        """The runtime port at VM index ``local_index``."""
        if not 0 <= local_index < len(self.ports):
            raise LifecycleError(
                f"plug-in {self.name} has no local port {local_index}"
            )
        return self.ports[local_index]

    @property
    def running(self) -> bool:
        return self.state is PluginState.RUNNING

    def start(self) -> None:
        """INSTALLED/STOPPED -> RUNNING."""
        self.state = next_state(self.name, self.state, msg.MessageType.START)

    def stop(self) -> None:
        """RUNNING -> STOPPED (mandatory before update, paper Sec. 5)."""
        self.state = next_state(self.name, self.state, msg.MessageType.STOP)

    def mark_uninstalled(self) -> None:
        """Any state -> UNINSTALLED (terminal)."""
        self.state = PluginState.UNINSTALLED

    def __repr__(self) -> str:
        return (
            f"<Plugin {self.name} v{self.version} {self.state.value} "
            f"ports={len(self.ports)}>"
        )


ManagementMessage = Union[
    msg.InstallMessage, msg.UninstallMessage, msg.LifecycleMessage
]

#: The messages a :class:`PluginTable` answers, for ``isinstance``.
MANAGEMENT = (msg.InstallMessage, msg.UninstallMessage, msg.LifecycleMessage)


def unhosted(message: ManagementMessage) -> msg.AckMessage:
    """The ack to a message for a SW-C the vehicle does not host."""
    return msg.AckMessage(
        message.plugin_name, message.target_swc, message.msg_type,
        msg.AckStatus.UNKNOWN_PLUGIN,
        f"vehicle hosts no plug-in SW-C {message.target_swc!r}",
    )


class PluginTable:
    """Plug-ins keyed by SW-C and name: the vehicle side of INSTALL,
    UNINSTALL, START and STOP at every fidelity.

    :meth:`answer` is the whole contract.  An INSTALL of an absent
    plug-in goes to :meth:`admit`; an identical package delivered again
    is acked OK and changes nothing, and a different package under an
    installed name is refused with ``LIFECYCLE_ERROR``.  UNINSTALL,
    START and STOP of an absent plug-in get ``UNKNOWN_PLUGIN``; START
    and STOP follow :func:`next_state`.  Every ack carries the
    message's own op, plug-in and SW-C.

    A subclass keeps the table: :meth:`held` (the installed package and
    state of one plug-in, or None), :meth:`admit` (its own checks or
    draws for a new plug-in, and the ack), :meth:`remove` and
    :meth:`enter` (a new state).
    """

    def answer(self, message: ManagementMessage) -> msg.AckMessage:
        """Apply one management message; the ack to send back."""
        swc, name, op = message.target_swc, message.plugin_name, message.msg_type
        held = self.held(swc, name)
        status, detail = msg.AckStatus.OK, ""
        if op is msg.MessageType.INSTALL:
            if held is None:
                return self.admit(message)
            if held[0] != message:
                status = msg.AckStatus.LIFECYCLE_ERROR
                detail = (
                    f"plug-in {name} is installed from another package; "
                    f"uninstall it before updating"
                )
        elif held is None:
            status = msg.AckStatus.UNKNOWN_PLUGIN
            detail = f"no plug-in {name!r} in {swc}"
        elif op is msg.MessageType.UNINSTALL:
            self.remove(swc, name)
        else:
            try:
                self.enter(swc, name, next_state(name, held[1], op))
            except LifecycleError as exc:
                status, detail = msg.AckStatus.LIFECYCLE_ERROR, str(exc)
        return msg.AckMessage(name, swc, op, status, detail)


__all__ = [
    "MANAGEMENT",
    "ManagementMessage",
    "PluginTable",
    "next_state",
    "unhosted",
    "ENTRY_ON_INIT",
    "ENTRY_ON_MESSAGE",
    "ENTRY_ON_TIMER",
    "PluginState",
    "PluginPort",
    "Plugin",
]
