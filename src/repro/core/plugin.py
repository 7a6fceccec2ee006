"""Plug-in runtime objects and their life cycle.

A :class:`Plugin` couples a verified binary with its VM instance, its
deployment contexts (PIC/PLC), and its runtime ports.  The life cycle
follows the paper's pragmatic model: install -> run, stop before any
update, uninstall removes everything (no state transfer; a re-installed
plug-in "restarts fresh", Sec. 5).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque

from repro.core.context import Ecc, Pic, Plc
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
        self,
        name: str,
        version: str,
        binary: PluginBinary,
        pic: Pic,
        plc: Plc,
        ecc: Ecc,
        vm: Vm,
    ) -> None:
        self.name = name
        self.version = version
        self.binary = binary
        self.pic = pic
        self.plc = plc
        self.ecc = ecc
        self.vm = vm
        self.state = PluginState.INSTALLED
        self.ports: list[PluginPort] = [
            PluginPort(entry.name, entry.port_id, index)
            for index, entry in enumerate(pic.entries)
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
        if self.state not in (PluginState.INSTALLED, PluginState.STOPPED):
            raise LifecycleError(
                f"cannot start plug-in {self.name} in state {self.state.value}"
            )
        self.state = PluginState.RUNNING

    def stop(self) -> None:
        """RUNNING -> STOPPED (mandatory before update, paper Sec. 5)."""
        if self.state is not PluginState.RUNNING:
            raise LifecycleError(
                f"cannot stop plug-in {self.name} in state {self.state.value}"
            )
        self.state = PluginState.STOPPED

    def mark_uninstalled(self) -> None:
        """Any state -> UNINSTALLED (terminal)."""
        self.state = PluginState.UNINSTALLED

    def __repr__(self) -> str:
        return (
            f"<Plugin {self.name} v{self.version} {self.state.value} "
            f"ports={len(self.ports)}>"
        )


__all__ = [
    "ENTRY_ON_INIT",
    "ENTRY_ON_MESSAGE",
    "ENTRY_ON_TIMER",
    "PluginState",
    "PluginPort",
    "Plugin",
]
