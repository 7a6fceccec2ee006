"""Runtime ECU: the container of OS, BSW, RTE, and component instances.

An :class:`Ecu` is assembled by the system builder; application code
interacts with it through its component instances and, for the dynamic
component model, through the PIRTE living inside a plug-in SW-C.  Every
ECU sits on the system's CAN bus, so its RTE reaches the other ECUs
through COM and CanIf.  Its CPU owns the kernel events of its alarms
(each an :class:`~repro.autosar.os.task.Activation` of a mapped task)
and of its completions, and parks them while every periodic runnable
is idle (see :mod:`repro.autosar.os.scheduler`).
"""

from __future__ import annotations

from typing import Optional

from repro.autosar.bsw.com import ComStack
from repro.autosar.os.alarm import AlarmManager
from repro.autosar.os.scheduler import Cpu
from repro.autosar.os.task import Task
from repro.autosar.rte.rte import Rte
from repro.autosar.swc import ComponentInstance
from repro.can.bus import CanBus
from repro.can.controller import CanController
from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.telemetry.bus import TelemetryBus


class Ecu:
    """One electronic control unit at run time."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        bus: CanBus,
        tracer: Optional[TelemetryBus] = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.tracer = tracer
        self.cpu = Cpu(sim, f"{name}.cpu", tracer)
        self.alarms = AlarmManager(sim)
        self.controller = CanController(f"{name}.can")
        bus.attach(self.controller)
        self.com = ComStack(self.controller)
        self.canif = self.com.canif
        self.rte = Rte(name, sim, self.com.send_signal, tracer)
        self.instances: dict[str, ComponentInstance] = {}
        self.tasks: dict[str, Task] = {}
        self._boot_actions: list = []
        self.booted = False

    def add_instance(
        self, instance: ComponentInstance, task: Task
    ) -> None:
        """Register a component instance and its mapped OS task."""
        if instance.name in self.instances:
            raise ConfigurationError(
                f"duplicate instance {instance.name!r} on ECU {self.name}"
            )
        self.instances[instance.name] = instance
        self.tasks[instance.name] = task
        self.cpu.add_task(task)
        instance.cpu = self.cpu
        self.rte.register_instance(instance)

    def instance(self, name: str) -> ComponentInstance:
        """Look up a component instance by name."""
        try:
            return self.instances[name]
        except KeyError:
            raise ConfigurationError(
                f"ECU {self.name} has no instance {name!r}"
            ) from None

    def task_for(self, instance_name: str) -> Task:
        """The OS task mapped to ``instance_name``."""
        try:
            return self.tasks[instance_name]
        except KeyError:
            raise ConfigurationError(
                f"ECU {self.name} has no task for instance {instance_name!r}"
            ) from None

    def at_boot(self, action) -> None:
        """Queue an action to run when :meth:`boot` is called."""
        self._boot_actions.append(action)

    def boot(self) -> None:
        """Start the ECU: run init activations and arm periodic alarms."""
        if self.booted:
            return
        self.booted = True
        if self.tracer is not None:
            self.tracer.publish("ecu", "boot", self.sim.now, ecu=self.name)
        for action in self._boot_actions:
            action()

    def __repr__(self) -> str:
        return f"<Ecu {self.name} instances={len(self.instances)}>"


__all__ = ["Ecu"]
