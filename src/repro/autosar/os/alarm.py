"""OSEK counters and alarms.

Alarms drive periodic task activation: the RTE generator maps each
AUTOSAR timing event to an alarm whose action is an
:class:`~repro.autosar.os.task.Activation` of the mapped task with the
runnable's work item.  Alarms may be one-shot or cyclic, and can be
cancelled and re-set at runtime.

An alarm with an ``Activation`` action is a *chain* of the task's CPU:
its expiries are that CPU's kernel events (keyed by the CPU's own
count), and a CPU whose chains are all idle parks them, queueing no
expiry until the next touch (see :mod:`repro.autosar.os.scheduler`).
Reading :attr:`Alarm.expirations`, arming and cancelling touch the CPU
first, so they see and act on what the ticking scheduler would have
done by now.  An alarm with any other action is a plain shared-owner
kernel event.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.autosar.os.task import Activation
from repro.errors import OsekError
from repro.sim.kernel import EventHandle, Simulator


class Alarm:
    """A single alarm bound to an action callback."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        action: Callable[[], None],
    ) -> None:
        self.sim = sim
        self.name = name
        self.action = action
        #: The CPU this alarm is a chain of, when it activates work.
        self.cpu = action.task.cpu if isinstance(action, Activation) else None
        #: Where expiries are queued: the CPU's owner handle, or the
        #: simulator (shared owner).
        self._queue = sim if self.cpu is None else self.cpu.events
        self._handle: Optional[EventHandle] = None
        self._cycle_us = 0
        self._expirations = 0
        self.armed = False
        #: Whether the pending expiry was queued by the previous one
        #: (not by set_relative): the CPU parks only steady chains.
        self.steady = False
        # Precomputed once: a cyclic alarm re-schedules every expiration,
        # and building the label f-string per tick shows up in profiles.
        self._label = f"alarm:{name}"

    @property
    def expirations(self) -> int:
        """How many times the alarm has expired."""
        cpu = self.cpu
        if cpu is not None and cpu._parked is not None:
            cpu.wake()
        return self._expirations

    def set_relative(self, offset_us: int, cycle_us: int = 0) -> None:
        """OSEK SetRelAlarm: fire after ``offset_us``; repeat every
        ``cycle_us`` when non-zero."""
        if self.armed:
            raise OsekError(f"alarm {self.name} is already armed")
        if offset_us < 0 or cycle_us < 0:
            raise OsekError(f"alarm {self.name}: negative offset or cycle")
        cpu = self.cpu
        if cpu is not None:
            cpu.wake()
        self._cycle_us = cycle_us
        self.armed = True
        self.steady = False
        self._handle = self._queue.schedule(
            offset_us, self._expire, self._label
        )
        if cpu is not None:
            cpu.add_chain(self)

    def cancel(self) -> None:
        """OSEK CancelAlarm: disarm; no-op when not armed."""
        cpu = self.cpu
        if cpu is not None:
            cpu.wake()
            if self.armed:
                cpu.drop_chain(self)
        if self._handle is not None:
            self._queue.cancel(self._handle)
            self._handle = None
        self.armed = False

    def _expire(self) -> None:
        self._expirations += 1
        if self._cycle_us > 0:
            self._handle = self._queue.schedule(
                self._cycle_us, self._expire, self._label
            )
            self.steady = True
        else:
            self.armed = False
            self._handle = None
            if self.cpu is not None:
                self.cpu.drop_chain(self)
        self.action()


class AlarmManager:
    """Factory and registry of alarms on one ECU."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.alarms: dict[str, Alarm] = {}

    def create(self, name: str, action: Callable[[], None]) -> Alarm:
        """Create and register a new alarm."""
        if name in self.alarms:
            raise OsekError(f"duplicate alarm {name!r}")
        alarm = Alarm(self.sim, name, action)
        self.alarms[name] = alarm
        return alarm

    def alarm(self, name: str) -> Alarm:
        """Look up an alarm by name."""
        try:
            return self.alarms[name]
        except KeyError:
            raise OsekError(f"no alarm named {name!r}") from None

    def cancel_all(self) -> None:
        """Disarm every alarm (ECU shutdown path)."""
        for alarm in self.alarms.values():
            alarm.cancel()


__all__ = ["Alarm", "AlarmManager"]
