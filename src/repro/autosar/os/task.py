"""OSEK-style tasks.

Tasks are containers of work items (runnable activations) executed under
fixed-priority preemptive scheduling.  Basic tasks support multiple
queued activations, as in OSEK; each activation drains the work items
queued for it at activation time.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from repro.errors import OsekError


class TaskState(enum.Enum):
    """OSEK task states."""

    SUSPENDED = "suspended"
    READY = "ready"
    RUNNING = "running"
    WAITING = "waiting"


@dataclass(slots=True)
class WorkItem:
    """One unit of CPU work queued on a task.

    ``duration_us`` is charged to the CPU; ``action`` runs when the work
    item completes (side effects become visible at completion, modelling
    results produced at the end of a runnable's execution window).
    ``noop``, when given, says whether running ``action`` now would
    change nothing; a CPU whose periodic items all say so parks (see
    :class:`~repro.autosar.os.scheduler.Cpu`).
    """

    label: str
    duration_us: int
    action: Optional[Callable[[], None]] = None
    noop: Optional[Callable[[], bool]] = None

    def __post_init__(self) -> None:
        if self.duration_us < 0:
            raise OsekError(f"work item {self.label} has negative duration")


def _settled(field: str, doc: str) -> property:
    """A read-only task attribute that a parked CPU may still owe.

    Reading it first settles its CPU (:meth:`Cpu.wake`), so it reads
    what the ticking scheduler would show.
    """

    def read(task: "Task"):
        cpu = task.cpu
        if cpu is not None and cpu._parked is not None:
            cpu.wake()
        return getattr(task, field)

    return property(read, doc=doc)


class Task:
    """An OSEK basic task with a FIFO work queue.

    ``priority``: larger numbers preempt smaller ones.
    ``max_activations``: pending activation limit, as in OSEK; further
    activations are dropped and counted, not errors (matching the OSEK
    E_OS_LIMIT behaviour surfaced as a status code).
    """

    def __init__(
        self,
        name: str,
        priority: int,
        preemptable: bool = True,
        max_activations: int = 8,
    ) -> None:
        if not name:
            raise OsekError("task needs a non-empty name")
        if max_activations < 1:
            raise OsekError(f"task {name} needs max_activations >= 1")
        self.name = name
        self.priority = priority
        self.preemptable = preemptable
        self.max_activations = max_activations
        self._state = TaskState.SUSPENDED
        #: Stamped by Cpu.add_task; activate() verifies it by identity.
        self.cpu: Any = None
        self.queue: Deque[WorkItem] = deque()
        self._activation_count = 0
        self.dropped_activations = 0
        self._completed_items = 0
        # Response-time statistics (us), filled by the scheduler.  Kept
        # as running totals, not samples: a long run completes millions
        # of work items.
        self._response_count = 0
        self._response_total_us = 0
        self._response_worst_us = 0
        self._activation_times: Deque[int] = deque()

    state = _settled("_state", "The OSEK task state.")
    activation_count = _settled("_activation_count", "Activations accepted.")
    completed_items = _settled("_completed_items", "Work items completed.")
    response_count = _settled(
        "_response_count", "Completions paired with an activation."
    )
    response_total_us = _settled(
        "_response_total_us", "Sum of response times (us)."
    )
    response_worst_us = _settled(
        "_response_worst_us", "Longest response time (us)."
    )

    def enqueue(self, item: WorkItem) -> bool:
        """Queue a work item; returns False when the activation limit hit."""
        if len(self.queue) >= self.max_activations * 16:
            self.dropped_activations += 1
            return False
        self.queue.append(item)
        return True

    def next_item(self) -> WorkItem:
        """Pop the next work item (scheduler use)."""
        if not self.queue:
            raise OsekError(f"task {self.name} has no queued work")
        return self.queue.popleft()

    def note_activation(self, now: int) -> None:
        """Record an activation instant for response-time accounting."""
        self._activation_count += 1
        self._activation_times.append(now)

    def note_completion(self, now: int) -> None:
        """Record a work-item completion; pairs FIFO with activations."""
        self._completed_items += 1
        if self._activation_times:
            response = now - self._activation_times.popleft()
            self._response_count += 1
            self._response_total_us += response
            if response > self._response_worst_us:
                self._response_worst_us = response

    def __repr__(self) -> str:
        return f"<Task {self.name} prio={self.priority} {self.state.value}>"


class Activation:
    """OSEK's ActivateTask as an alarm action: activate ``task`` with
    ``item``.

    An alarm with this action is a *chain* of the task's CPU: its
    expiries are that CPU's events, and the CPU may park it (see
    :class:`~repro.autosar.os.scheduler.Cpu`).  Build it after
    ``Cpu.add_task``.
    """

    __slots__ = ("task", "item")

    def __init__(self, task: Task, item: WorkItem) -> None:
        if task.cpu is None:
            raise OsekError(f"task {task.name} is on no CPU")
        self.task = task
        self.item = item

    def __call__(self) -> None:
        self.task.cpu.activate(self.task, self.item)


__all__ = ["Activation", "Task", "TaskState", "WorkItem"]
