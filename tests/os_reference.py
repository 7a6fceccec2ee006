"""The ticking scheduler, kept as the reference for the OS layer.

:class:`Cpu`, :class:`Task` and :class:`Alarm` below are the OSEK
scheduler, task and alarm as they were before
:mod:`repro.autosar.os.scheduler` learned to elide idle periodic ticks
and to park idle CPUs.  Every expiry and every completion is a kernel
event here, and every counter is updated when it happens, which makes
this scheduler slow and obviously faithful.  It keys its events the way
the kernel keys a CPU's: each :class:`Cpu` is an event owner
(``sim.owner()``), queues its completions through it, and its alarms
are built on it (``Alarm(cpu.events, name, action)``), so both sides
break same-instant ties alike.  ``tests/test_os_differential.py`` drives
generated scenarios on both and requires the same action log, counters,
alarm expirations and published ``os`` events.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.autosar.os.task import TaskState, WorkItem
from repro.errors import OsekError
from repro.sim.kernel import EventHandle, Simulator
from repro.telemetry.bus import TelemetryBus


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
        self._handle: Optional[EventHandle] = None
        self._cycle_us = 0
        self.expirations = 0
        self.armed = False
        # Precomputed once: a cyclic alarm re-schedules every expiration,
        # and building the label f-string per tick shows up in profiles.
        self._label = f"alarm:{name}"

    def set_relative(self, offset_us: int, cycle_us: int = 0) -> None:
        """OSEK SetRelAlarm: fire after ``offset_us``; repeat every
        ``cycle_us`` when non-zero."""
        if self.armed:
            raise OsekError(f"alarm {self.name} is already armed")
        if offset_us < 0 or cycle_us < 0:
            raise OsekError(f"alarm {self.name}: negative offset or cycle")
        self._cycle_us = cycle_us
        self.armed = True
        self._handle = self.sim.schedule(offset_us, self._expire, self._label)

    def cancel(self) -> None:
        """OSEK CancelAlarm: disarm; no-op when not armed."""
        if self._handle is not None:
            self.sim.cancel(self._handle)
            self._handle = None
        self.armed = False

    def _expire(self) -> None:
        self.expirations += 1
        if self._cycle_us > 0:
            self._handle = self.sim.schedule(
                self._cycle_us, self._expire, self._label
            )
        else:
            self.armed = False
            self._handle = None
        self.action()


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
        self.state = TaskState.SUSPENDED
        #: Stamped by Cpu.add_task; activate() verifies it by identity.
        self.cpu: object = None
        self.queue: Deque[WorkItem] = deque()
        self.activation_count = 0
        self.dropped_activations = 0
        self.completed_items = 0
        #: Response-time statistics (us), filled by the scheduler.  Kept
        #: as running totals, not samples: a long run completes millions
        #: of work items.
        self.response_count = 0
        self.response_total_us = 0
        self.response_worst_us = 0
        self._activation_times: Deque[int] = deque()

    def enqueue(self, item: WorkItem) -> bool:
        """Queue a work item; returns False when the activation limit hit."""
        if len(self.queue) >= self.max_activations * 16:
            self.dropped_activations += 1
            return False
        self.queue.append(item)
        return True

    def has_work(self) -> bool:
        return bool(self.queue)

    def next_item(self) -> WorkItem:
        """Pop the next work item (scheduler use)."""
        if not self.queue:
            raise OsekError(f"task {self.name} has no queued work")
        return self.queue.popleft()

    def note_activation(self, now: int) -> None:
        """Record an activation instant for response-time accounting."""
        self.activation_count += 1
        self._activation_times.append(now)

    def note_completion(self, now: int) -> None:
        """Record a work-item completion; pairs FIFO with activations."""
        self.completed_items += 1
        if self._activation_times:
            response = now - self._activation_times.popleft()
            self.response_count += 1
            self.response_total_us += response
            if response > self.response_worst_us:
                self.response_worst_us = response

    def __repr__(self) -> str:
        return f"<Task {self.name} prio={self.priority} {self.state.value}>"


class Cpu:
    """Single-core fixed-priority preemptive scheduler."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "cpu0",
        tracer: Optional[TelemetryBus] = None,
    ) -> None:
        self.sim = sim
        #: This CPU's event owner: its completions, and the expiries of
        #: the alarms built on it.
        self.events = sim.owner()
        self.name = name
        self.tracer = tracer
        self.tasks: dict[str, Task] = {}
        #: task name -> precomputed dispatch label (built once per task;
        #: _dispatch runs for every work item on every vehicle).
        self._labels: dict[str, str] = {}
        #: Registration-order task list; _highest_ready scans it on
        #: every activation and completion, and a plain list iterates
        #: faster than dict.values().
        self._task_list: list[Task] = []
        # In-flight execution, flattened: a single core runs at most one
        # work item at a time, so its bookkeeping lives in plain fields
        # instead of a per-dispatch record (one object + one closure per
        # work item across the whole fleet showed up in profiles).
        self._current: Optional[Task] = None
        self._item: Optional[WorkItem] = None
        self._started = 0
        self._remaining = 0
        self._handle: Optional[EventHandle] = None
        self.busy_time = 0
        self.preemptions = 0
        self.dispatches = 0

    def add_task(self, task: Task) -> Task:
        """Register a task with this CPU."""
        if task.name in self.tasks:
            raise OsekError(f"duplicate task {task.name!r} on {self.name}")
        self.tasks[task.name] = task
        self._labels[task.name] = f"os:{self.name}:{task.name}"
        self._task_list.append(task)
        task.cpu = self
        return task

    def task(self, name: str) -> Task:
        """Look up a registered task."""
        try:
            return self.tasks[name]
        except KeyError:
            raise OsekError(f"{self.name} has no task {name!r}") from None

    def activate(self, task: Task, item: WorkItem) -> bool:
        """OSEK ActivateTask: queue ``item`` on ``task`` and schedule.

        Returns False when the task's queue limit dropped the activation.
        """
        # Identity check instead of a name lookup: add_task stamps the
        # task, and this runs once per work item across the whole fleet.
        if task.cpu is not self:
            raise OsekError(f"task {task.name} not registered on {self.name}")
        if not task.enqueue(item):
            return False
        task.note_activation(self.sim.now)
        if task.state is TaskState.SUSPENDED:
            task.state = TaskState.READY
        if self.tracer is not None:
            self.tracer.publish(
                "os", "activate", self.sim.now, cpu=self.name,
                task=task.name, item=item.label,
            )
        self._schedule_decision()
        return True

    def activate_by_name(self, task_name: str, item: WorkItem) -> bool:
        """Convenience: activate a task looked up by name."""
        return self.activate(self.task(task_name), item)

    @property
    def running_task(self) -> Optional[Task]:
        """The task currently occupying the CPU, if any."""
        return self._current

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the CPU was busy."""
        if self.sim.now == 0:
            return 0.0
        return self.busy_time / self.sim.now

    def _highest_ready(self) -> Optional[Task]:
        best: Optional[Task] = None
        # task.queue truthiness is has_work() without the method call;
        # this scan runs twice per work item across the whole fleet.
        for task in self._task_list:
            if task.queue and (best is None or task.priority > best.priority):
                best = task
        return best

    def _schedule_decision(self) -> None:
        contender = self._highest_ready()
        if contender is None:
            return
        current = self._current
        if current is None:
            self._dispatch(contender)
        elif current.preemptable and contender.priority > current.priority:
            self._preempt()
            self._dispatch(contender)

    def _dispatch(self, task: Task) -> None:
        item = task.next_item()
        task.state = TaskState.RUNNING
        self._current = task
        self._item = item
        self._started = self.sim.now
        self._remaining = item.duration_us
        self.dispatches += 1
        # _complete reads the flat fields; by the time another dispatch
        # can overwrite them, this completion has either fired or been
        # cancelled by _preempt.
        self._handle = self.events.schedule(
            item.duration_us, self._complete, self._labels[task.name]
        )
        if self.tracer is not None:
            self.tracer.publish(
                "os", "dispatch", self.sim.now, cpu=self.name,
                task=task.name, item=item.label,
            )

    def _preempt(self) -> None:
        task, item = self._current, self._item
        if self._handle is not None:
            self.events.cancel(self._handle)
            self._handle = None
        consumed = self.sim.now - self._started
        remaining = self._remaining - consumed
        self.busy_time += consumed
        self.preemptions += 1
        task.state = TaskState.READY
        # Resume at queue head so the preempted item finishes first.
        task.queue.appendleft(WorkItem(item.label, remaining, item.action))
        self._current = None
        if self.tracer is not None:
            self.tracer.publish(
                "os", "preempt", self.sim.now, cpu=self.name,
                task=task.name, remaining=remaining,
            )

    def _complete(self) -> None:
        self.busy_time += self._remaining
        task, item = self._current, self._item
        self._current = None
        task.note_completion(self.sim.now)
        # task.queue truthiness is has_work() without the method call.
        task.state = TaskState.READY if task.queue else TaskState.SUSPENDED
        if self.tracer is not None:
            self.tracer.publish(
                "os", "complete", self.sim.now, cpu=self.name,
                task=task.name, item=item.label,
            )
        # Run the side effects at completion time, then pick the next job.
        if item.action is not None:
            item.action()
        self._schedule_decision()
