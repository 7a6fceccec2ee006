"""Fixed-priority preemptive CPU scheduler.

One :class:`Cpu` models the single core of an ECU.  Work items queued on
tasks consume simulated CPU time; a higher-priority task activating while
a lower-priority preemptable item is in flight preempts it, and the
preempted item resumes with its remaining duration (time-slicing is
exact because the simulation clock is integral).

The scheduler is the substrate for the paper's isolation claim: plug-in
VM execution is charged to a low-priority task, so built-in control
tasks keep their response times regardless of plug-in load.

Idle periodic ticks are elided.  A work item may carry a ``noop``
predicate (the plug-in SW-C's ``dispatch`` and ``timer`` ticks do).
When the CPU dispatches such an item, no task has other work queued and
the predicate holds, the item's completion could only do bookkeeping:
its action changes nothing and nothing waits behind it.  The item is
then *lazy*: the CPU sets up the in-flight fields as usual but only
reserves the completion's sequence number (:meth:`Simulator.reserve`).
The next touch of the CPU resolves it: an activation (the next tick
included), a wake from the component whose state the predicate reads
(:meth:`Cpu.wake`), or a counter read.

* If the kernel has passed the completion's key, the touch *settles*
  it: the completion's bookkeeping is applied with the completion's
  timestamp, its ``os`` ``complete`` event is published with that
  timestamp, and no action runs.
* Otherwise the touch *materializes* it: the completion is queued under
  its reserved number and runs as it always would, preemption,
  queueing and action included.

A tick that arrives while a lazy tick is in flight therefore
materializes it, and the real completion dispatches the queued tick,
which may go lazy in turn.  Every event that still runs keeps its
number, so the event order, same-instant ties included, is that of the
ticking scheduler; ``tests/os_reference.py`` keeps that scheduler and
``tests/test_os_differential.py`` compares the two.

With a tracer attached, a lazy tick publishes its ``os`` ``activate``
and ``dispatch`` events at the tick, but its ``complete`` event only
when it settles, usually at the CPU's next tick.  That event carries
the completion's timestamp and lands behind events published in
between, so ``tracer.events("os")`` is in publish order, not time
order; sort by ``time_us`` where time order matters.  Until each CPU
has settled, ``published("os")`` may trail the ticking scheduler's
count by one ``complete`` per CPU; reading any settled counter
(``busy_time``, ``utilization()``, a task's ``state`` ...) settles that
CPU.
"""

from __future__ import annotations

from typing import Optional

from repro.autosar.os.task import Task, TaskState, WorkItem
from repro.errors import OsekError
from repro.sim.kernel import EventHandle, Simulator
from repro.telemetry.bus import TelemetryBus


class Cpu:
    """Single-core fixed-priority preemptive scheduler."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "cpu0",
        tracer: Optional[TelemetryBus] = None,
    ) -> None:
        self.sim = sim
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
        #: Reserved sequence number of the in-flight item's completion
        #: while it is lazy (not queued), else None.
        self._lazy: Optional[int] = None
        self._busy_time = 0
        self.preemptions = 0
        self.dispatches = 0

    @property
    def busy_time(self) -> int:
        """Simulated time spent running work items (us)."""
        if self._lazy is not None:
            self.wake()
        return self._busy_time

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
        An item whose ``noop`` predicate holds, arriving at an idle CPU
        with no queued work, is put in flight lazily right here, exactly
        as the queue → ``_schedule_decision`` → ``_dispatch`` path would.
        """
        # Identity check instead of a name lookup: add_task stamps the
        # task, and this runs once per work item across the whole fleet.
        if task.cpu is not self:
            raise OsekError(f"task {task.name} not registered on {self.name}")
        if self._lazy is not None:
            self.wake()
        noop = item.noop
        lazy = (
            noop is not None
            and self._current is None
            and self._highest_ready() is None
            and noop()
        )
        # A lazy item finds every queue empty: enqueue could not drop it.
        if not lazy and not task.enqueue(item):
            return False
        task.note_activation(self.sim.now)
        if self.tracer is not None:
            self.tracer.publish(
                "os", "activate", self.sim.now, cpu=self.name,
                task=task.name, item=item.label,
            )
        if lazy:
            self._start(task, item, lazy=True)
            return True
        if task._state is TaskState.SUSPENDED:
            task._state = TaskState.READY
        self._schedule_decision()
        return True

    def wake(self) -> None:
        """Resolve a lazy completion before anything can observe it.

        Called on every touch of this CPU, and by components before they
        change state a ``noop`` predicate reads.  A completion the kernel
        has passed is settled; one still ahead is queued for real under
        its reserved number.
        """
        seq = self._lazy
        if seq is None:
            return
        self._lazy = None
        time = self._started + self._remaining
        if not self.sim.passed(time, seq):
            self._handle = self.sim.schedule_reserved(
                seq, time, self._complete, self._labels[self._current.name]
            )
            return
        # _complete's bookkeeping at the completion's time; its action
        # was a no-op and no work was queued behind it.
        self._busy_time += self._remaining
        task, item = self._current, self._item
        self._current = None
        task.note_completion(time)
        task._state = TaskState.READY if task.queue else TaskState.SUSPENDED
        if self.tracer is not None:
            self.tracer.publish(
                "os", "complete", time, cpu=self.name,
                task=task.name, item=item.label,
            )

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the CPU was busy."""
        if self.sim.now == 0:
            return 0.0
        return self.busy_time / self.sim.now

    def _highest_ready(self) -> Optional[Task]:
        best: Optional[Task] = None
        # Hot: this scan runs twice per work item across the whole fleet.
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
        noop = item.noop
        # Lazy only when nothing waits behind the item: its completion
        # would then do bookkeeping and nothing else.
        self._start(
            task, item,
            lazy=noop is not None and self._highest_ready() is None and noop(),
        )

    def _start(self, task: Task, item: WorkItem, lazy: bool) -> None:
        """Put ``item`` in flight; a lazy one's completion is not queued."""
        task._state = TaskState.RUNNING
        self._current = task
        self._item = item
        self._started = self.sim.now
        self._remaining = item.duration_us
        self.dispatches += 1
        if lazy:
            self._lazy = self.sim.reserve()
        else:
            # _complete reads the flat fields; by the time another
            # dispatch can overwrite them, this completion has either
            # fired or been cancelled by _preempt.
            self._handle = self.sim.schedule(
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
            self.sim.cancel(self._handle)
            self._handle = None
        consumed = self.sim.now - self._started
        remaining = self._remaining - consumed
        self._busy_time += consumed
        self.preemptions += 1
        task._state = TaskState.READY
        # Resume at queue head so the preempted item finishes first.
        task.queue.appendleft(WorkItem(item.label, remaining, item.action))
        self._current = None
        if self.tracer is not None:
            self.tracer.publish(
                "os", "preempt", self.sim.now, cpu=self.name,
                task=task.name, remaining=remaining,
            )

    def _complete(self) -> None:
        self._busy_time += self._remaining
        task, item = self._current, self._item
        self._current = None
        task.note_completion(self.sim.now)
        task._state = TaskState.READY if task.queue else TaskState.SUSPENDED
        if self.tracer is not None:
            self.tracer.publish(
                "os", "complete", self.sim.now, cpu=self.name,
                task=task.name, item=item.label,
            )
        # Run the side effects at completion time, then pick the next job.
        if item.action is not None:
            item.action()
        self._schedule_decision()


__all__ = ["Cpu"]
