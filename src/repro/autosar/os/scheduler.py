"""Fixed-priority preemptive CPU scheduler.

One :class:`Cpu` models the single core of an ECU.  Work items queued on
tasks consume simulated CPU time; a higher-priority task activating while
a lower-priority preemptable item is in flight preempts it, and the
preempted item resumes with its remaining duration (time-slicing is
exact because the simulation clock is integral).

The scheduler is the substrate for the paper's isolation claim: plug-in
VM execution is charged to a low-priority task, so built-in control
tasks keep their response times regardless of plug-in load.
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


__all__ = ["Cpu"]
