"""Fixed-priority preemptive CPU scheduler.

One :class:`Cpu` models the single core of an ECU.  Work items queued on
tasks consume simulated CPU time; a higher-priority task activating while
a lower-priority preemptable item is in flight preempts it, and the
preempted item resumes with its remaining duration (time-slicing is
exact because the simulation clock is integral).

The scheduler is the substrate for the paper's isolation claim: plug-in
VM execution is charged to a low-priority task, so built-in control
tasks keep their response times regardless of plug-in load.

Each CPU is a kernel event owner (:class:`~repro.sim.kernel.Owner`): its
completions and its chains' expiries (alarms whose action is an
:class:`~repro.autosar.os.task.Activation` here) are keyed by the CPU's
own count, so same-instant ties among them do not depend on any other
event.

Idle CPUs park.  A work item may carry a ``noop`` predicate (the plug-in
SW-C's ``dispatch`` and ``timer`` ticks do).  When every chain is cyclic
and its item's predicate holds, nothing is queued, and nothing is in
flight except an idle item, the CPU *parks*: it cancels its chains'
expiries and does not queue the idle item's completion.  From then on
the ticking scheduler would only run idle ticks, whose actions change
nothing; the CPU owes their bookkeeping and nothing else.  The next
touch *settles* it: an activation, :meth:`Cpu.wake` from the component
whose state a predicate reads, a read of any settled counter (a task's
counters and ``state``, ``busy_time``, ``dispatches``, ``preemptions``,
``utilization()``, an alarm's ``expirations``), or arming or cancelling
a chain.  Settling never loops over the skipped periods:

* the chains' instants repeat with their hyperperiod, and each
  instant's *burst* (its expiries, dispatches and completions, from an
  idle CPU) depends only on which chains fire there.  The bursts of one
  hyperperiod are replayed once per CPU *shape* (its tasks' priorities
  and limits, its chains' periods, phases, tasks and durations) into a
  plan of tallies (:func:`_plan`), which every CPU of that shape shares:
  one per ECU of a vehicle model;
* a touch adds whole hyperperiods' tallies and one partial
  hyperperiod's, replays the burst the touch lands in up to the
  kernel's position, puts what that burst still has in flight or
  queued back on the CPU, and resumes every chain.

Every resumed expiry and completion is queued under the CPU-local count
the ticking scheduler would have drawn for it, so a touch exactly on a
tick instant resolves as the ticking scheduler resolves it.  A CPU
parks only when that arithmetic is exact: each chain's pending expiry
was queued by its previous one, every burst ends strictly before the
next instant, and a hyperperiod holds at most :data:`PLAN_LIMIT`
expiries.  Otherwise it ticks.  ``tests/os_reference.py`` keeps the
ticking scheduler and ``tests/test_os_differential.py`` compares the
two.

With a tracer attached, settling publishes each skipped tick's ``os``
``activate``, ``dispatch`` and ``complete`` events with their own
timestamps, behind events published in between, so
``tracer.events("os")`` is in publish order, not time order; sort by
``time_us`` where time order matters.  Until each CPU has been touched,
``published("os")`` trails the ticking scheduler's count by its parked
stretch.
"""

from __future__ import annotations

import functools
from collections import deque
from math import lcm
from typing import Optional

from repro.autosar.os.task import Task, TaskState, WorkItem
from repro.errors import OsekError
from repro.sim.kernel import EventHandle, Simulator
from repro.telemetry.bus import TelemetryBus

#: Most chain expiries per hyperperiod a CPU plans for; a CPU whose
#: chains have more keeps ticking.
PLAN_LIMIT = 64


class _Tally:
    """Bookkeeping the ticking scheduler would have done over some bursts."""

    __slots__ = ("busy", "dispatches", "preemptions", "draws", "tasks")

    def __init__(self) -> None:
        self.busy = 0
        self.dispatches = 0
        self.preemptions = 0
        #: CPU-local counts drawn (one per expiry and per dispatch).
        self.draws = 0
        #: task index -> [activations, completions, response total,
        #: worst response].
        self.tasks: dict[int, list[int]] = {}

    def row(self, task: int) -> list[int]:
        row = self.tasks.get(task)
        if row is None:
            row = self.tasks[task] = [0, 0, 0, 0]
        return row

    def add(self, other: "_Tally", times: int = 1) -> None:
        if not times:
            return
        self.busy += other.busy * times
        self.dispatches += other.dispatches * times
        self.preemptions += other.preemptions * times
        self.draws += other.draws * times
        for task, (acts, comps, total, worst) in other.tasks.items():
            row = self.row(task)
            row[0] += acts * times
            row[1] += comps * times
            row[2] += total * times
            if worst > row[3]:
                row[3] = worst


class _Burst:
    """One instant's expiries, replayed from an idle CPU (see _replay).

    Tasks are indices into the CPU's registration order and chains
    indices into its key order.  A queued or running entry is
    ``(chain, remaining, clone)``: ``clone`` marks the copy that a
    preemption re-queues, which carries no ``noop``.
    """

    __slots__ = (
        "tally", "trace", "draws", "end", "current", "queues", "states",
    )

    def __init__(self) -> None:
        self.tally = _Tally()
        #: ``os`` events: (name, time, task, chain or remaining).
        self.trace: list[tuple] = []
        #: chain -> offset of its next expiry's draw within the burst.
        self.draws: dict[int, int] = {}
        #: Time of the last completion run.
        self.end = 0
        #: In flight where the replay stopped: [task, (chain, remaining,
        #: clone), started, draw offset of its completion], or None.
        self.current: Optional[list] = None
        self.queues: dict[int, deque] = {}
        self.states: dict[int, TaskState] = {}


def _replay(shape: tuple, fired: tuple, at: int, done) -> Optional[_Burst]:
    """The ticking scheduler's run of one instant's expiries.

    ``shape`` is a CPU's ``(tasks, chains)``: each task's ``(priority,
    preemptable, max_activations)`` in registration order, each chain's
    ``(period, phase, task, duration)`` in key order.  ``fired`` are the
    chains expiring at ``at``, in key order, on an idle CPU with
    nothing queued.  The replay runs the kernel events whose time
    ``done`` accepts (all of them for None), or returns None if an
    activation would be dropped.  Expiries at one instant key before
    any completion drawn there, so they all run first.
    """
    tasks, chains = shape
    burst = _Burst()
    tally, trace, queues, states = (
        burst.tally, burst.trace, burst.queues, burst.states,
    )

    def start(task: int, now: int) -> None:
        entry = queues[task].popleft()
        states[task] = TaskState.RUNNING
        tally.dispatches += 1
        trace.append(("dispatch", now, task, entry[0]))
        burst.current = [task, entry, now, tally.draws]
        tally.draws += 1

    def decide(now: int) -> None:
        best = None
        for task in sorted(queues):
            if queues[task] and (
                best is None or tasks[task][0] > tasks[best][0]
            ):
                best = task
        if best is None:
            return
        if burst.current is None:
            start(best, now)
            return
        task, (chain, remaining, __), started, __ = burst.current
        if tasks[task][1] and tasks[best][0] > tasks[task][0]:
            tally.busy += now - started
            tally.preemptions += 1
            remaining -= now - started
            states[task] = TaskState.READY
            queues[task].appendleft((chain, remaining, True))
            trace.append(("preempt", now, task, remaining))
            burst.current = None
            start(best, now)

    for chain in fired:
        burst.draws[chain] = tally.draws
        tally.draws += 1
        __, __, task, duration = chains[chain]
        queue = queues.setdefault(task, deque())
        if len(queue) >= tasks[task][2] * 16:
            return None
        queue.append((chain, duration, False))
        tally.row(task)[0] += 1
        if states.get(task, TaskState.SUSPENDED) is TaskState.SUSPENDED:
            states[task] = TaskState.READY
        trace.append(("activate", at, task, chain))
        decide(at)
    while burst.current is not None:
        task, (chain, remaining, __), started, __ = burst.current
        end = started + remaining
        if done is not None and not done(end):
            break
        tally.busy += remaining
        row = tally.row(task)
        row[1] += 1
        row[2] += end - at
        if end - at > row[3]:
            row[3] = end - at
        states[task] = (
            TaskState.READY if queues[task] else TaskState.SUSPENDED
        )
        trace.append(("complete", end, task, chain))
        burst.end = end
        burst.current = None
        decide(end)
    return burst


class _Plan:
    """The bursts of one hyperperiod of a CPU shape's chains.

    Instants sit at ``anchor + offset + k * period``, where the anchor
    is an expiry of the first chain; the anchor is each CPU's own.
    """

    __slots__ = ("shape", "period", "offsets", "bursts", "total")

    def __init__(self, shape: tuple, period: int) -> None:
        #: The CPU shape the plan replays (see _replay).
        self.shape = shape
        self.period = period
        self.offsets: list[int] = []
        #: offset -> (fired chains in key order, full burst).
        self.bursts: dict[int, tuple[tuple, _Burst]] = {}
        self.total = _Tally()

    def at(self, instant: int, anchor: int) -> tuple[tuple, _Burst]:
        return self.bursts[(instant - anchor) % self.period]

    def last(self, bound: int, anchor: int) -> int:
        """The latest instant at or before ``bound``."""
        period, offsets = self.period, self.offsets
        base = bound - (bound - anchor) % period
        for offset in reversed(offsets):
            if base + offset <= bound:
                return base + offset
        return base - period + offsets[-1]

    def instants(self, start: int, stop: int, anchor: int):
        """Instants in ``[start, stop)``, in time order."""
        period = self.period
        base = start - (start - anchor) % period
        while base < stop:
            for offset in self.offsets:
                if start <= base + offset < stop:
                    yield base + offset
            base += period

    def tally(self, start: int, stop: int, anchor: int) -> _Tally:
        """Bursts of the instants in ``[start, stop)``."""
        tally = _Tally()
        if stop <= start:
            return tally
        full, rest = divmod(stop - start, self.period)
        tally.add(self.total, full)
        low = stop - rest
        for offset in self.offsets:
            if (offset + anchor - low) % self.period < rest:
                tally.add(self.bursts[offset][1].tally)
        return tally


@functools.lru_cache(maxsize=256)
def _plan(shape: tuple) -> Optional[_Plan]:
    """Replay one hyperperiod's bursts of ``shape`` (see :func:`_replay`),
    or None if parking would be inexact.  Every CPU of one vehicle model
    shares the result."""
    __, chains = shape
    period = lcm(*(cycle for cycle, __, __, __ in chains))
    fired: dict[int, list[int]] = {}
    for chain, (cycle, phase, __, __) in enumerate(chains):
        for offset in range(phase, period, cycle):
            fired.setdefault(offset, []).append(chain)
    plan = _Plan(shape, period)
    plan.offsets = offsets = sorted(fired)
    for index, offset in enumerate(offsets):
        following = offsets[(index + 1) % len(offsets)]
        gap = (following - offset) % period or period
        burst = _replay(shape, tuple(fired[offset]), 0, None)
        if burst is None or burst.end >= gap:
            return None
        plan.bursts[offset] = (tuple(fired[offset]), burst)
        plan.total.add(burst.tally)
    return plan


class _Parked:
    """What a parked CPU remembers: its chains' pending expiries."""

    __slots__ = ("count", "first", "pending")

    def __init__(self, count: int, pending: list) -> None:
        #: The CPU's owner count at the park.
        self.count = count
        #: (chain, time, count) of each chain's pending expiry, in key
        #: order.
        self.pending = pending
        self.first = min(time for __, time, __ in pending)


def _settled(field: str, doc: str) -> property:
    """A read-only CPU counter that a parked CPU may still owe."""

    def read(cpu: "Cpu") -> int:
        if cpu._parked is not None:
            cpu.wake()
        return getattr(cpu, field)

    return property(read, doc=doc)


class Cpu:
    """Single-core fixed-priority preemptive scheduler."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "cpu0",
        tracer: Optional[TelemetryBus] = None,
    ) -> None:
        self.sim = sim
        #: This CPU's event owner: completions and chain expiries.
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
        #: Count drawn for the in-flight item's completion while parked
        #: with it unqueued, else None.
        self._lazy: Optional[int] = None
        self._busy_time = 0
        self._preemptions = 0
        self._dispatches = 0
        #: Armed alarms whose action activates work here.
        self._chains: list = []
        #: The chains' plan: None until built, False if they cannot park.
        self._plan = None
        #: Set while parked.
        self._parked: Optional[_Parked] = None

    busy_time = _settled(
        "_busy_time", "Simulated time spent running work items (us)."
    )
    dispatches = _settled(
        "_dispatches", "Work items put in flight (a resumed one counts again)."
    )
    preemptions = _settled("_preemptions", "Work items preempted.")

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

    def add_chain(self, alarm) -> None:
        """Register an armed alarm that activates work here (Alarm use)."""
        self._chains.append(alarm)
        self._plan = None

    def drop_chain(self, alarm) -> None:
        """Forget a disarmed chain (Alarm use)."""
        self._chains.remove(alarm)
        self._plan = None

    def activate(self, task: Task, item: WorkItem) -> bool:
        """OSEK ActivateTask: queue ``item`` on ``task`` and schedule.

        Returns False when the task's queue limit dropped the activation.
        """
        # Identity check instead of a name lookup: add_task stamps the
        # task, and this runs once per work item across the whole fleet.
        if task.cpu is not self:
            raise OsekError(f"task {task.name} not registered on {self.name}")
        if self._parked is not None:
            self.wake()
        if not task.enqueue(item):
            return False
        task.note_activation(self.sim.now)
        if task._state is TaskState.SUSPENDED:
            task._state = TaskState.READY
        if self.tracer is not None:
            self.tracer.publish(
                "os", "activate", self.sim.now, cpu=self.name,
                task=task.name, item=item.label,
            )
        self._schedule_decision()
        return True

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
        task._state = TaskState.RUNNING
        self._current = task
        self._item = item
        self._started = self.sim.now
        self._remaining = item.duration_us
        self._dispatches += 1
        if self.tracer is not None:
            self.tracer.publish(
                "os", "dispatch", self.sim.now, cpu=self.name,
                task=task.name, item=item.label,
            )
        if item.noop is not None and self._chains and self._park():
            return
        # _complete reads the flat fields; by the time another dispatch
        # can overwrite them, this completion has either fired or been
        # cancelled by _preempt.
        self._handle = self.events.schedule(
            item.duration_us, self._complete, self._labels[task.name]
        )

    def _preempt(self) -> None:
        task, item = self._current, self._item
        if self._handle is not None:
            self.events.cancel(self._handle)
            self._handle = None
        consumed = self.sim.now - self._started
        remaining = self._remaining - consumed
        self._busy_time += consumed
        self._preemptions += 1
        task._state = TaskState.READY
        # Resume at queue head so the preempted item finishes first.
        task.queue.appendleft(WorkItem(item.label, remaining, item.action))
        self._current = None
        if self.tracer is not None:
            self.tracer.publish(
                "os", "preempt", self.sim.now, cpu=self.name,
                task=task.name, remaining=remaining,
            )

    def _finish(self, now: int) -> None:
        """The in-flight item's completion bookkeeping, at ``now``."""
        self._busy_time += self._remaining
        task, item = self._current, self._item
        self._current = None
        task.note_completion(now)
        task._state = TaskState.READY if task.queue else TaskState.SUSPENDED
        if self.tracer is not None:
            self.tracer.publish(
                "os", "complete", now, cpu=self.name,
                task=task.name, item=item.label,
            )

    def _complete(self) -> None:
        item = self._item
        self._finish(self.sim.now)
        # Run the side effects at completion time, then pick the next job.
        if item.action is not None:
            item.action()
        self._schedule_decision()
        if self._current is None and self._chains:
            self._park()

    # -- parking -------------------------------------------------------------

    def _park(self) -> bool:
        """Park if the chains are idle and the arithmetic is exact."""
        if self._plan is False:
            return False
        chains = self._chains
        for task in self._task_list:
            if task.queue:
                return False
        now = self.sim.now
        first = None
        for alarm in chains:
            time = alarm._handle.time
            if not alarm.steady or time <= now:
                return False
            if first is None or time < first:
                first = time
        if self._current is not None:
            item = self._item
            end = self._started + self._remaining
            if item.noop is None or not now < end < first or not item.noop():
                return False
        for alarm in chains:
            noop = alarm.action.item.noop
            if noop is None or not noop():
                return False
        if self._plan is None:
            self._plan = self._make_plan()
            if self._plan is False:
                return False
        events = self.events
        if self._current is not None:
            self._lazy = events.count
            events.count += 1
        pending = []
        for alarm in self._plan[2]:
            handle = alarm._handle
            events.cancel(handle)
            alarm._handle = None
            pending.append((alarm, handle.time, events.count_of(handle)))
        self._parked = _Parked(events.count, pending)
        return True

    def _make_plan(self):
        """``(plan, anchor, chains in key order)``, or False if parking
        would be inexact.

        Same-instant expiries run in key order: the longer period first
        (its expiry was queued earlier), and equal periods in the order
        of their pending counts, which their ticks keep.
        """
        count_of = self.events.count_of
        order = sorted(
            self._chains, key=lambda a: (-a._cycle_us, count_of(a._handle))
        )
        period = lcm(*(alarm._cycle_us for alarm in order))
        if sum(period // alarm._cycle_us for alarm in order) > PLAN_LIMIT:
            return False
        anchor = order[0]._handle.time
        index = {task: i for i, task in enumerate(self._task_list)}
        shape = (
            tuple(
                (task.priority, task.preemptable, task.max_activations)
                for task in self._task_list
            ),
            tuple(
                (
                    alarm._cycle_us,
                    (alarm._handle.time - anchor) % alarm._cycle_us,
                    index[alarm.action.task],
                    alarm.action.item.duration_us,
                )
                for alarm in order
            ),
        )
        plan = _plan(shape)
        return False if plan is None else (plan, anchor, order)

    def wake(self) -> None:
        """Settle a parked CPU up to the kernel's position and resume it.

        Called on every touch of this CPU, and by components before they
        change state a ``noop`` predicate reads.  A no-op unless parked.
        """
        parked = self._parked
        if parked is None:
            return
        self._parked = None
        events = self.events
        if self._lazy is not None:
            count, self._lazy = self._lazy, None
            end = self._started + self._remaining
            if events.passed(end, count):
                self._finish(end)
            else:
                self._handle = events.schedule_count(
                    end, count, self._complete,
                    self._labels[self._current.name],
                )
        plan, anchor, order = self._plan
        now = self.sim.now
        first = parked.first
        last = plan.last(now if events.behind(now) else now - 1, anchor)
        if last < first:
            for alarm, time, count in parked.pending:
                alarm._handle = events.schedule_count(
                    time, count, alarm._expire, alarm._label
                )
            return
        before = plan.tally(first, last, anchor)
        burst = _replay(
            plan.shape, plan.at(last, anchor)[0], last, events.behind
        )
        self._apply(before)
        self._apply(burst.tally)
        if self.tracer is not None:
            for instant in plan.instants(first, last, anchor):
                self._publish(plan.at(instant, anchor)[1].trace, instant)
            self._publish(burst.trace, 0)
        base = parked.count
        for chain, (alarm, time, count) in enumerate(parked.pending):
            cycle = alarm._cycle_us
            if time <= last:
                runs = (last - time) // cycle + 1
                alarm._expirations += runs
                time += (runs - 1) * cycle
                draws = (
                    burst if time == last else plan.at(time, anchor)[1]
                ).draws
                count = (
                    base + plan.tally(first, time, anchor).draws
                    + draws[chain]
                )
                time += cycle
            alarm._handle = events.schedule_count(
                time, count, alarm._expire, alarm._label
            )
        events.count = base + before.draws + burst.tally.draws
        if burst.current is None:
            return
        tasks = self._task_list
        for task, queue in burst.queues.items():
            tasks[task].queue.extend(self._entry_item(e) for e in queue)
            tasks[task]._state = burst.states[task]
        for task, row in burst.tally.tasks.items():
            tasks[task]._activation_times.extend([last] * (row[0] - row[1]))
        task, entry, started, draw = burst.current
        self._current, self._item = tasks[task], self._entry_item(entry)
        self._started, self._remaining = started, entry[1]
        self._handle = events.schedule_count(
            started + entry[1], base + before.draws + draw,
            self._complete, self._labels[tasks[task].name],
        )

    def _entry_item(self, entry: tuple) -> WorkItem:
        """The work item behind a replayed queue entry."""
        chain, remaining, clone = entry
        item = self._plan[2][chain].action.item
        return WorkItem(item.label, remaining, item.action) if clone else item

    def _apply(self, tally: _Tally) -> None:
        """Add a tally's bookkeeping to the CPU's and tasks' counters."""
        self._busy_time += tally.busy
        self._dispatches += tally.dispatches
        self._preemptions += tally.preemptions
        tasks = self._task_list
        for index, (acts, comps, total, worst) in tally.tasks.items():
            task = tasks[index]
            task._activation_count += acts
            task._completed_items += comps
            task._response_count += comps
            task._response_total_us += total
            if worst > task._response_worst_us:
                task._response_worst_us = worst

    def _publish(self, trace: list, shift: int) -> None:
        """Publish a replayed burst's ``os`` events, ``shift`` later."""
        publish, cpu, tasks = self.tracer.publish, self.name, self._task_list
        chains = self._plan[2]
        for name, time, task, value in trace:
            if name == "preempt":
                publish("os", name, time + shift, cpu=cpu,
                        task=tasks[task].name, remaining=value)
            else:
                publish("os", name, time + shift, cpu=cpu,
                        task=tasks[task].name,
                        item=chains[value].action.item.label)


__all__ = ["Cpu"]
