"""Deterministic discrete-event simulation kernel.

All simulated subsystems (the OSEK scheduler, the CAN bus, the network
channels, the trusted server's pusher) share one :class:`Simulator`.  Time
is an integer number of microseconds, which keeps event ordering exact and
runs reproducible across platforms.

Same-instant events run in the order of a key their owner computes:
``(time, owner rank, owner-local count)``.  Each CPU is an owner
(:meth:`Simulator.owner` hands out an :class:`Owner`, ranked in creation
order), and counts its own events: its ECU's alarm expiries and its
completions.  Every other event belongs to one shared owner, which ranks
before every CPU and counts in scheduling order, so those events keep
their FIFO order among themselves.  Removing one CPU's events therefore
moves no other event's key, and a CPU can compute the key its k-th next
expiry would get without running the ones before it.  An event queued
for the current instant always runs after the event that queued it:
the heap holds only events not yet run.  A CPU event queued by a shared
event at the current instant also keys after it; a shared event queued
by a CPU event keys before it, and runs ahead of the same-instant CPU
events still queued.

A CPU whose periodic work is all idle queues no event at all (see
:mod:`repro.autosar.os.scheduler`), so :meth:`Simulator.run` may drain
while ECUs are booted: every CPU parked and nothing else queued.

Performance notes (this is the hottest module in the repository — a
100k-vehicle campaign pushes tens of millions of events through it):

* The event list is a binary heap of plain ``(time, key)`` tuples, so
  ``heapq`` compares tuples in C instead of calling a generated
  ``__lt__`` on a dataclass.  A key is one int, ``rank << 40 | count``
  (the shared owner's rank is 0).  Callback and label live in a side
  table keyed by the key.
* Cancellation is O(1): the side-table entry is deleted and the heap
  tuple becomes a tombstone, skipped when it reaches the top.  A
  cancel-heavy workload (campaign retry timers, soak ticks, parked
  CPUs) cannot bloat the heap: when tombstones outnumber live events
  the heap is compacted in one O(n) pass.
* :meth:`Simulator.schedule_many` amortizes validation and, for large
  batches, replaces N ``heappush`` calls with one ``heapify``.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Optional

from repro.errors import SimTimeError

#: One millisecond expressed in kernel time units (microseconds).
MS = 1000
#: One second expressed in kernel time units (microseconds).
SECOND = 1_000_000

#: Tombstone count below which cancel() never triggers a compaction;
#: keeps tiny simulations from heapifying on every few cancels.
_COMPACT_MIN_TOMBSTONES = 64

#: Position after run()/run_until() return: above every key.
_PAST_ALL = float("inf")

#: Owner-local counts stay below this; an owner's keys start at its rank
#: shifted past it.
_RANK_SPAN = 1 << 40


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Holding on to the handle allows the caller to cancel the event before
    it fires.  Handles compare by their key (``seq``).
    """

    __slots__ = ("seq", "time", "label")

    def __init__(self, seq: int, time: int, label: str = "") -> None:
        self.seq = seq
        self.time = time
        self.label = label

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EventHandle) and other.seq == self.seq

    def __hash__(self) -> int:
        return hash(self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventHandle(seq={self.seq}, time={self.time}, label={self.label!r})"


def _check_delay(delay: int, what: str) -> None:
    """Reject non-int delays — including bool, which *is* an int to
    ``isinstance`` but is virtually always a bug when passed as a time."""
    if not isinstance(delay, int) or isinstance(delay, bool):
        raise SimTimeError(f"{what} must be an int (got {delay!r})")


class Simulator:
    """Priority-queue based discrete-event simulator.

    The simulator is intentionally small: ``schedule``/``cancel`` and a
    handful of run modes.  Higher layers build processes, timers, and
    protocols on top of these primitives.
    """

    def __init__(self) -> None:
        #: Current simulated time in microseconds.  A plain attribute,
        #: not a property: hot loops across the stack read it hundreds
        #: of thousands of times per campaign, and the descriptor call
        #: is measurable.  Only the kernel writes it.
        self.now = 0
        #: Heap of (time, seq) tuples; tombstones are tuples whose seq
        #: is no longer in ``_events``.
        self._queue: list[tuple[int, int]] = []
        self._seq = itertools.count()
        #: seq -> (callback, label) for live (not fired, not cancelled)
        #: events; doubles as the handle registry.
        self._events: dict[int, tuple[Callable[[], None], str]] = {}
        self._tombstones = 0
        self.events_executed = 0
        #: Key of the executing event (or of the last one a bare step()
        #: ran); _PAST_ALL once run()/run_until() return.  Keys at
        #: ``now`` below it have been passed (see Owner.passed()).
        self._at: float = -1
        #: Ranks handed out by owner(); the shared owner is rank 0.
        self._owners = 0

    def owner(self) -> "Owner":
        """A new event owner, ranked after every owner made before it."""
        self._owners += 1
        return Owner(self, self._owners)

    def schedule(
        self,
        delay: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` microseconds from now.

        ``delay`` must be a non-negative integer (bools are rejected —
        ``isinstance(True, int)`` holds, but a boolean delay is always a
        bug); zero-delay events run after every shared-owner event
        already scheduled for the current instant.  The event belongs to
        the shared owner.
        """
        if type(delay) is not int:
            _check_delay(delay, "delay")
        if delay < 0:
            raise SimTimeError(f"cannot schedule into the past (delay={delay})")
        seq = next(self._seq)
        time = self.now + delay
        self._events[seq] = (callback, label)
        heappush(self._queue, (time, seq))
        return EventHandle(seq, time, label)

    def schedule_at(
        self,
        time: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if type(time) is not int:
            _check_delay(time, "time")
        if time < self.now:
            raise SimTimeError(
                f"cannot schedule at {time} (now is {self.now})"
            )
        return self.schedule(time - self.now, callback, label)

    def schedule_many(
        self,
        items: Iterable[tuple[int, Callable[[], None]]],
        label: str = "",
    ) -> list[EventHandle]:
        """Schedule a batch of ``(delay, callback)`` pairs in one call.

        Semantically identical to calling :meth:`schedule` on each pair
        in order (FIFO ties preserved), but validation is amortized and
        a batch that is large relative to the live queue is folded in
        with one ``heapify`` instead of N sift-ups.  This is the API the
        campaign engine's wave dispatch and the soak sampler use to
        enqueue thousands of timers at once.
        """
        now = self.now
        events = self._events
        pending: list[tuple[int, int]] = []
        handles: list[EventHandle] = []
        for delay, callback in items:
            if type(delay) is not int:
                _check_delay(delay, "delay")
            if delay < 0:
                raise SimTimeError(
                    f"cannot schedule into the past (delay={delay})"
                )
            seq = next(self._seq)
            time = now + delay
            events[seq] = (callback, label)
            pending.append((time, seq))
            handles.append(EventHandle(seq, time, label))
        queue = self._queue
        if len(pending) * 4 >= len(queue):
            queue.extend(pending)
            heapify(queue)
        else:
            push = heappush
            for entry in pending:
                push(queue, entry)
        return handles

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a scheduled event.  Returns True if it had not yet run.

        O(1): the heap entry stays behind as a tombstone; tombstones are
        consumed lazily when they surface, and the whole heap is
        compacted once they outnumber the live events.
        """
        if self._events.pop(handle.seq, None) is None:
            return False
        self._tombstones += 1
        if (
            self._tombstones > _COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._queue)
        ):
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop every tombstone from the heap in one O(n) pass."""
        events = self._events
        self._queue = [entry for entry in self._queue if entry[1] in events]
        heapify(self._queue)
        self._tombstones = 0

    def is_pending(self, handle: EventHandle) -> bool:
        """Whether the event behind ``handle`` is still queued."""
        return handle.seq in self._events

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return len(self._events)

    def queue_size(self) -> int:
        """Physical heap length, tombstones included (observability)."""
        return len(self._queue)

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        queue = self._queue
        events = self._events
        pop = heappop
        while queue:
            time, seq = pop(queue)
            item = events.pop(seq, None)
            if item is None:
                self._tombstones -= 1
                continue
            self.now = time
            self._at = seq
            self.events_executed += 1
            item[0]()
            return True
        return False

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue drains.  Returns events executed.

        ``max_events`` bounds runaway simulations (e.g. a periodic alarm
        with no stop condition); exceeding it raises
        :class:`SimulationError` via :class:`SimTimeError`'s parent.
        Tombstones consumed along the way never count against the
        budget (they are bookkeeping, not simulation progress) — the
        same accounting :meth:`run_until` uses.
        """
        executed = 0
        step = self.step
        while executed < max_events:
            if not step():
                self._at = _PAST_ALL
                return executed
            executed += 1
        raise SimTimeError(
            f"simulation did not drain within {max_events} events"
        )

    def _peek_live_time(self) -> Optional[int]:
        """Timestamp of the next live event, consuming leading tombstones."""
        queue = self._queue
        events = self._events
        while queue:
            head = queue[0]
            if head[1] in events:
                return head[0]
            heappop(queue)
            self._tombstones -= 1
        return None

    def run_until(self, time: int, max_events: int = 10_000_000) -> int:
        """Run events with timestamp <= ``time``; advance clock to ``time``.

        Events scheduled exactly at ``time`` are executed.  Returns the
        number of executed events; tombstone skips count against
        ``max_events`` exactly like :meth:`run` (that is, not at all —
        only executed events spend the budget).
        """
        if time < self.now:
            raise SimTimeError(
                f"run_until({time}) but now is already {self.now}"
            )
        executed = 0
        while True:
            head_time = self._peek_live_time()
            if head_time is None or head_time > time:
                break
            if executed >= max_events:
                raise SimTimeError(
                    f"run_until did not converge within {max_events} events"
                )
            self.step()
            executed += 1
        if time > self.now:
            self.now = time
        self._at = _PAST_ALL
        return executed

    def run_for(self, duration: int, max_events: int = 10_000_000) -> int:
        """Run for ``duration`` microseconds of simulated time."""
        return self.run_until(self.now + duration, max_events=max_events)


class Owner:
    """One CPU's handle on the kernel: its events and their tie order.

    Events queued through an owner key ``(time, rank << 40 | count)``,
    where ``count`` is this owner's own FIFO counter, so same-instant
    events run in rank order across owners and in queueing order within
    one.  An owner that skips some of its events (a parked CPU) draws
    their counts arithmetically: it sets :attr:`count` to what the
    skipped events would have drawn and queues the events it resumes
    under their own counts with :meth:`schedule_count`.
    """

    __slots__ = ("_sim", "_base", "count")

    def __init__(self, sim: Simulator, rank: int) -> None:
        self._sim = sim
        self._base = rank * _RANK_SPAN
        #: Counts drawn so far: the next event queued gets this one.
        self.count = 0

    def schedule(
        self,
        delay: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """:meth:`Simulator.schedule`, keyed by this owner's next count."""
        if type(delay) is not int:
            _check_delay(delay, "delay")
        if delay < 0:
            raise SimTimeError(f"cannot schedule into the past (delay={delay})")
        sim = self._sim
        seq = self._base + self.count
        self.count += 1
        time = sim.now + delay
        sim._events[seq] = (callback, label)
        heappush(sim._queue, (time, seq))
        return EventHandle(seq, time, label)

    def schedule_count(
        self,
        time: int,
        count: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Queue ``callback`` at absolute ``time`` under a drawn ``count``.

        The key must not have been passed: the event would run out of
        order.
        """
        if self.passed(time, count):
            raise SimTimeError(
                f"event ({time}, {count}) is behind the kernel "
                f"(now {self._sim.now})"
            )
        sim = self._sim
        seq = self._base + count
        sim._events[seq] = (callback, label)
        heappush(sim._queue, (time, seq))
        return EventHandle(seq, time, label)

    def count_of(self, handle: EventHandle) -> int:
        """The owner-local count an event of this owner was queued under."""
        return handle.seq - self._base

    def cancel(self, handle: EventHandle) -> bool:
        """:meth:`Simulator.cancel`."""
        return self._sim.cancel(handle)

    def passed(self, time: int, count: int) -> bool:
        """Whether this owner's event keyed ``(time, count)`` would already
        have run.

        Once :meth:`Simulator.run` or :meth:`Simulator.run_until`
        returns, every key at ``now`` has been passed; a bare
        :meth:`Simulator.step` leaves the position at the event it ran.
        """
        sim = self._sim
        now = sim.now
        return time < now or (time == now and self._base + count < sim._at)

    def behind(self, time: int) -> bool:
        """Whether every event this owner could have at ``time`` has run.

        Exact while no event of this owner is running: the kernel's
        position at ``now`` is then before all of its events at ``now``
        or after all of them.
        """
        sim = self._sim
        now = sim.now
        return time < now or (
            time == now and self._base + _RANK_SPAN <= sim._at
        )


def format_time(us: int) -> str:
    """Human-readable rendering of a kernel timestamp."""
    if us >= SECOND:
        return f"{us / SECOND:.3f}s"
    if us >= MS:
        return f"{us / MS:.3f}ms"
    return f"{us}us"


__all__ = [
    "MS",
    "SECOND",
    "EventHandle",
    "Owner",
    "Simulator",
    "format_time",
]
