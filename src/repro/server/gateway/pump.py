"""The command pump: thread-safe ingress into a single-threaded sim.

The simulator is single-threaded discrete-event; FleetAPI, the
database, and the campaign engine are only safe to touch from the
thread that advances it.  HTTP worker threads therefore never call the
control plane directly — they :meth:`~CommandPump.submit` a closure
and block on a :class:`threading.Event`; a sim-side pump scheduled as
ordinary kernel events (via ``schedule_many``, in self-rescheduling
batches) drains the queue *between* simulation events and executes the
closures on the sim thread.  Each command is claimed exactly once:
either the pump runs it or a waiter that timed out abandons it.  A
gateway driver thread blocks in :meth:`~CommandPump.wait_for_command`
while a request is in flight, and every submission wakes it.

Determinism: an idle pump tick touches neither RNG streams nor any
entity state — attaching a gateway to a seeded scenario and never
sending traffic replays byte-identically against the same scenario
without a gateway.  Traffic, by construction, is executed at event
boundaries in arrival order, so its effects interleave with the
simulation exactly as any other scheduled callback would.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Optional

from repro.errors import ServerError
from repro.server.services.envelope import Response
from repro.sim.kernel import MS, Simulator
from repro.telemetry.metrics import MetricsRegistry

#: Sim-time spacing between pump ticks.
DEFAULT_INTERVAL_US = 5 * MS

#: Ticks scheduled per ``schedule_many`` batch; the last tick of a
#: batch schedules the next batch.
TICK_BATCH = 32


class GatewayTimeout(ServerError):
    """A submitted command was not pumped before the caller's deadline,
    and never will be.

    Raised on the *HTTP worker* thread — typically means nothing is
    advancing the simulator (gateway started with ``drive=False`` and
    no test code stepping it).
    """


class _Command:
    """One enqueued request: closure, claim, completion event, result."""

    __slots__ = ("fn", "claim", "done", "response", "error")

    def __init__(self, fn: Callable[[], Response]) -> None:
        self.fn = fn
        #: Taken exactly once: by the pump, which then runs the command,
        #: or by a waiter that gave up, which abandons it.
        self.claim = threading.Lock()
        self.done = threading.Event()
        self.response: Optional[Response] = None
        self.error: Optional[BaseException] = None


class CommandPump:
    """Bridges HTTP worker threads onto the simulator thread.

    ``metrics`` (a :class:`~repro.telemetry.MetricsRegistry`) receives
    ``gateway.commands`` (executed count) and ``gateway.queue.depth``
    (executed per tick, a gauge).  A command whose waiter timed out
    before the pump reached it is skipped and counted in neither.
    """

    def __init__(self, sim: Simulator, metrics: MetricsRegistry) -> None:
        self.sim = sim
        self.metrics = metrics
        self._queue: "queue.SimpleQueue[_Command]" = queue.SimpleQueue()
        #: Notified on every submission and by :meth:`notify`; a driver
        #: blocks on it in :meth:`wait_for_command`.
        self._ready = threading.Condition()
        self._notified = False
        self._handles: list = []
        self._attached = False
        self.executed = 0

    # -- sim side --------------------------------------------------------------

    def attach(self) -> None:
        """Schedule the first batch of pump ticks; idempotent."""
        if self._attached:
            return
        self._attached = True
        self._schedule_batch()

    def detach(self) -> None:
        """Cancel outstanding ticks and stop rescheduling.

        Commands still queued are failed over to their waiters as
        :class:`GatewayTimeout` so no HTTP thread blocks forever.
        """
        if not self._attached:
            return
        self._attached = False
        for handle in self._handles:
            self.sim.cancel(handle)
        self._handles = []
        self._reject_pending("gateway pump detached")

    def _schedule_batch(self) -> None:
        if not self._attached:
            return

        def tick(last: bool):
            def _tick() -> None:
                if not self._attached:
                    return
                self.pump()
                if last:
                    self._schedule_batch()
            return _tick

        items = [
            ((k + 1) * DEFAULT_INTERVAL_US, tick(last=k == TICK_BATCH - 1))
            for k in range(TICK_BATCH)
        ]
        self._handles = self.sim.schedule_many(items, "gateway:pump")

    def pump(self) -> int:
        """Drain the queue and execute every live command; returns the count.

        Runs on the simulator thread (called by the scheduled ticks or
        directly by tests).  Executes in FIFO submission order and skips
        commands their waiters abandoned.
        """
        drained = 0
        while True:
            try:
                command = self._queue.get_nowait()
            except queue.Empty:
                break
            if not command.claim.acquire(blocking=False):
                continue
            drained += 1
            try:
                command.response = command.fn()
            except BaseException as error:  # noqa: BLE001 - relayed to waiter
                command.error = error
            command.done.set()
        if drained:
            self.executed += drained
            self.metrics.inc("gateway.commands", drained)
            self.metrics.set_gauge("gateway.queue.depth", drained)
        return drained

    def _reject_pending(self, reason: str) -> None:
        while True:
            try:
                command = self._queue.get_nowait()
            except queue.Empty:
                return
            if command.claim.acquire(blocking=False):
                command.error = GatewayTimeout(reason)
                command.done.set()

    # -- driver side -----------------------------------------------------------

    def wait_for_command(self, timeout_s: float) -> None:
        """Block until a command is submitted, :meth:`notify` is called,
        or ``timeout_s`` passes.

        Returns at once when a command is queued or a notification came
        since the last wait.  Both are checked under the condition's
        lock, so a submission or notification racing with the caller's
        decision to wait is never lost.
        """
        with self._ready:
            if self._queue.empty() and not self._notified:
                self._ready.wait(timeout_s)
            self._notified = False

    def notify(self) -> None:
        """Wake a caller of :meth:`wait_for_command`, now or at its next
        call."""
        with self._ready:
            self._notified = True
            self._ready.notify_all()

    # -- HTTP worker side ------------------------------------------------------

    def submit(
        self, fn: Callable[[], Response], timeout_s: float = 30.0
    ) -> Response:
        """Enqueue ``fn`` and block until the sim thread has run it.

        Re-raises whatever ``fn`` raised; raises :class:`GatewayTimeout`
        when no pump tick started the command within ``timeout_s`` wall
        seconds.  A command that timed out never runs; one the pump
        started in time is waited for, however long it takes.
        """
        command = _Command(fn)
        with self._ready:
            self._queue.put(command)
            self._ready.notify_all()
        if not command.done.wait(timeout_s):
            if command.claim.acquire(blocking=False):
                raise GatewayTimeout(
                    f"command not pumped within {timeout_s}s "
                    "(is anything advancing the simulator?)"
                )
            command.done.wait()
        if command.error is not None:
            raise command.error
        assert command.response is not None
        return command.response


__all__ = ["CommandPump", "DEFAULT_INTERVAL_US", "GatewayTimeout", "TICK_BATCH"]
