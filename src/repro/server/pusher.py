"""The Pusher module: the server's channel to vehicle ECMs.

The pusher listens on the server's pre-defined address; each vehicle's
ECM dials in at start-up (identified by its VIN as client name).  The
pusher sends management messages downstream and hands every upstream
message (acks) to a callback installed by the web services.

Robustness model: a vehicle may go offline at any moment (the fleet
campaign fault injector forces this through :meth:`Pusher.disconnect`).
Messages pushed while a vehicle is offline land in a bounded per-VIN
outbox and are flushed on reconnection; when the per-VIN cap is hit the
oldest message is discarded and counted in
:attr:`Pusher.dropped_messages`.

An optional :attr:`push filter <Pusher.set_push_filter>` lets test
harnesses drop or delay individual downstream messages deterministically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Sequence

from repro.network.sockets import Endpoint, NetworkFabric

#: Default bound on each per-VIN offline outbox (message count).
DEFAULT_OUTBOX_LIMIT = 256


@dataclass(frozen=True)
class PushVerdict:
    """Decision of a push filter for one downstream message.

    ``deliver=False`` silently drops the message; ``delay_us > 0``
    postpones the send by that much simulated time.
    """

    deliver: bool = True
    delay_us: int = 0

    @classmethod
    def allow(cls) -> "PushVerdict":
        return cls()

    @classmethod
    def drop(cls) -> "PushVerdict":
        return cls(deliver=False)

    @classmethod
    def delay(cls, delay_us: int) -> "PushVerdict":
        return cls(deliver=True, delay_us=delay_us)


class Pusher:
    """Server-side connection registry and message pump."""

    def __init__(
        self,
        fabric: NetworkFabric,
        address: str,
        outbox_limit: int = DEFAULT_OUTBOX_LIMIT,
    ) -> None:
        self.address = address
        self.outbox_limit = outbox_limit
        self._sim = fabric.sim
        self._connections: dict[str, Endpoint] = {}
        self._outboxes: dict[str, Deque[bytes]] = {}
        self._on_upstream: Optional[Callable[[str, bytes], None]] = None
        self._push_filter: Optional[Callable[[str, bytes], PushVerdict]] = None
        self.pushed = 0
        self.received = 0
        self.dropped_messages = 0
        self._queued_bytes = 0
        # Optional observability tap (set by FleetAPI); duck-typed so
        # the pusher has no import dependency on repro.telemetry.
        self._telemetry = None
        fabric.listen(address, self._on_connect)

    @property
    def now(self) -> int:
        """Current simulated time (for services without a kernel ref)."""
        return self._sim.now

    def set_telemetry(self, bus) -> None:
        """Attach a telemetry bus; drops are published as events."""
        self._telemetry = bus

    def on_upstream(self, callback: Callable[[str, bytes], None]) -> None:
        """Install the handler for messages arriving from vehicles."""
        self._on_upstream = callback

    def set_push_filter(
        self, callback: Optional[Callable[[str, bytes], "PushVerdict"]]
    ) -> None:
        """Install (or clear) a filter consulted on every fresh push.

        The filter sees ``(vin, raw)`` and returns a :class:`PushVerdict`.
        Outbox flushes on reconnection bypass the filter — those messages
        already passed it once.
        """
        self._push_filter = callback

    def _on_connect(self, endpoint: Endpoint, client_name: str) -> None:
        self._connections[client_name] = endpoint
        endpoint.on_receive(
            lambda raw, vin=client_name: self._upstream(vin, raw)
        )
        # Flush anything queued while the vehicle was offline.
        outbox = self._outboxes.pop(client_name, None)
        if not outbox:
            return
        if endpoint.closed:
            # The vehicle died between accept and flush: the backlog
            # stays queued for its next dial.
            self._connections.pop(client_name, None)
            self._outboxes[client_name] = outbox
            return
        self._queued_bytes -= sum(map(len, outbox))
        # The endpoint was established in this very callback, so the
        # backlog rides one batched send: a fleet-wide reconnection
        # storm inserts its deliveries with one heapify per vehicle
        # instead of per message.
        endpoint.send_many([(raw, len(raw)) for raw in outbox])
        self.pushed += len(outbox)

    def _upstream(self, vin: str, raw: bytes) -> None:
        self.received += 1
        if self._on_upstream is not None:
            self._on_upstream(vin, raw)

    def inject_upstream(self, vin: str, raw: bytes) -> None:
        """Deliver ``raw`` as if the vehicle had sent it (fault/test hook)."""
        self._upstream(vin, raw)

    def is_connected(self, vin: str) -> bool:
        connection = self._connections.get(vin)
        return connection is not None and not connection.closed

    def disconnect(self, vin: str) -> int:
        """Sever the connection to ``vin`` (vehicle went offline).

        Outbound messages still in flight on the link are reclaimed into
        the offline outbox (front of the queue, original order), so they
        are re-sent when the vehicle dials back in.  Returns the number
        of re-queued messages; the vehicle's upstream in-flight traffic
        is lost, as a real link cut would lose it.
        """
        endpoint = self._connections.pop(vin, None)
        if endpoint is None:
            return 0
        in_flight = endpoint.drain_unsent()
        endpoint.close()
        if not in_flight:
            return 0
        outbox = self._outboxes.setdefault(vin, deque())
        outbox.extendleft(reversed(in_flight))
        self._queued_bytes += sum(map(len, in_flight))
        self._enforce_outbox_limit(vin, outbox)
        return len(in_flight)

    def push(self, vin: str, raw: bytes) -> None:
        """Send bytes to a vehicle, queueing while it is offline."""
        self.push_many(vin, (raw,))

    def push_many(self, vin: str, raws: Sequence[bytes]) -> None:
        """Push messages to one vehicle, in order, in one call.

        The push filter rules on each payload, and an offline vehicle's
        messages queue one by one.  A connected vehicle receives the
        rest through one :meth:`Endpoint.send_many`, so a multi-plugin
        APP deployment costs one kernel batch insert instead of one
        sift-up per package.
        """
        ready: list[bytes] = []
        if self._push_filter is not None:
            for raw in raws:
                verdict = self._push_filter(vin, raw)
                if not verdict.deliver:
                    continue
                if verdict.delay_us > 0:
                    self._sim.schedule(
                        verdict.delay_us,
                        lambda r=raw: self._send_or_queue(vin, (r,)),
                        f"pusher:delayed:{vin}",
                    )
                    continue
                ready.append(raw)
        else:
            ready.extend(raws)
        if ready:
            self._send_or_queue(vin, ready)

    def _send_or_queue(self, vin: str, raws: Sequence[bytes]) -> None:
        """Send ``raws`` if ``vin`` is connected, else queue them for its
        reconnection."""
        endpoint = self._connections.get(vin)
        if endpoint is None or endpoint.closed:
            if endpoint is not None:
                # The connection died under us (vehicle side closed):
                # forget it and keep the messages for the reconnection.
                self._connections.pop(vin, None)
            for raw in raws:
                self._queue_offline(vin, raw)
            return
        endpoint.send_many([(raw, len(raw)) for raw in raws])
        self.pushed += len(raws)

    def _queue_offline(self, vin: str, raw: bytes) -> None:
        outbox = self._outboxes.setdefault(vin, deque())
        outbox.append(raw)
        self._queued_bytes += len(raw)
        self._enforce_outbox_limit(vin, outbox)

    def _enforce_outbox_limit(self, vin: str, outbox: Deque[bytes]) -> None:
        while len(outbox) > self.outbox_limit:
            raw = outbox.popleft()
            self._queued_bytes -= len(raw)
            self.dropped_messages += 1
            if self._telemetry is not None:
                self._telemetry.publish(
                    "pusher", "message_dropped", self._sim.now,
                    vin=vin, bytes=len(raw),
                )

    def pending_for(self, vin: str) -> int:
        """Messages queued for an offline vehicle."""
        return len(self._outboxes.get(vin, ()))

    @property
    def outbox_bytes(self) -> int:
        """Total bytes currently queued across all offline outboxes."""
        return self._queued_bytes


__all__ = ["Pusher", "PushVerdict", "DEFAULT_OUTBOX_LIMIT"]
