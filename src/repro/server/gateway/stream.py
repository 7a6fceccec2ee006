"""Live event stream: TelemetryBus tap -> per-client bounded buffers.

A :class:`StreamBroker` subscribes once to the control plane's
:class:`~repro.telemetry.TelemetryBus` (on the simulator thread, where
all publishes happen), stamps every event with a globally monotonic
sequence number, and fans it out to registered clients.  Each client
owns a bounded deque guarded by a condition variable; HTTP worker
threads long-poll on it (``GET /v1/events?after=<seq>``) without ever
touching the simulator.

Slow-consumer semantics mirror the bus's own ring buffers: when a
client's buffer is full the oldest event is evicted and *counted*, so
``enqueued == delivered + pending + dropped`` holds exactly per client
at all times.  A client that re-polls with ``after`` beyond buffered
events acknowledges them; acknowledged skips count as delivered.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Iterable, Optional

from repro.telemetry.bus import TelemetryBus, TelemetryEvent
from repro.telemetry.metrics import MetricsRegistry

#: Per-client buffer capacity unless the client asks otherwise.
DEFAULT_CLIENT_BUFFER = 256

#: Hard cap a client may request.
MAX_CLIENT_BUFFER = 4096

#: Registered clients that have not polled for this long are evicted
#: on the next registration (wall clock; stream plumbing, not sim state).
CLIENT_IDLE_TTL_S = 300.0


class StreamClient:
    """One consumer's bounded view of the event stream."""

    def __init__(
        self,
        client_id: str,
        categories: Optional[frozenset[str]] = None,
        capacity: int = DEFAULT_CLIENT_BUFFER,
    ) -> None:
        if not 1 <= capacity <= MAX_CLIENT_BUFFER:
            raise ValueError(
                f"client buffer must be in [1, {MAX_CLIENT_BUFFER}] "
                f"(got {capacity})"
            )
        self.client_id = client_id
        self.categories = categories
        self.capacity = capacity
        self._buffer: deque[dict] = deque()
        self._cond = threading.Condition()
        self.enqueued = 0
        self.delivered = 0
        self.dropped = 0
        self.last_poll_wall = time.monotonic()

    def wants(self, category: str) -> bool:
        return self.categories is None or category in self.categories

    def offer(self, item: dict) -> None:
        """Fan one sequenced event in (broker side, sim thread)."""
        with self._cond:
            if len(self._buffer) >= self.capacity:
                self._buffer.popleft()
                self.dropped += 1
            self._buffer.append(item)
            self.enqueued += 1
            self._cond.notify_all()

    def poll(
        self,
        after: int = -1,
        max_events: int = 100,
        timeout_s: float = 0.0,
    ) -> dict:
        """Long-poll: events with ``seq > after``, oldest first.

        Blocks up to ``timeout_s`` wall seconds for the first eligible
        event, then returns at most ``max_events``.  Buffered events
        with ``seq <= after`` are treated as acknowledged by the client
        and discarded (counted as delivered).
        """
        max_events = max(1, max_events)
        deadline = time.monotonic() + max(0.0, timeout_s)
        batch: list[dict] = []
        with self._cond:
            self.last_poll_wall = time.monotonic()
            while True:
                while self._buffer and self._buffer[0]["seq"] <= after:
                    self._buffer.popleft()
                    self.delivered += 1
                while self._buffer and len(batch) < max_events:
                    batch.append(self._buffer.popleft())
                    self.delivered += 1
                if batch:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            pending = len(self._buffer)
            stats = self._stats_locked()
        return {
            "client": self.client_id,
            "events": batch,
            "next_after": batch[-1]["seq"] if batch else after,
            "pending": pending,
            **stats,
        }

    def _stats_locked(self) -> dict:
        return {
            "enqueued": self.enqueued,
            "delivered": self.delivered,
            "dropped": self.dropped,
        }

    def stats(self) -> dict:
        """Exact accounting snapshot; ``unaccounted`` must be 0."""
        with self._cond:
            pending = len(self._buffer)
            stats = self._stats_locked()
        stats.update(
            client=self.client_id,
            pending=pending,
            capacity=self.capacity,
            unaccounted=(
                stats["enqueued"]
                - stats["delivered"]
                - stats["dropped"]
                - pending
            ),
        )
        return stats


class StreamBroker:
    """Sequences bus events and fans them out to stream clients."""

    def __init__(self, bus: TelemetryBus, metrics: MetricsRegistry) -> None:
        self.bus = bus
        self.metrics = metrics
        self._lock = threading.Lock()
        self._clients: dict[str, StreamClient] = {}
        self._seq = 0
        self._next_client = 0
        self._attached = False

    # -- bus side (sim thread) -------------------------------------------------

    def attach(self) -> None:
        if self._attached:
            return
        self._attached = True
        self.bus.subscribe(self._tap)

    def detach(self) -> None:
        if not self._attached:
            return
        self._attached = False
        self.bus.unsubscribe(self._tap)

    def _tap(self, event: TelemetryEvent) -> None:
        """Stamp a sequence number and fan out (runs inside publish)."""
        with self._lock:
            self._seq += 1
            item = {"seq": self._seq, **event.to_dict()}
            clients = [
                client
                for client in self._clients.values()
                if client.wants(event.category)
            ]
        for client in clients:
            client.offer(item)
        if clients:
            self.metrics.inc("gateway.stream.fanout", len(clients))

    # -- HTTP worker side ------------------------------------------------------

    def client(
        self,
        client_id: Optional[str] = None,
        categories: Optional[Iterable[str]] = None,
        capacity: Optional[int] = None,
    ) -> StreamClient:
        """Get or create a stream client.

        ``client_id=None`` registers a fresh client (ids are
        ``c-1, c-2, ...``); passing an unknown id re-registers it —
        a long-gone (evicted) consumer silently starts a new buffer
        rather than erroring, matching long-poll reconnect semantics.
        """
        now = time.monotonic()
        with self._lock:
            if client_id is not None:
                existing = self._clients.get(client_id)
                if existing is not None:
                    return existing
            else:
                self._next_client += 1
                client_id = f"c-{self._next_client}"
            for stale_id, stale in list(self._clients.items()):
                if now - stale.last_poll_wall > CLIENT_IDLE_TTL_S:
                    del self._clients[stale_id]
            client = StreamClient(
                client_id,
                categories=(
                    None if categories is None else frozenset(categories)
                ),
                capacity=capacity or DEFAULT_CLIENT_BUFFER,
            )
            self._clients[client_id] = client
            self.metrics.set_gauge(
                "gateway.stream.clients", len(self._clients)
            )
            return client

    @property
    def seq(self) -> int:
        with self._lock:
            return self._seq

    def stats(self) -> dict:
        """Broker-wide accounting: sequence high-water mark + per client."""
        with self._lock:
            clients = list(self._clients.values())
            seq = self._seq
        per_client = [client.stats() for client in clients]
        return {
            "seq": seq,
            "clients": len(per_client),
            "dropped": sum(stats["dropped"] for stats in per_client),
            "unaccounted": sum(stats["unaccounted"] for stats in per_client),
            "per_client": per_client,
        }


__all__ = [
    "CLIENT_IDLE_TTL_S",
    "DEFAULT_CLIENT_BUFFER",
    "MAX_CLIENT_BUFFER",
    "StreamBroker",
    "StreamClient",
]
