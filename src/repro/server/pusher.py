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

On top of the per-VIN caps sits a **global memory budget**
(``memory_budget_bytes``): when the total bytes queued across all
outboxes exceed it, the pusher evicts oldest-campaign-first — the
campaign that started queueing earliest loses its oldest queued message
first, so a fresh rollout is never starved by a stale one's backlog.
Downstream pushes carry an optional ``campaign`` tag for this;
:attr:`Pusher.dropped_by_campaign` breaks the drop counter down per
campaign (untagged traffic is keyed ``""`` and ranks oldest).  Eviction
is O(#campaigns + per-VIN cap) via a lazily-cleaned per-campaign FIFO
index, not a scan of every queued message.

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

#: Internal eviction-index key for in-flight traffic reclaimed by
#: :meth:`Pusher.disconnect`.  Kept separate from fresh untagged pushes
#: so both index queues stay seq-ascending; shares the untagged rank 0,
#: and reclaimed seqs are negative, so reclaimed traffic always ranks
#: oldest.
_RECLAIM_KEY = "\x00reclaimed"


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


@dataclass(eq=False, slots=True)
class _Queued:
    """One message waiting in an offline outbox.

    ``gone`` marks entries already flushed or dropped from their VIN
    outbox; the per-campaign index skips them lazily instead of paying
    a removal on every send.  Identity equality (``eq=False``) keeps
    ``deque.remove`` from confusing two identical payloads.
    """

    vin: str
    campaign: str
    raw: bytes
    seq: int
    gone: bool = False


class Pusher:
    """Server-side connection registry and message pump."""

    def __init__(
        self,
        fabric: NetworkFabric,
        address: str,
        outbox_limit: int = DEFAULT_OUTBOX_LIMIT,
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        self.address = address
        self.outbox_limit = outbox_limit
        self.memory_budget_bytes = memory_budget_bytes
        self._sim = fabric.sim
        self._connections: dict[str, Endpoint] = {}
        self._outboxes: dict[str, Deque[_Queued]] = {}
        self._on_upstream: Optional[Callable[[str, bytes], None]] = None
        self._push_filter: Optional[Callable[[str, bytes], PushVerdict]] = None
        self.pushed = 0
        self.received = 0
        self.dropped_messages = 0
        self.dropped_by_campaign: dict[str, int] = {}
        self.filtered_messages = 0
        self.disconnects = 0
        self._queued_bytes = 0
        self._queue_seq = 0
        # Reclaimed in-flight messages rank below every fresh push and
        # ascend with reclamation time, so the earliest-severed link's
        # traffic is evicted first under budget pressure.
        self._reclaim_seq = -(1 << 60)
        # Campaign -> first-seen rank; "" (untagged) pre-ranked oldest.
        # Ranks come from a monotonic counter so pruning drained
        # campaigns can never produce a rank collision.
        self._rank_seq = 0
        self._campaign_rank: dict[str, int] = {"": 0}
        # Campaign -> its queued entries in seq order (lazy deletion).
        self._by_campaign: dict[str, Deque[_Queued]] = {}
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
        if outbox:
            touched = set()
            batch: list[tuple[bytes, int]] = []
            while outbox:
                entry = outbox.popleft()
                if entry.gone:
                    # Evicted by the memory budget while this very
                    # flush re-queued an earlier message: already
                    # counted and blanked — do not deliver b"".
                    continue
                entry.gone = True
                self._queued_bytes -= len(entry.raw)
                raw = entry.raw
                entry.raw = b""  # the index keeps only a shell
                # Reclaimed entries (negative seq) live under the
                # reclaim index key, not their campaign tag.
                touched.add(
                    _RECLAIM_KEY if entry.seq < 0 else entry.campaign
                )
                if endpoint.closed:
                    # The vehicle died between accept and flush: route
                    # through _send_now's offline fallback, which
                    # re-queues with the campaign tag intact (and may
                    # evict a not-yet-flushed entry — the gone check
                    # above skips it on a later iteration).
                    self._send_now(client_name, raw, entry.campaign)
                else:
                    batch.append((raw, len(raw)))
            if batch:
                # The endpoint was established in this very callback, so
                # the backlog rides one batched send: a fleet-wide
                # reconnection storm inserts its deliveries with one
                # heapify per vehicle instead of per message.
                endpoint.send_many(batch)
                self.pushed += len(batch)
            for campaign in touched:
                self._trim_index(campaign)

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
        is lost, as a real link cut would lose it.  Reclaimed messages
        lose their campaign tag (the link does not carry it), so they
        rank oldest under budget pressure.
        """
        endpoint = self._connections.pop(vin, None)
        if endpoint is None:
            return 0
        in_flight = endpoint.drain_unsent()
        endpoint.close()
        self.disconnects += 1
        if not in_flight:
            return 0
        outbox = self._outboxes.setdefault(vin, deque())
        index = self._by_campaign.setdefault(_RECLAIM_KEY, deque())
        entries = []
        for raw in in_flight:  # original send order, oldest first
            self._reclaim_seq += 1
            entries.append(_Queued(vin, "", raw, self._reclaim_seq))
        for entry in entries:
            index.append(entry)  # seq-ascending across batches too
            self._queued_bytes += len(entry.raw)
        for entry in reversed(entries):
            outbox.appendleft(entry)  # front of the VIN queue, in order
        self._enforce_outbox_limit(outbox)
        self._enforce_memory_budget()
        return len(in_flight)

    def push(self, vin: str, raw: bytes, campaign: str = "") -> None:
        """Send bytes to a vehicle, queueing while it is offline.

        ``campaign`` tags the message for the global outbox budget's
        oldest-campaign-first eviction; portal one-offs leave it empty.
        """
        if self._push_filter is not None:
            verdict = self._push_filter(vin, raw)
            if not verdict.deliver:
                self.filtered_messages += 1
                return
            if verdict.delay_us > 0:
                self._sim.schedule(
                    verdict.delay_us,
                    lambda: self._push_unfiltered(vin, raw, campaign),
                    f"pusher:delayed:{vin}",
                )
                return
        self._push_unfiltered(vin, raw, campaign)

    def push_many(
        self, vin: str, raws: Sequence[bytes], campaign: str = ""
    ) -> None:
        """Push a batch of messages to one vehicle in one call.

        Message-for-message equivalent to looping :meth:`push` (the
        filter still rules on each payload, offline messages still
        queue individually), but a connected vehicle receives the whole
        batch through one :meth:`Endpoint.send_many`, so a multi-plugin
        APP deployment costs one kernel batch insert instead of one
        sift-up per package.
        """
        ready: list[bytes] = []
        if self._push_filter is not None:
            for raw in raws:
                verdict = self._push_filter(vin, raw)
                if not verdict.deliver:
                    self.filtered_messages += 1
                    continue
                if verdict.delay_us > 0:
                    self._sim.schedule(
                        verdict.delay_us,
                        lambda r=raw: self._push_unfiltered(vin, r, campaign),
                        f"pusher:delayed:{vin}",
                    )
                    continue
                ready.append(raw)
        else:
            ready.extend(raws)
        if not ready:
            return
        endpoint = self._connections.get(vin)
        if endpoint is None or endpoint.closed:
            if endpoint is not None:
                # The connection died under us: same bookkeeping as
                # _send_now's offline fallback.
                self._connections.pop(vin, None)
            for raw in ready:
                self._queue_offline(vin, raw, campaign)
            return
        endpoint.send_many([(raw, len(raw)) for raw in ready])
        self.pushed += len(ready)

    def _push_unfiltered(self, vin: str, raw: bytes, campaign: str) -> None:
        if self.is_connected(vin):
            self._send_now(vin, raw, campaign)
        else:
            self._queue_offline(vin, raw, campaign)

    def _queue_offline(self, vin: str, raw: bytes, campaign: str) -> None:
        # Ranks record first-*queued* order (live sends never rank): the
        # campaign that started queueing earliest evicts first.
        if campaign not in self._campaign_rank:
            self._rank_seq += 1
            self._campaign_rank[campaign] = self._rank_seq
        outbox = self._outboxes.setdefault(vin, deque())
        self._queue_seq += 1
        entry = _Queued(vin, campaign, raw, self._queue_seq)
        outbox.append(entry)
        index = self._by_campaign.setdefault(campaign, deque())
        while index and index[0].gone:  # amortized index cleanup
            index.popleft()
        index.append(entry)
        self._queued_bytes += len(raw)
        self._enforce_outbox_limit(outbox)
        self._enforce_memory_budget()

    def _drop(self, entry: _Queued) -> None:
        entry.gone = True
        self._queued_bytes -= len(entry.raw)
        self.dropped_messages += 1
        self.dropped_by_campaign[entry.campaign] = (
            self.dropped_by_campaign.get(entry.campaign, 0) + 1
        )
        if self._telemetry is not None:
            self._telemetry.publish(
                "pusher", "message_dropped", self._sim.now,
                vin=entry.vin, campaign=entry.campaign, bytes=len(entry.raw),
            )
        entry.raw = b""  # the index keeps only a shell

    def _trim_index(self, campaign: str) -> None:
        """Drop a campaign's leading gone entries; prune it when drained."""
        queue = self._by_campaign.get(campaign)
        if queue is None:
            return
        while queue and queue[0].gone:
            queue.popleft()
        if not queue:
            del self._by_campaign[campaign]
            if campaign:  # "" keeps rank 0: untagged stays oldest
                self._campaign_rank.pop(campaign, None)

    def _enforce_outbox_limit(self, outbox: Deque[_Queued]) -> None:
        while len(outbox) > self.outbox_limit:
            self._drop(outbox.popleft())

    def _enforce_memory_budget(self) -> None:
        """Evict oldest-campaign-first until under the global budget."""
        if self.memory_budget_bytes is None:
            return
        while self._queued_bytes > self.memory_budget_bytes:
            entry = self._pop_oldest_entry()
            if entry is None:
                return
            outbox = self._outboxes.get(entry.vin)
            if outbox is not None:
                try:
                    outbox.remove(entry)
                except ValueError:  # pragma: no cover - defensive
                    pass
            self._drop(entry)

    def _pop_oldest_entry(self) -> Optional[_Queued]:
        """The globally oldest live entry of the oldest campaign.

        Consults the per-campaign FIFO index, discarding entries that
        already left their outbox (flushed or dropped) from the front.
        """
        best_queue: Optional[Deque[_Queued]] = None
        best_key: Optional[tuple[int, int]] = None
        drained = []
        for campaign, queue in self._by_campaign.items():
            while queue and queue[0].gone:
                queue.popleft()
            if not queue:
                drained.append(campaign)
                continue
            key = (self._campaign_rank.get(campaign, 0), queue[0].seq)
            if best_key is None or key < best_key:
                best_key = key
                best_queue = queue
        # Prune drained campaigns (queue AND rank) so long-lived servers
        # do not accumulate state for every campaign they ever ran.  A
        # re-appearing tag is simply re-ranked as newest — which the
        # oldest-backlog-first policy tolerates.  "" keeps its rank so
        # untagged traffic always stays oldest.
        for campaign in drained:
            del self._by_campaign[campaign]
            if campaign:
                self._campaign_rank.pop(campaign, None)
        if best_queue is None:
            return None
        return best_queue.popleft()

    def _send_now(self, vin: str, raw: bytes, campaign: str = "") -> None:
        endpoint = self._connections.get(vin)
        if endpoint is None or endpoint.closed:
            # The connection died under us (vehicle side closed): treat
            # as offline and keep the message — with its campaign tag —
            # for the reconnection.
            self._connections.pop(vin, None)
            self._queue_offline(vin, raw, campaign)
            return
        endpoint.send(raw, size=len(raw))
        self.pushed += 1

    def pending_for(self, vin: str) -> int:
        """Messages queued for an offline vehicle."""
        return len(self._outboxes.get(vin, ()))

    @property
    def outbox_bytes(self) -> int:
        """Total bytes currently queued across all offline outboxes."""
        return self._queued_bytes


__all__ = ["Pusher", "PushVerdict", "DEFAULT_OUTBOX_LIMIT"]
