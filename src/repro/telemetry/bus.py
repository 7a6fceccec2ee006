"""Bounded structured event pipeline for the substrate and the server.

A :class:`TelemetryBus` is the one event store of the system.  The
in-vehicle substrate (OSEK dispatch, RTE writes, CAN frames, channel
traffic, PIRTE life cycle) publishes into the bus it was built with,
when one is given (``tracer=``).  The trusted server's control plane
owns another one for what the fleet reports back: per-SW-C
:class:`DiagMessage` telemetry relayed through the ECMs, deployment
life-cycle events, pusher back-pressure, and campaign timeline entries.
It is deliberately *bounded*: each category keeps a ring buffer of the
most recent events, and anything evicted is counted instead of silently
lost — observability must never grow without limit just because a run
is long or a campaign is noisy.

Design points:

* **Per-category ring buffers.**  Categories (``"diag"``, ``"deploy"``,
  ``"campaign"``, ``"pusher"``, ``"os"``, ``"rte"``, ``"can"``,
  ``"net"``, ``"pirte"``, ...) are independent; a dispatch storm can
  never evict deployment events.  Every category's ring has the bus's
  one capacity; a capacity of 0 makes every category a pure
  tap-through (counted, never retained).
* **Exact drop accounting.**  ``published == retained + dropped`` holds
  per category at all times; the property tests pin it.
* **Subscriber taps.**  Callbacks see every event *before* ring-buffer
  eviction, so a live consumer (the campaign engine, the fault
  injector's soak anomalies, the gateway's event stream) is never
  subject to buffer pressure.  Taps run synchronously and see events
  in publish order, which keeps runs deterministic under the
  simulation kernel.  An event a tap publishes is counted and retained
  at once, but reaches the taps only after the event being delivered
  has reached all of them, so a tap reacting to a ``deploy`` event
  cannot show its own ``campaign`` event to a later tap first.

The bus itself is clock-free: publishers stamp events with simulated
time, so the bus works identically under the kernel and in plain unit
tests.  A bus defines ``__len__``, so an empty one is falsy: hold it as
``Optional[TelemetryBus]`` and guard with ``is not None``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Iterable, Optional

#: Default per-category ring capacity.
DEFAULT_CATEGORY_CAPACITY = 512


@dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """One structured telemetry record.

    ``category`` selects the ring buffer; ``name`` is the specific
    event; ``vin`` is set for per-vehicle events and empty for
    server-global ones; ``data`` carries event-specific detail.
    """

    time_us: int
    category: str
    name: str
    vin: str = ""
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Deterministic JSON-ready rendering (data keys sorted)."""
        return {
            "time_us": self.time_us,
            "category": self.category,
            "name": self.name,
            "vin": self.vin,
            "data": {key: self.data[key] for key in sorted(self.data)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        vin = f" vin={self.vin}" if self.vin else ""
        return f"<{self.time_us}us {self.category}.{self.name}{vin}>"


class TelemetryBus:
    """Bounded, tap-able, per-category event pipeline."""

    def __init__(
        self, default_capacity: int = DEFAULT_CATEGORY_CAPACITY
    ) -> None:
        if default_capacity < 0:
            raise ValueError(
                f"default capacity must be >= 0 (got {default_capacity})"
            )
        self._default_capacity = default_capacity
        self._buffers: dict[str, Deque[TelemetryEvent]] = {}
        self._published: dict[str, int] = {}
        self._dropped: dict[str, int] = {}
        self._taps: list[
            tuple[Callable[[TelemetryEvent], None], Optional[frozenset]]
        ] = []
        #: True while taps are being called; events published meanwhile
        #: wait in ``_backlog`` for their turn.
        self._delivering = False
        self._backlog: Deque[TelemetryEvent] = deque()

    # -- publishing ------------------------------------------------------------

    def publish(
        self,
        category: str,
        name: str,
        time_us: int,
        vin: str = "",
        **data: Any,
    ) -> TelemetryEvent:
        """Record one event and deliver it to the taps; returns it.

        Called from outside a tap, every tap has seen the event (and
        whatever the taps published meanwhile) when this returns.
        Called from inside a tap, the event is counted and retained at
        once and delivered after the event being delivered.  A tap that
        raises propagates its exception; the events still waiting are
        then not delivered, and the bus stays usable.
        """
        return self.publish_event(
            TelemetryEvent(time_us, category, name, vin, data)
        )

    def publish_event(self, event: TelemetryEvent) -> TelemetryEvent:
        category = event.category
        self._published[category] = self._published.get(category, 0) + 1
        capacity = self._default_capacity
        if capacity == 0:
            # Pure tap-through bus: counted, never retained.
            self._dropped[category] = self._dropped.get(category, 0) + 1
        else:
            buffer = self._buffers.get(category)
            if buffer is None:
                # maxlen=None would be unbounded; capacity 0 never gets here.
                buffer = deque(maxlen=capacity)
                self._buffers[category] = buffer
            if len(buffer) == capacity:
                self._dropped[category] = self._dropped.get(category, 0) + 1
            buffer.append(event)
        if self._delivering:
            self._backlog.append(event)
        elif self._taps:
            self._deliver(event)
        return event

    def _deliver(self, event: TelemetryEvent) -> None:
        """Call the taps for ``event``, then for each event they
        published meanwhile, in publish order."""
        self._delivering = True
        try:
            while True:
                category = event.category
                for callback, categories in list(self._taps):
                    if categories is None or category in categories:
                        callback(event)
                if not self._backlog:
                    return
                event = self._backlog.popleft()
        finally:
            self._delivering = False
            self._backlog.clear()

    # -- taps ------------------------------------------------------------------

    def subscribe(
        self,
        callback: Callable[[TelemetryEvent], None],
        categories: Optional[Iterable[str]] = None,
    ) -> Callable[[TelemetryEvent], None]:
        """Attach a tap; returns ``callback`` for use with unsubscribe.

        ``categories=None`` taps everything.  Taps see events before
        ring eviction, in publish order, synchronously, and in the
        order they subscribed.  A tap may publish: its event reaches
        the taps after the one it is handling (see :meth:`publish`).
        """
        wanted = None if categories is None else frozenset(categories)
        self._taps.append((callback, wanted))
        return callback

    def unsubscribe(self, callback: Callable[[TelemetryEvent], None]) -> None:
        """Detach a previously subscribed tap (no-op when absent).

        Matches by equality, not identity: ``vehicle.method`` builds a
        fresh bound-method object on every attribute access, so
        subscribing and unsubscribing ``self.callback`` would never
        match under ``is``.
        """
        self._taps = [
            (cb, wanted) for cb, wanted in self._taps if cb != callback
        ]

    # -- queries ---------------------------------------------------------------

    def events(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        vin: Optional[str] = None,
        **data: Any,
    ) -> list[TelemetryEvent]:
        """Retained events, oldest first, matching the given filters.

        ``data`` keywords are equality filters on event data.
        """
        if category is not None:
            buffers = [self._buffers.get(category, deque())]
        else:
            buffers = [
                self._buffers[key] for key in sorted(self._buffers)
            ]
        out = []
        for buffer in buffers:
            for event in buffer:
                if name is not None and event.name != name:
                    continue
                if vin is not None and event.vin != vin:
                    continue
                if any(event.data.get(k) != v for k, v in data.items()):
                    continue
                out.append(event)
        return out

    def published(self, category: Optional[str] = None) -> int:
        """Events ever published (to one category, or in total)."""
        if category is not None:
            return self._published.get(category, 0)
        return sum(self._published.values())

    def dropped(self, category: Optional[str] = None) -> int:
        """Events evicted by capacity limits (per category, or total)."""
        if category is not None:
            return self._dropped.get(category, 0)
        return sum(self._dropped.values())

    def retained(self, category: Optional[str] = None) -> int:
        """Events currently held in ring buffers."""
        if category is not None:
            return len(self._buffers.get(category, ()))
        return sum(len(buffer) for buffer in self._buffers.values())

    def __len__(self) -> int:
        return self.retained()

    def categories(self) -> list[str]:
        """Every category that has seen at least one publish (sorted)."""
        return sorted(self._published)

    def snapshot(self) -> dict:
        """Deterministic per-category accounting, JSON-ready."""
        return {
            category: {
                "published": self._published.get(category, 0),
                "retained": len(self._buffers.get(category, ())),
                "dropped": self._dropped.get(category, 0),
                "capacity": self._default_capacity,
            }
            for category in self.categories()
        }

    def clear(self) -> None:
        """Drop retained events and reset counters (taps stay attached)."""
        self._buffers.clear()
        self._published.clear()
        self._dropped.clear()


__all__ = ["DEFAULT_CATEGORY_CAPACITY", "TelemetryEvent", "TelemetryBus"]
