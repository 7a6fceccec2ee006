"""Point-to-point simulated message channels.

A :class:`Channel` is a unidirectional pipe with configurable propagation
latency, jitter, bandwidth-derived serialization delay, and Bernoulli
loss.  :class:`DuplexLink` bundles two channels into a bidirectional link,
which is what the socket layer hands out on connection establishment.

Delivery preserves FIFO order per channel even under jitter: a message
never overtakes an earlier message on the same channel (modelling an
ordered transport such as TCP, which the paper's ECM uses).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.errors import ChannelClosedError
from repro.sim.kernel import EventHandle, Simulator
from repro.sim.random import SeededStream
from repro.telemetry.bus import TelemetryBus


@dataclass(frozen=True)
class ChannelProfile:
    """Timing and reliability parameters of a channel.

    ``latency_us`` is the fixed propagation delay; ``jitter_us`` the
    maximum symmetric random perturbation; ``bytes_per_us`` the
    serialization bandwidth (0 means infinite); ``loss`` the independent
    per-message drop probability.
    """

    latency_us: int = 200
    jitter_us: int = 0
    bytes_per_us: float = 0.0
    loss: float = 0.0

    def serialization_delay(self, size: int) -> int:
        """Microseconds needed to push ``size`` bytes onto the medium."""
        if self.bytes_per_us <= 0:
            return 0
        return int(round(size / self.bytes_per_us))


#: Profile resembling a local wired connection (in-vehicle Ethernet).
WIRED = ChannelProfile(latency_us=100, jitter_us=10, bytes_per_us=12.5)
#: Profile resembling a cellular uplink to an off-board server.
CELLULAR = ChannelProfile(latency_us=45_000, jitter_us=15_000, bytes_per_us=1.25)
#: Profile resembling a local wireless link (phone to vehicle).
WIFI = ChannelProfile(latency_us=2_000, jitter_us=800, bytes_per_us=6.25)
#: Ideal zero-delay channel, for unit tests.
IDEAL = ChannelProfile(latency_us=0, jitter_us=0, bytes_per_us=0.0, loss=0.0)


class Channel:
    """One-directional ordered message pipe."""

    def __init__(
        self,
        sim: Simulator,
        profile: ChannelProfile,
        name: str,
        rng: Optional[SeededStream] = None,
        tracer: Optional[TelemetryBus] = None,
    ) -> None:
        self.sim = sim
        self.profile = profile
        self.name = name
        self.rng = rng
        self.tracer = tracer
        self._label = f"net:{name}"  # built once; send() runs per message
        self._receiver: Optional[Callable[[Any], None]] = None
        self._closed = False
        self._last_delivery_time = 0
        self._in_flight: dict[int, tuple[EventHandle, Any]] = {}
        self._in_flight_keys = itertools.count()
        self.sent = 0
        self.delivered = 0
        self.dropped = 0

    def on_receive(self, callback: Callable[[Any], None]) -> None:
        """Install the receive callback (one receiver per channel)."""
        self._receiver = callback

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the channel; later sends raise, in-flight messages die."""
        self._closed = True

    def _admit(self, size: int) -> Optional[int]:
        """Loss/delay model for one message: arrival time, or None if lost.

        Mutates the channel's RNG and FIFO watermark, so callers must
        invoke it exactly once per message, in send order.
        """
        self.sent += 1
        if self.profile.loss > 0 and self.rng is not None:
            if self.rng.chance(self.profile.loss):
                self.dropped += 1
                if self.tracer is not None:
                    self.tracer.publish(
                        "net", "drop", self.sim.now, channel=self.name
                    )
                return None
        delay = self.profile.latency_us + self.profile.serialization_delay(size)
        if self.profile.jitter_us > 0 and self.rng is not None:
            delay = self.rng.jitter(delay, self.profile.jitter_us)
        arrival = self.sim.now + delay
        # Enforce FIFO: jitter may not reorder messages on one channel.
        arrival = max(arrival, self._last_delivery_time)
        self._last_delivery_time = arrival
        if self.tracer is not None:
            self.tracer.publish(
                "net", "send", self.sim.now, channel=self.name, size=size
            )
        return arrival

    def send(self, message: Any, size: int = 0) -> None:
        """Enqueue ``message`` for delivery after the channel's delays.

        ``size`` (bytes) feeds the serialization-delay model; callers that
        ship real byte payloads pass ``len(payload)``.
        """
        if self._closed:
            raise ChannelClosedError(f"channel {self.name} is closed")
        arrival = self._admit(size)
        if arrival is None:
            return
        key = next(self._in_flight_keys)
        handle = self.sim.schedule_at(
            arrival, lambda: self._deliver(message, key), self._label
        )
        self._in_flight[key] = (handle, message)

    def send_many(self, items: Iterable[tuple[Any, int]]) -> None:
        """Send a batch of ``(message, size)`` pairs in one call.

        Event-for-event identical to looping :meth:`send` — the loss
        and jitter draws happen per message in send order — but the
        kernel inserts the deliveries with one
        :meth:`~repro.sim.kernel.Simulator.schedule_many` batch, which
        is how the server's pusher floods a reconnecting vehicle's
        backlog without N sift-ups.
        """
        if self._closed:
            raise ChannelClosedError(f"channel {self.name} is closed")
        now = self.sim.now
        batch: list[tuple[int, Callable[[], None]]] = []
        admitted: list[tuple[int, Any]] = []
        for message, size in items:
            arrival = self._admit(size)
            if arrival is None:
                continue
            key = next(self._in_flight_keys)
            batch.append(
                (arrival - now, lambda m=message, k=key: self._deliver(m, k))
            )
            admitted.append((key, message))
        if not batch:
            return
        handles = self.sim.schedule_many(batch, self._label)
        for (key, message), handle in zip(admitted, handles):
            self._in_flight[key] = (handle, message)

    @property
    def in_flight(self) -> int:
        """Messages sent but not yet delivered (nor dropped)."""
        return len(self._in_flight)

    def drain_in_flight(self) -> list[Any]:
        """Cancel every undelivered message; returns them in send order.

        Models a link that is severed mid-transfer: the caller (e.g. the
        server's pusher on ``disconnect``) can re-queue the reclaimed
        messages instead of silently losing them.
        """
        drained = []
        for handle, message in self._in_flight.values():
            if self.sim.cancel(handle):
                drained.append(message)
        self._in_flight.clear()
        return drained

    def _deliver(self, message: Any, key: int) -> None:
        self._in_flight.pop(key, None)
        if self._closed or self._receiver is None:
            return
        self.delivered += 1
        if self.tracer is not None:
            self.tracer.publish(
                "net", "deliver", self.sim.now, channel=self.name
            )
        self._receiver(message)


class DuplexLink:
    """A bidirectional link made of two :class:`Channel` halves."""

    def __init__(
        self,
        sim: Simulator,
        profile: ChannelProfile,
        name: str,
        rng_a: Optional[SeededStream] = None,
        rng_b: Optional[SeededStream] = None,
        tracer: Optional[TelemetryBus] = None,
    ) -> None:
        self.name = name
        self.a_to_b = Channel(sim, profile, f"{name}:a->b", rng_a, tracer)
        self.b_to_a = Channel(sim, profile, f"{name}:b->a", rng_b, tracer)

    def close(self) -> None:
        """Close both directions."""
        self.a_to_b.close()
        self.b_to_a.close()

    @property
    def closed(self) -> bool:
        return self.a_to_b.closed and self.b_to_a.closed


__all__ = [
    "ChannelProfile",
    "Channel",
    "DuplexLink",
    "WIRED",
    "CELLULAR",
    "WIFI",
    "IDEAL",
]
