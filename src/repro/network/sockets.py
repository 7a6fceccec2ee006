"""Socket-like API over simulated channels.

The paper's ECM PIRTE "creates a socket client to set up a connection with
a pre-defined trusted server".  This module provides that shape: a
:class:`NetworkFabric` in which servers :meth:`~NetworkFabric.listen` on
string addresses (``"server.oem.example:7000"``) and clients
:meth:`~NetworkFabric.connect`, yielding a pair of :class:`Endpoint`
objects over a :class:`DuplexLink`.  A vehicle's connection to its
trusted server is an :class:`Uplink`, at either simulation fidelity.

Each message travels with an explicit ``size``, the byte count the
latency model charges for.  Every sender in the platform passes real
encoded bytes and their length: the server, the ECMs and the
statistical vehicles exchange :mod:`repro.core.messages` encodings, and
the phone sends :mod:`repro.core.external` frames.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Iterable, Optional

from repro.errors import (
    AddressInUseError,
    ConnectionRefusedError_,
)
from repro.network.channel import ChannelProfile, DuplexLink, WIRED
from repro.sim.kernel import Simulator
from repro.sim.random import SeededStream, StreamFactory
from repro.telemetry.bus import TelemetryBus


class Endpoint:
    """One side of an established connection.

    Incoming messages are queued until a receive callback is installed;
    installing the callback flushes the queue in order.
    """

    def __init__(self, name: str, tx: Any, rx: Any) -> None:
        self.name = name
        self._tx = tx
        self._rx = rx
        self._callback: Optional[Callable[[Any], None]] = None
        self._backlog: list[Any] = []
        rx.on_receive(self._on_message)

    def send(self, message: Any, size: int = 0) -> None:
        """Send one message to the peer."""
        self._tx.send(message, size=size)

    def send_many(self, items: "Iterable[tuple[Any, int]]") -> None:
        """Send a batch of ``(message, size)`` pairs (see Channel.send_many)."""
        self._tx.send_many(items)

    def on_receive(self, callback: Callable[[Any], None]) -> None:
        """Install the receive handler and flush any queued messages."""
        self._callback = callback
        while self._backlog and self._callback is not None:
            self._callback(self._backlog.pop(0))

    def _on_message(self, message: Any) -> None:
        if self._callback is None:
            self._backlog.append(message)
        else:
            self._callback(message)

    def drain_unsent(self) -> list[Any]:
        """Reclaim outbound messages still in flight toward the peer.

        Cancels their deliveries and returns them in send order, so the
        caller can re-queue them before closing a severed connection.
        """
        return self._tx.drain_in_flight()

    def close(self) -> None:
        """Close the underlying transmit/receive channels."""
        self._tx.close()
        self._rx.close()

    @property
    def closed(self) -> bool:
        return self._tx.closed


@dataclass
class _Listener:
    address: str
    profile: ChannelProfile
    on_connect: Callable[["Endpoint", str], None]
    accepted: int = 0


class NetworkFabric:
    """Registry of listeners and factory of connections between them.

    One fabric typically models "the internet plus the cellular network":
    the trusted server listens, each vehicle's ECM dials out.  A second
    fabric (or the same one with another profile) models the local
    wireless segment between a phone and a vehicle.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: Optional[StreamFactory] = None,
        tracer: Optional[TelemetryBus] = None,
        default_profile: ChannelProfile = WIRED,
    ) -> None:
        self.sim = sim
        self.streams = streams or StreamFactory(0)
        self.tracer = tracer
        self.default_profile = default_profile
        self._listeners: dict[str, _Listener] = {}
        #: Dials per client name: link (and RNG stream) names carry the
        #: per-client attempt index, NOT the global connection count —
        #: so one vehicle's jitter draws never depend on how many other
        #: vehicles exist or in which order the fleet dialled in.
        self._dials: dict[str, int] = {}

    def listen(
        self,
        address: str,
        on_connect: Callable[[Endpoint, str], None],
        profile: Optional[ChannelProfile] = None,
    ) -> None:
        """Bind a listener to ``address``.

        ``on_connect(endpoint, peer_name)`` fires for each established
        connection, after the connect latency has elapsed.
        """
        if address in self._listeners:
            raise AddressInUseError(f"address {address!r} already bound")
        self._listeners[address] = _Listener(
            address, profile or self.default_profile, on_connect
        )

    def unlisten(self, address: str) -> None:
        """Remove a listener; existing connections stay up."""
        self._listeners.pop(address, None)

    def set_listener_profile(self, address: str, profile: ChannelProfile) -> None:
        """Change the channel profile used for future connections."""
        listener = self._listeners.get(address)
        if listener is None:
            raise ConnectionRefusedError_(f"nothing listening at {address!r}")
        listener.profile = profile

    def is_listening(self, address: str) -> bool:
        """Whether a listener is currently bound at ``address``."""
        return address in self._listeners

    def connect(
        self,
        address: str,
        client_name: str,
        on_connected: Callable[[Endpoint], None],
        profile: Optional[ChannelProfile] = None,
    ) -> None:
        """Dial ``address``; ``on_connected`` fires after one RTT.

        Raises :class:`ConnectionRefusedError_` immediately when nothing
        listens at ``address`` (the simulated SYN would be rejected).
        """
        listener = self._listeners.get(address)
        if listener is None:
            raise ConnectionRefusedError_(f"nothing listening at {address!r}")
        chosen = profile or listener.profile
        dial = self._dials.get(client_name, 0)
        self._dials[client_name] = dial + 1
        link_name = f"{client_name}->{address}#{dial}"
        # Each link name is unique, so its streams are made here and
        # die with the link instead of living in the factory's cache.
        root_seed = self.streams.root_seed
        link = DuplexLink(
            self.sim,
            chosen,
            link_name,
            rng_a=SeededStream(root_seed, f"{link_name}:a"),
            rng_b=SeededStream(root_seed, f"{link_name}:b"),
            tracer=self.tracer,
        )
        client_end = Endpoint(f"{link_name}:client", link.a_to_b, link.b_to_a)
        server_end = Endpoint(f"{link_name}:server", link.b_to_a, link.a_to_b)
        # Model connection establishment as one round trip before either
        # side learns about the connection.
        rtt = 2 * chosen.latency_us

        def establish() -> None:
            listener.accepted += 1
            listener.on_connect(server_end, client_name)
            on_connected(client_end)

        self.sim.schedule(rtt, establish, f"connect:{link_name}")

    @property
    def connection_count(self) -> int:
        """Total connections ever dialled on this fabric."""
        return sum(self._dials.values())


class Uplink:
    """A vehicle's one link to its trusted server.

    :meth:`dial` connects unless the link is up; :meth:`send` sends at
    once while it is up.  While it is down (never dialled, a dial in
    flight, or severed from either side) sent bytes wait, and the next
    dial that succeeds flushes them in order.  Bytes the server sends go
    to ``owner.on_server_data(raw)``.  The fabric's tracer, when it has
    one, gets ``net`` events ``server_connected`` and
    ``server_link_lost`` naming the client.

    A link allocates as little as it can, since a fleet holds one per
    vehicle: it has slots, the receive handler is bound when the link
    comes up and the outbox is made on the first send while down.
    """

    __slots__ = ("fabric", "address", "name", "owner", "_endpoint", "_outbox")

    def __init__(
        self, fabric: NetworkFabric, address: str, name: str, owner: Any
    ) -> None:
        self.fabric = fabric
        self.address = address
        #: The client name the server knows the vehicle by.
        self.name = name
        self.owner = owner
        self._endpoint: Optional[Endpoint] = None
        self._outbox: Optional[Deque[bytes]] = None

    @property
    def up(self) -> bool:
        endpoint = self._endpoint
        return endpoint is not None and not endpoint.closed

    def dial(self) -> bool:
        """Dial the server unless the link is up; True when it dialled."""
        if self.up:
            return False
        self.fabric.connect(self.address, self.name, self._connected)
        return True

    def _connected(self, endpoint: Endpoint) -> None:
        self._endpoint = endpoint
        endpoint.on_receive(self.owner.on_server_data)
        self._trace("server_connected")
        outbox = self._outbox
        while outbox:
            raw = outbox.popleft()
            endpoint.send(raw, size=len(raw))

    def send(self, raw: bytes) -> None:
        """Send ``raw`` to the server now, or once a dial succeeds."""
        endpoint = self._endpoint
        if endpoint is not None and endpoint.closed:
            self._endpoint = endpoint = None
            self._trace("server_link_lost")
        if endpoint is not None:
            endpoint.send(raw, size=len(raw))
        elif self._outbox is None:
            self._outbox = deque((raw,))
        else:
            self._outbox.append(raw)

    def _trace(self, name: str) -> None:
        tracer = self.fabric.tracer
        if tracer is not None:
            tracer.publish("net", name, self.fabric.sim.now, client=self.name)


__all__ = ["Endpoint", "NetworkFabric", "Uplink"]
