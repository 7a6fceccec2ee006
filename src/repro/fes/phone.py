"""Smartphone device for federated scenarios.

The paper's demonstrator remote-controls a model car from a smart phone.
Here the phone is a listener on the local wireless fabric: vehicles'
ECMs dial the endpoint named in the plug-in's ECC, after which the phone
can push named values (``'Wheels'``, ``'Speed'``) into the vehicle and
receives values the vehicle sends outward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.external import decode_external, encode_external
from repro.network.sockets import Endpoint, NetworkFabric


@dataclass
class ReceivedValue:
    """One value the phone received from a vehicle."""

    time: int
    peer: str
    message_name: str
    value: int


class Smartphone:
    """A scripted external controller/listener."""

    def __init__(
        self,
        fabric: NetworkFabric,
        address: str,
        sim=None,
    ) -> None:
        self.address = address
        self.sim = sim
        self._peers: dict[str, Endpoint] = {}
        self.received: list[ReceivedValue] = []
        self.sent = 0
        fabric.listen(address, self._on_connect)

    def _on_connect(self, endpoint: Endpoint, client_name: str) -> None:
        self._peers[client_name] = endpoint
        endpoint.on_receive(
            lambda raw, who=client_name: self._on_message(who, raw)
        )

    def _on_message(self, peer: str, raw: bytes) -> None:
        name, value = decode_external(raw)
        self.received.append(
            ReceivedValue(
                self.sim.now if self.sim is not None else 0, peer, name, value
            )
        )

    @property
    def connected_peers(self) -> list[str]:
        return list(self._peers)

    def is_connected(self) -> bool:
        return bool(self._peers)

    def send(self, message_name: str, value: int, peer: Optional[str] = None) -> int:
        """Send a named value to one peer (or broadcast).  Returns sends."""
        raw = encode_external(message_name, value)
        count = 0
        for name, endpoint in self._peers.items():
            if peer is not None and name != peer:
                continue
            endpoint.send(raw, size=len(raw))
            count += 1
        self.sent += count
        return count

    def values_named(self, message_name: str) -> list[int]:
        """All received values carrying ``message_name``."""
        return [
            r.value for r in self.received if r.message_name == message_name
        ]


__all__ = ["Smartphone", "ReceivedValue"]
