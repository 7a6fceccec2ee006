"""Simulated network substrate: channels, links, and socket-like fabric."""

from repro.network.channel import (
    CELLULAR,
    IDEAL,
    WIFI,
    WIRED,
    Channel,
    ChannelProfile,
    DuplexLink,
)
from repro.network.sockets import Endpoint, NetworkFabric, Uplink

__all__ = [
    "CELLULAR",
    "IDEAL",
    "WIFI",
    "WIRED",
    "Channel",
    "ChannelProfile",
    "DuplexLink",
    "Endpoint",
    "NetworkFabric",
    "Uplink",
]
