"""The trusted server: database + control plane + pusher, assembled.

One :class:`TrustedServer` listens at a pre-defined address on the
wide-area network fabric; vehicles' ECMs dial in, operators use the
resource-oriented :attr:`api` control plane
(:class:`~repro.server.services.fleetapi.FleetAPI` — the paper's web
portal sits above it).

:meth:`TrustedServer.restart` simulates a server process restart: the
whole service layer (the control-plane bus and its taps, campaign
engines' admission claims) is torn down and rebuilt from the database
— which, like the pusher's network identity, survives.  Persistent
campaigns are recovered afterwards with
``server.api.campaigns.load()``.
"""

from __future__ import annotations

from repro.network.sockets import NetworkFabric
from repro.server.database import Database
from repro.server.pusher import Pusher
from repro.server.services.fleetapi import FleetAPI

#: Default pre-defined server address baked into ECM static config.
DEFAULT_ADDRESS = "trusted-server.oem.example:7000"


class TrustedServer:
    """The off-board management server of the dynamic component model."""

    def __init__(
        self,
        fabric: NetworkFabric,
        address: str = DEFAULT_ADDRESS,
    ) -> None:
        self.address = address
        self.db = Database()
        self.pusher = Pusher(fabric, address)
        self._bring_up()

    def _bring_up(self) -> None:
        self.api = FleetAPI(self.db, self.pusher)

    def restart(self) -> FleetAPI:
        """Simulate a server process restart; returns the fresh API.

        Process state (bus taps, admission claims, live campaign
        objects) is discarded; the database and the pusher's
        connections survive.  Callers resume campaigns via
        ``server.api.campaigns.load()``.
        """
        self._bring_up()
        return self.api

    def __repr__(self) -> str:
        return (
            f"<TrustedServer {self.address} users={len(self.db.users)} "
            f"vehicles={len(self.db.vehicles)} apps={len(self.db.apps)} "
            f"campaigns={len(self.db.campaigns)}>"
        )


__all__ = ["TrustedServer", "DEFAULT_ADDRESS"]
