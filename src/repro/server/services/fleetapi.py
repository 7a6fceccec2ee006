"""FleetAPI: the versioned façade of the fleet control plane.

One object bundling the four resource-oriented services the server
exposes:

* :attr:`FleetAPI.vehicles` — registry, user binding, health, and the
  portal query endpoint (:class:`~repro.server.services.selector.FleetSelector`).
* :attr:`FleetAPI.store` — APP uploads, versioning, compatibility.
* :attr:`FleetAPI.deployments` — deploy/uninstall/retry/abandon/update/
  restore/reconcile, ack processing, installation events and status.
* :attr:`FleetAPI.campaigns` — persistent campaign lifecycle and
  cross-campaign admission control.

Every operation returns a uniform
:class:`~repro.server.services.envelope.Response` envelope.  This is the
server's one operator surface: the paper's web services to the user
portal, and the routes the HTTP gateway mounts.
"""

from __future__ import annotations

from repro.server.database import Database
from repro.server.pusher import Pusher
from repro.server.services.appstore import AppStore
from repro.server.services.campaigns import CampaignService
from repro.server.services.deployments import DeploymentService
from repro.server.services.vehicles import VehicleService
from repro.telemetry import MetricsRegistry, TelemetryBus


class FleetAPI:
    """The server's resource-oriented control-plane surface."""

    #: API generation; bumped on breaking envelope/service changes.
    version = "v1"

    def __init__(self, db: Database, pusher: Pusher) -> None:
        self.db = db
        self.pusher = pusher
        #: Bounded observability pipeline.  Process state, not database
        #: state: a simulated server restart rebuilds the API and starts
        #: a fresh (empty) bus, exactly like a real in-memory pipeline.
        self.telemetry = TelemetryBus()
        #: Control-plane metrics (counters/gauges/histograms).  The
        #: network gateway registers its request/stream/queue metrics
        #: here so ``GET /v1/metrics`` and CI snapshot artifacts read
        #: the same registry.
        self.metrics = MetricsRegistry()
        self.vehicles = VehicleService(db, pusher)
        self.store = AppStore(db)
        self.deployments = DeploymentService(
            db, pusher, self.store, telemetry=self.telemetry
        )
        self.campaigns = CampaignService(db, self.deployments)
        pusher.on_upstream(self.deployments.on_vehicle_message)
        pusher.set_telemetry(self.telemetry)

    def __repr__(self) -> str:
        return (
            f"<FleetAPI {self.version} vehicles={len(self.db.vehicles)} "
            f"apps={len(self.db.apps)} campaigns={len(self.db.campaigns)}>"
        )


__all__ = ["FleetAPI"]
