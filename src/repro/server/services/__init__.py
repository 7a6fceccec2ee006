"""The fleet control plane: resource-oriented server services.

The server's operations as cohesive services behind the
:class:`FleetAPI` façade, with uniform :class:`Response` envelopes,
structured :class:`ErrorCode`\\ s, the composable
:class:`FleetSelector` query DSL, persistent campaigns, and
cross-campaign admission control.
"""

from repro.server.services.appstore import AppStore
from repro.server.services.campaigns import (
    CampaignService,
    PHASE_ROLLING_BACK,
    PHASE_UPDATING,
)
from repro.server.services.deployments import (
    DeploymentService,
    InstallProgress,
    ServerEvent,
)
from repro.server.services.envelope import ApiError, ErrorCode, Response
from repro.server.services.fleetapi import FleetAPI
from repro.server.services.selector import FleetSelector
from repro.server.services.vehicles import VehicleService, VehicleView

__all__ = [
    "ApiError",
    "AppStore",
    "CampaignService",
    "DeploymentService",
    "ErrorCode",
    "FleetAPI",
    "FleetSelector",
    "InstallProgress",
    "PHASE_ROLLING_BACK",
    "PHASE_UPDATING",
    "Response",
    "ServerEvent",
    "VehicleService",
    "VehicleView",
]
