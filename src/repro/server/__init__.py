"""The trusted server: models, database, checks, and the control plane."""

from repro.server.compatibility import CompatibilityReport, check_compatibility
from repro.server.contextgen import (
    GeneratedPackage,
    PortIdAllocator,
    generate_packages,
)
from repro.server.database import Database
from repro.server.models import (
    App,
    CampaignRecord,
    ConnectionKind,
    ConnectionSpec,
    EcuHw,
    ExternalSpec,
    HwConf,
    InstallStatus,
    InstalledApp,
    InstalledPlugin,
    PluginDescriptor,
    PluginSwcDesc,
    SwConf,
    SystemSwConf,
    User,
    Vehicle,
    VehicleConf,
    VirtualPortDesc,
)
from repro.server.pusher import Pusher
from repro.server.server import DEFAULT_ADDRESS, TrustedServer
from repro.server.services import (
    ApiError,
    ErrorCode,
    FleetAPI,
    FleetSelector,
    Response,
    VehicleView,
)

__all__ = [
    "ApiError",
    "CampaignRecord",
    "ErrorCode",
    "FleetAPI",
    "FleetSelector",
    "Response",
    "VehicleView",
    "CompatibilityReport",
    "check_compatibility",
    "GeneratedPackage",
    "PortIdAllocator",
    "generate_packages",
    "Database",
    "App",
    "ConnectionKind",
    "ConnectionSpec",
    "EcuHw",
    "ExternalSpec",
    "HwConf",
    "InstallStatus",
    "InstalledApp",
    "InstalledPlugin",
    "PluginDescriptor",
    "PluginSwcDesc",
    "SwConf",
    "SystemSwConf",
    "User",
    "Vehicle",
    "VehicleConf",
    "VirtualPortDesc",
    "Pusher",
    "DEFAULT_ADDRESS",
    "TrustedServer",
]
