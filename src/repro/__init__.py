"""repro: a dynamic component model for federated AUTOSAR systems.

Reproduction of Ni, Kobetski & Axelsson, DAC 2014.  The package layers:

* :mod:`repro.sim` — deterministic discrete-event kernel.
* :mod:`repro.network`, :mod:`repro.can` — simulated networks.
* :mod:`repro.autosar` — the AUTOSAR substrate (OS, BSW, RTE, SW-Cs).
* :mod:`repro.vm` — the plug-in bytecode VM (the JVM substitute).
* :mod:`repro.core` — the dynamic component model (PIRTE, contexts, ECM).
* :mod:`repro.server` — the trusted server.
* :mod:`repro.fes` — vehicles, phones, and fleets (federation layer).
* :mod:`repro.api` — the declarative public API: compose arbitrary
  scenarios with :class:`ScenarioBuilder`, operate them through
  :class:`Platform` and unified :class:`Deployment` handles.
* :mod:`repro.campaign` — staged fleet rollouts: wave policies, canary
  waves, health gates, fault injection, automatic rollback.
* :mod:`repro.telemetry` — bounded observability: the ring-buffer
  event bus of the control plane and of traced substrates, a metrics
  registry, and telemetry-driven :class:`SoakPolicy` gates for
  campaigns.
* :mod:`repro.baselines`, :mod:`repro.workloads`, :mod:`repro.analysis`
  — experiment support.

Quickstart (the paper's demonstrator, prebuilt)::

    from repro import SECOND, build_example_platform

    platform = build_example_platform()
    platform.boot()
    platform.run(1 * SECOND)
    platform.deploy("remote-control").wait(10 * SECOND)
    platform.phone().send("Wheels", -25)
    platform.run(1 * SECOND)
    print(platform.actuator_state())

Composing your own scenario::

    from repro import ScenarioBuilder, RelayLink, ServicePort

    scenario = ScenarioBuilder(seed=7).phone("10.0.0.9:4000")
    car = scenario.vehicle("VIN-42", "my-model")
    car.ecus("ECU1", "ECU2")
    car.ecm("swc1", on="ECU1",
            relays=[RelayLink("swc2", "V0", "V1")])
    car.plugin_swc("swc2", on="ECU2",
                   relays=[RelayLink("swc1", "V2", "V3")])
    platform = scenario.build()
"""

# fes first: api imports the fes substrate; fes.example_platform imports api.
from repro.fes import (
    Smartphone,
    build_example_platform,
    build_fleet,
)
from repro.api import (
    ApiError,
    AppBuilder,
    CampaignEngine,
    CampaignReport,
    CampaignSpec,
    Deployment,
    DeploymentTimeout,
    Disposition,
    ErrorCode,
    ExponentialWaves,
    FaultPlan,
    FixedWaves,
    FleetAPI,
    FleetSelector,
    HealthPolicy,
    InstallStatus,
    PercentageWaves,
    Platform,
    PluginSwcSpec,
    RelayLink,
    Response,
    RollbackPolicy,
    ScenarioBuilder,
    SelectorWaves,
    ServicePort,
    SoakPolicy,
    VehicleBuilder,
)
from repro.sim import MS, SECOND

__version__ = "0.2.0"

__all__ = [
    "__version__",
    # declarative API
    "ScenarioBuilder",
    "VehicleBuilder",
    "AppBuilder",
    "Platform",
    "Deployment",
    "DeploymentTimeout",
    "PluginSwcSpec",
    "RelayLink",
    "ServicePort",
    "InstallStatus",
    # fleet control plane
    "ApiError",
    "ErrorCode",
    "FleetAPI",
    "FleetSelector",
    "Response",
    "SelectorWaves",
    # campaigns
    "CampaignEngine",
    "CampaignReport",
    "CampaignSpec",
    "Disposition",
    "ExponentialWaves",
    "FaultPlan",
    "FixedWaves",
    "HealthPolicy",
    "PercentageWaves",
    "RollbackPolicy",
    "SoakPolicy",
    # demonstrator + fleets
    "Smartphone",
    "build_example_platform",
    "build_fleet",
    # time units
    "MS",
    "SECOND",
]
