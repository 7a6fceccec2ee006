"""Federated embedded systems layer: vehicles, phones, fleets.

The scenario-composition front door lives in :mod:`repro.api`; this
package holds the vehicle assembly substrate plus the paper's concrete
demonstrator (example platform, fleets) built on top of it.

The substrate (:mod:`~repro.fes.phone`, :mod:`~repro.fes.vehicle`,
:mod:`~repro.fes.statistical`) sits below :mod:`repro.api`, while the
demonstrator (:mod:`~repro.fes.example_platform`, :mod:`~repro.fes.fleet`)
builds on it.  So the substrate is imported first here, and
:mod:`repro` imports this package before :mod:`repro.api`.
"""

from repro.fes.phone import ReceivedValue, Smartphone
from repro.fes.vehicle import (
    LegacyComponent,
    PluginSwcPlacement,
    Vehicle,
    VehicleSpec,
    build_vehicle,
)
from repro.fes.statistical import StatisticalModel, StatisticalVehicle
from repro.fes.example_platform import (
    ExamplePlatform,
    build_example_platform,
    declare_example_vehicle,
    declare_remote_control_app,
    make_example_vehicle_spec,
    make_remote_control_app,
)
from repro.fes.fleet import (
    Fleet,
    build_fleet,
    build_fleet_from_specs,
    calibrate_model,
    canary_campaign,
)

__all__ = [
    "ExamplePlatform",
    "build_example_platform",
    "declare_example_vehicle",
    "declare_remote_control_app",
    "make_example_vehicle_spec",
    "make_remote_control_app",
    "Fleet",
    "build_fleet",
    "build_fleet_from_specs",
    "calibrate_model",
    "canary_campaign",
    "ReceivedValue",
    "Smartphone",
    "StatisticalModel",
    "StatisticalVehicle",
    "LegacyComponent",
    "PluginSwcPlacement",
    "Vehicle",
    "VehicleSpec",
    "build_vehicle",
]
