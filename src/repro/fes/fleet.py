"""Fleets: many vehicles federated through one trusted server.

Used by the OTA-deployment experiments: declare N vehicles (identical
or heterogeneous — mixed ECU counts and models are fine) on one
simulator, deploy an APP to all of them, and track the per-vehicle
completion through the returned
:class:`~repro.api.deployment.Deployment` handle.

Built on :class:`~repro.api.ScenarioBuilder`; :func:`build_fleet` keeps
the historical convenience signature (size + optional spec factory).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.api.builder import ScenarioBuilder
from repro.api.platform import Platform
from repro.campaign.spec import CampaignSpec, HealthPolicy, PercentageWaves
from repro.fes.example_platform import (
    make_example_vehicle_spec,
    make_remote_control_app,
)
from repro.fes.statistical import StatisticalModel
from repro.fes.vehicle import VehicleSpec
from repro.network.channel import ChannelProfile
from repro.server.server import DEFAULT_ADDRESS
from repro.sim.kernel import SECOND


class Fleet(Platform):
    """N vehicles + one trusted server on one simulator.

    ``run()`` boots lazily and exactly once (the ``_booted`` guard in
    :class:`Platform`), so repeated ``run()`` calls never re-boot
    already-running vehicles.  Staged rollouts ride on the inherited
    :meth:`~repro.api.platform.Platform.run_campaign`; see
    :func:`canary_campaign` for the canonical spec shape.
    """


def canary_campaign(
    app_name: str,
    fractions: tuple[float, ...] = (0.05, 0.25, 1.0),
    max_failure_rate: float = 0.1,
    max_timeout_rate: float = 0.1,
    **overrides,
) -> CampaignSpec:
    """The canonical staged-rollout spec for a fleet.

    A canary wave covering the first fraction, progressively larger
    waves after it, and a shared health gate.  Extra keyword arguments
    forward to :class:`~repro.campaign.spec.CampaignSpec` (retry
    budget, rollback policy, timeouts, ...).
    """
    return CampaignSpec(
        app_name=app_name,
        waves=PercentageWaves(tuple(fractions)),
        health=HealthPolicy(
            max_failure_rate=max_failure_rate,
            max_timeout_rate=max_timeout_rate,
        ),
        **overrides,
    )


def build_fleet(
    size: int,
    seed: int = 0,
    spec_factory: Optional[Callable[[str, str], VehicleSpec]] = None,
    cellular_profile: Optional[ChannelProfile] = None,
    trace: bool = False,
    regions: Optional[Sequence[str]] = None,
    full_vehicles: Optional[int] = None,
    statistical_model: Optional[StatisticalModel] = None,
) -> Fleet:
    """Build ``size`` example vehicles registered on one server.

    ``spec_factory(vin, server_address)`` may return a different
    :class:`VehicleSpec` per VIN, so one fleet can mix vehicle models
    and ECU counts.  ``regions`` assigns deployment regions round-robin
    (e.g. ``("eu-north", "na-east")``) so FleetSelector queries and
    selector-based campaign waves have attributes to shard on.

    ``full_vehicles`` makes the fleet multi-fidelity: the first that
    many VINs get the complete ECU/VM simulation while the rest are
    :class:`~repro.fes.statistical.StatisticalVehicle` members driven
    by ``statistical_model``.  VINs are zero-padded and campaign waves
    partition in VIN order, so the full-fidelity prefix IS the canary
    wave of a :func:`canary_campaign` — the health and soak gates judge
    real plug-in behaviour while the bulk fleet scales to 100k VINs.
    ``None`` (the default) keeps every vehicle full-fidelity.
    """
    factory = spec_factory or (
        lambda vin, addr: make_example_vehicle_spec(vin, server_address=addr)
    )
    scenario = ScenarioBuilder(
        seed=seed,
        server_address=DEFAULT_ADDRESS,
        default_profile=cellular_profile,
        trace=trace,
    )
    if statistical_model is not None:
        scenario.statistical_model(statistical_model)
    # 100k-vehicle campaigns need stable VIN ordering for wave
    # partitioning; widen the zero padding only when 4 digits overflow
    # so existing fleets (and their seeded stream paths) are unchanged.
    digits = max(4, len(str(max(size - 1, 0))))
    scenario.user("fleet-admin", "Fleet Admin")
    for index in range(size):
        spec = factory(f"VIN-{index:0{digits}d}", DEFAULT_ADDRESS)
        if regions:
            spec.region = regions[index % len(regions)]
        if full_vehicles is not None and index >= full_vehicles:
            spec.fidelity = "statistical"
        scenario.add_vehicle_spec(spec)
    return scenario.build(platform_cls=Fleet)


def build_fleet_from_specs(
    specs: Iterable[VehicleSpec],
    seed: int = 0,
    cellular_profile: Optional[ChannelProfile] = None,
    trace: bool = False,
) -> Fleet:
    """Build a (possibly heterogeneous) fleet from explicit specs."""
    scenario = ScenarioBuilder(
        seed=seed,
        server_address=DEFAULT_ADDRESS,
        default_profile=cellular_profile,
        trace=trace,
    )
    scenario.user("fleet-admin", "Fleet Admin")
    for spec in specs:
        scenario.add_vehicle_spec(spec)
    return scenario.build(platform_cls=Fleet)


def calibrate_model(
    fleet_size: int = 3,
    seed: int = 0,
    settle_us: int = 30 * SECOND,
    **overrides,
) -> StatisticalModel:
    """Fit a :class:`StatisticalModel` against the full simulation.

    Builds a small full-fidelity fleet, deploys the paper's
    remote-control APP to every vehicle, and measures the server-side
    time from dispatch to each install resolving.  The mean becomes
    ``ack_latency_us`` and half the observed spread ``ack_jitter_us``.
    The sample includes the channel's round trip, which the statistical
    vehicle pays again on its own link — the fit is a slight
    overestimate, conservative for campaign-duration experiments.
    Keyword ``overrides`` replace fitted or default fields on the
    result.
    """
    fleet = build_fleet(fleet_size, seed=seed)
    app = make_remote_control_app()
    fleet.api.store.upload(app).unwrap()
    fleet.run(1 * SECOND)  # ECMs dial in
    resolved: list[int] = []
    start = fleet.sim.now

    def on_event(event) -> None:
        if event.kind == "install_resolved":
            resolved.append(fleet.sim.now - start)

    fleet.api.deployments.add_listener(on_event)
    try:
        fleet.deploy(app.name)
        deadline = fleet.sim.now + settle_us
        while len(resolved) < fleet_size and fleet.sim.now < deadline:
            if not fleet.sim.step():
                break
    finally:
        fleet.api.deployments.remove_listener(on_event)
    if not resolved:
        return StatisticalModel(**overrides)
    mean = sum(resolved) // len(resolved)
    spread = (max(resolved) - min(resolved)) // 2
    fitted = {
        "ack_latency_us": mean,
        "ack_jitter_us": spread,
    }
    fitted.update(overrides)
    return StatisticalModel(**fitted)


__all__ = [
    "Fleet",
    "build_fleet",
    "build_fleet_from_specs",
    "calibrate_model",
    "canary_campaign",
]
