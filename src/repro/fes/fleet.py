"""Fleets: many vehicles federated through one trusted server.

Used by the OTA-deployment experiments: :func:`build_fleet` declares N
vehicles (identical or heterogeneous — a spec factory may mix ECU
counts and models) on one simulator through
:class:`~repro.api.ScenarioBuilder` and returns a plain
:class:`~repro.api.Platform`; deploy an APP to all of them and track the
per-vehicle completion through the returned
:class:`~repro.api.deployment.Deployment` handle, or stage a rollout
with :func:`canary_campaign`.  :func:`calibrate_model` fits the
statistical-fidelity model that large fleets use for their tail.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.api.builder import ScenarioBuilder
from repro.api.platform import Platform
from repro.campaign.spec import CampaignSpec, HealthPolicy, PercentageWaves
from repro.fes.example_platform import (
    make_example_vehicle_spec,
    make_remote_control_app,
)
from repro.fes.statistical import StatisticalModel
from repro.fes.vehicle import VehicleSpec
from repro.sim.kernel import SECOND


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
    spec_factory: Optional[Callable[[str], VehicleSpec]] = None,
    trace: bool = False,
    regions: Optional[Sequence[str]] = None,
    full_vehicles: Optional[int] = None,
    statistical_model: Optional[StatisticalModel] = None,
) -> Platform:
    """Build ``size`` example vehicles registered on one server.

    ``spec_factory(vin)`` may return a different :class:`VehicleSpec`
    per VIN, so one fleet can mix vehicle models and ECU counts; the
    default is :func:`~repro.fes.example_platform.make_example_vehicle_spec`.
    ``regions`` assigns deployment regions round-robin (e.g.
    ``("eu-north", "na-east")``) so FleetSelector queries and
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
    factory = spec_factory or make_example_vehicle_spec
    scenario = ScenarioBuilder(seed=seed, trace=trace)
    if statistical_model is not None:
        scenario.statistical_model(statistical_model)
    # 100k-vehicle campaigns need stable VIN ordering for wave
    # partitioning; widen the zero padding only when 4 digits overflow
    # so existing fleets (and their seeded stream paths) are unchanged.
    digits = max(4, len(str(max(size - 1, 0))))
    scenario.user("fleet-admin", "Fleet Admin")
    for index in range(size):
        spec = factory(f"VIN-{index:0{digits}d}")
        if regions:
            spec.region = regions[index % len(regions)]
        if full_vehicles is not None and index >= full_vehicles:
            spec.fidelity = "statistical"
        scenario.add_vehicle_spec(spec)
    return scenario.build()


def calibrate_model(
    fleet_size: int = 3,
    seed: int = 0,
    settle_us: int = 30 * SECOND,
    **overrides,
) -> StatisticalModel:
    """Fit a :class:`StatisticalModel` against the full simulation.

    Builds a small full-fidelity fleet, deploys the paper's
    remote-control APP to every vehicle, and measures the server-side
    time from dispatch to each install resolving (the
    ``install_resolved`` events on the control plane's ``deploy``
    category).  The mean becomes
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
        if event.name == "install_resolved":
            resolved.append(fleet.sim.now - start)

    fleet.api.telemetry.subscribe(on_event, ("deploy",))
    try:
        fleet.deploy(app.name)
        deadline = fleet.sim.now + settle_us
        while len(resolved) < fleet_size and fleet.sim.now < deadline:
            if not fleet.sim.step():
                break
    finally:
        fleet.api.telemetry.unsubscribe(on_event)
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
    "build_fleet",
    "calibrate_model",
    "canary_campaign",
]
