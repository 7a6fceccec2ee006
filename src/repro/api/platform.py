"""Built platforms: server + phones + vehicles on one simulator.

A :class:`Platform` is what :meth:`~repro.api.builder.ScenarioBuilder.build`
returns: every declared vehicle, phone, and app assembled on one shared
discrete-event simulator and wide-area network fabric.  It is the one
platform type: the paper's one-car demonstrator
(:func:`~repro.fes.example_platform.build_example_platform`), fleets of
that car (:func:`~repro.fes.fleet.build_fleet`) and heterogeneous
vehicle populations (mixed ECU counts, different models) are all
``Platform`` instances.

Operationally the platform is a thin client over the server's
:class:`~repro.server.services.fleetapi.FleetAPI` control plane:
deploys go through ``api.deployments``, fleet queries through
``api.vehicles`` (``deploy_to`` accepts a
:class:`~repro.server.services.selector.FleetSelector` as target set),
and campaigns are persisted by ``api.campaigns`` — which is what makes
:meth:`resume_campaign` after a simulated server restart possible.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.api.deployment import Deployment
from repro.campaign.engine import DEFAULT_RUN_TIMEOUT_US, CampaignEngine
from repro.campaign.faults import FaultPlan
from repro.campaign.report import CampaignReport
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError, UnknownEntityError
from repro.fes.phone import Smartphone
from repro.fes.vehicle import Vehicle
from repro.network.sockets import NetworkFabric
from repro.server.models import InstallStatus
from repro.server.server import TrustedServer
from repro.server.services.selector import FleetSelector
from repro.sim.kernel import Simulator
from repro.telemetry.bus import TelemetryBus


class Platform:
    """A built scenario, bootable and deployable.

    ``boot()`` is guarded by a ``_booted`` flag so repeated ``boot()``
    (or ``run()`` on fleets) never re-boots already-running vehicles.
    ``tracer`` is the bus the substrate publishes into, or None when
    the scenario was built with ``trace=False``.
    """

    def __init__(
        self,
        sim: Simulator,
        tracer: Optional[TelemetryBus],
        fabric: NetworkFabric,
        server: TrustedServer,
        vehicles: Optional[list[Vehicle]] = None,
        phones: Optional[dict[str, Smartphone]] = None,
        user_id: str = "user-1",
    ) -> None:
        self.sim = sim
        self.tracer = tracer
        self.fabric = fabric
        self.server = server
        self.vehicles: list[Vehicle] = list(vehicles or [])
        self.phones: dict[str, Smartphone] = dict(phones or {})
        self.user_id = user_id
        self._booted = False

    # -- lookups -------------------------------------------------------------

    @property
    def api(self):
        """The trusted server's fleet control plane (:class:`FleetAPI`)."""
        return self.server.api

    @property
    def vins(self) -> list[str]:
        return [vehicle.vin for vehicle in self.vehicles]

    def vehicle(self, vin: Optional[str] = None) -> Vehicle:
        """A built vehicle by VIN (the first one when ``vin`` is None)."""
        if vin is None:
            if not self.vehicles:
                raise ConfigurationError("platform has no vehicles")
            return self.vehicles[0]
        for vehicle in self.vehicles:
            if vehicle.vin == vin:
                return vehicle
        raise UnknownEntityError(f"platform has no vehicle {vin!r}")

    def phone(self, address: Optional[str] = None) -> Smartphone:
        """A phone by address (the first one when ``address`` is None)."""
        if address is None:
            if not self.phones:
                raise ConfigurationError("platform has no phones")
            return next(iter(self.phones.values()))
        try:
            return self.phones[address]
        except KeyError:
            raise UnknownEntityError(
                f"platform has no phone at {address!r}"
            ) from None

    def query(self, selector: Optional[FleetSelector] = None) -> list:
        """Portal-style fleet query: :class:`VehicleView` rows."""
        return self.api.vehicles.query(selector).unwrap()

    def select_vins(self, selector: Optional[FleetSelector] = None) -> list[str]:
        """VINs of this platform matching ``selector``.

        Evaluates only this platform's own vehicles, not the whole
        server registry — the two coincide for built platforms, but a
        platform attached to a shared registry stays cheap.
        """
        if selector is None:
            return self.vins
        resolve = self.api.vehicles.resolve
        return [
            vin for vin in self.vins if selector.matches(resolve(vin))
        ]

    # -- life cycle ----------------------------------------------------------

    def boot(self) -> None:
        """Boot every vehicle once; subsequent calls are no-ops."""
        if self._booted:
            return
        for vehicle in self.vehicles:
            vehicle.boot()
        self._booted = True

    def run(self, duration_us: int) -> None:
        """Boot if needed, then advance shared simulated time."""
        self.boot()
        self.sim.run_for(duration_us)

    # -- deployment ----------------------------------------------------------

    def deploy(
        self,
        app_name: str,
        vin: Optional[str] = None,
        user_id: Optional[str] = None,
    ) -> Deployment:
        """Request installation of ``app_name``; returns a handle.

        With ``vin`` the request targets one vehicle; without it, every
        vehicle on the platform (a fleet campaign).
        """
        vins = [self.vehicle(vin).vin] if vin is not None else self.vins
        return self.deploy_to(app_name, vins, user_id=user_id)

    def deploy_to(
        self,
        app_name: str,
        targets: Union[Iterable[str], FleetSelector],
        user_id: Optional[str] = None,
    ) -> Deployment:
        """Request installation of ``app_name`` on a target set.

        ``targets`` is an explicit VIN iterable or a
        :class:`FleetSelector` evaluated against this platform's own
        vehicles (registry vehicles outside the platform are never
        targeted — use ``api.vehicles.query`` for registry-wide reads).
        One batch server pass (the campaign engine's wave dispatch);
        returns the same unified :class:`Deployment` handle as
        :meth:`deploy`.
        """
        if isinstance(targets, FleetSelector):
            vins = self.select_vins(targets)
        else:
            vins = list(targets)
        results = self.api.deployments.deploy_batch(
            user_id or self.user_id, vins, app_name
        )
        return Deployment(self, app_name, results)

    # -- campaigns -----------------------------------------------------------

    def stage_campaign(
        self,
        spec: CampaignSpec,
        faults: Optional[FaultPlan] = None,
    ) -> CampaignEngine:
        """Persist a campaign and prepare its engine without starting it.

        The campaign is registered with the server's
        :class:`~repro.server.services.campaigns.CampaignService` — it
        gets a ``cmp-NNNN`` id, a database record that survives a
        simulated restart, and admission control against concurrent
        campaigns.  A wave policy or selector without ``to_dict`` makes
        it raise :class:`~repro.server.services.envelope.ApiError`
        (``NOT_PERSISTABLE``).  Use this when a test or experiment wants
        to interleave its own simulated-time control with the campaign;
        most callers want :meth:`run_campaign`.
        """
        record = self.api.campaigns.create(
            spec, faults=faults, user_id=spec.user_id or self.user_id,
            created_us=self.sim.now,
        ).unwrap()
        return CampaignEngine(
            self, spec, record.campaign_id, self.api.campaigns, faults=faults
        )

    def run_campaign(
        self,
        spec: CampaignSpec,
        faults: Optional[FaultPlan] = None,
        timeout_us: int = DEFAULT_RUN_TIMEOUT_US,
    ) -> CampaignReport:
        """Run a staged rollout to completion; returns the report.

        Boots the platform if needed, applies the optional fault plan,
        and drives the shared simulator until the campaign terminates
        (succeeded, rolled back, halted, or timed out).
        """
        return self.stage_campaign(spec, faults=faults).run(
            timeout_us=timeout_us
        )

    def resume_campaign(
        self,
        campaign_id: str,
        timeout_us: int = DEFAULT_RUN_TIMEOUT_US,
    ) -> CampaignReport:
        """Run a previously staged campaign from its persisted record.

        The canonical restart flow::

            engine = platform.stage_campaign(spec)   # persisted, not run
            platform.server.restart()                # process state gone
            platform.api.campaigns.load()            # recover records
            report = platform.resume_campaign(engine.campaign_id)
        """
        spec, faults = self.api.campaigns.restage(campaign_id).unwrap()
        engine = CampaignEngine(
            self, spec, campaign_id, self.api.campaigns, faults=faults
        )
        return engine.run(timeout_us=timeout_us)

    def uninstall(
        self,
        app_name: str,
        vin: Optional[str] = None,
        user_id: Optional[str] = None,
    ):
        """Request removal of ``app_name`` from one vehicle."""
        target = self.vehicle(vin).vin
        return self.api.deployments.uninstall(
            user_id or self.user_id, target, app_name
        )

    def installation_status(
        self, vin: str, app_name: str
    ) -> Optional[InstallStatus]:
        """Server-side install status (single DeploymentService code path)."""
        return self.api.deployments.installation_status(vin, app_name)

    def active_count(self, app_name: str) -> int:
        """Vehicles on which ``app_name`` is fully installed and acked."""
        status = self.api.deployments.installation_status
        return sum(
            1
            for vehicle in self.vehicles
            if status(vehicle.vin, app_name) is InstallStatus.ACTIVE
        )

    # -- observation ---------------------------------------------------------

    def actuator_state(
        self, instance: str = "actuators", vin: Optional[str] = None
    ) -> dict:
        """The state dict of a legacy component on one vehicle."""
        return self.vehicle(vin).system.instance(instance).state

    def __repr__(self) -> str:
        return (
            f"<Platform vehicles={len(self.vehicles)} "
            f"phones={len(self.phones)} booted={self._booted}>"
        )


__all__ = ["Platform"]
