"""Declarative scenario composition: the package's public front door.

:class:`ScenarioBuilder` lets a user declare an arbitrary federated
system — vehicles with any number of ECUs, plug-in SW-C placements and
their virtual-port tables, legacy components, apps compiled from plug-in
assembly source, phones, and network profiles — and ``build()`` it into
a running :class:`~repro.api.platform.Platform`.  The paper's two-ECU
model car is one such declaration (see :mod:`repro.fes.example_platform`).

Typical use::

    from repro.api import ScenarioBuilder

    scenario = ScenarioBuilder(seed=42).phone("1.2.3.4:5")
    car = scenario.vehicle("VIN-1", "my-model")
    car.ecus("ECU1", "ECU2")
    car.ecm("swc1", on="ECU1", relays=[RelayLink("swc2", "V0", "V1")])
    car.plugin_swc("swc2", on="ECU2",
                   relays=[RelayLink("swc1", "V2", "V3")],
                   services=[ServicePort("V4", "cmd", "out", INT16)])
    app = scenario.app("my-app", "my-model")
    app.plugin("FWD", source=FWD_SOURCE, ports=("in", "out"), on="swc2")
    app.virtual("FWD", "out", "V4")
    platform = scenario.build()
    platform.boot()
    platform.deploy("my-app").wait()

All declaration errors raise :class:`~repro.errors.ConfigurationError`
with a precise message.  Errors about the scenario or an APP (duplicate
VINs, connections to undeclared plug-ins, ...) raise as they are
declared; a vehicle is judged whole by :meth:`VehicleSpec.validate
<repro.fes.vehicle.VehicleSpec.validate>` (placements onto missing ECUs,
duplicate instances or virtual ports, missing back-relays, ...), which
``build()`` runs once per distinct vehicle description, declared or
added as a spec, before it constructs anything.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.api.platform import Platform
from repro.autosar.swc import ComponentType
from repro.core.plugin_swc import PluginSwcSpec, RelayLink, ServicePort
from repro.errors import ConfigurationError
from repro.fes.phone import Smartphone
from repro.fes.statistical import StatisticalModel, StatisticalVehicle
from repro.fes.vehicle import (
    LegacyComponent,
    PluginSwcPlacement,
    VehicleSpec,
    build_vehicle,
)
from repro.network.channel import CELLULAR, WIFI, ChannelProfile
from repro.network.sockets import NetworkFabric
from repro.server.models import (
    App,
    ConnectionKind,
    ConnectionSpec,
    ExternalSpec,
    HwConf,
    PluginDescriptor,
    SwConf,
    SystemSwConf,
)
from repro.server.server import DEFAULT_ADDRESS, TrustedServer
from repro.sim.kernel import Simulator
from repro.sim.random import StreamFactory
from repro.telemetry.bus import TelemetryBus
from repro.vm.loader import compile_plugin


class VehicleBuilder:
    """Declares one vehicle platform: ECUs, SW-Cs, legacy components."""

    def __init__(self, vin: str, model: str) -> None:
        self.vin = vin
        self.model = model
        self._region = ""
        self._fidelity = "full"
        self._ecus: list[str] = []
        self._ecm: Optional[PluginSwcPlacement] = None
        self._plugin_swcs: list[PluginSwcPlacement] = []
        self._legacy: list[LegacyComponent] = []
        self._connectors: list[tuple[str, str, str, str]] = []

    def region(self, name: str) -> "VehicleBuilder":
        """Declare the deployment region the vehicle registers under.

        Regions are free-form sharding attributes — FleetSelector
        queries and selector-based campaign waves key on them.
        """
        self._region = name
        return self

    def statistical(self) -> "VehicleBuilder":
        """Build this vehicle at statistical fidelity.

        The declaration (ECUs, placements, ports) still validates and
        registers with the server exactly as a full vehicle would, but
        ``build()`` produces a
        :class:`~repro.fes.statistical.StatisticalVehicle` instead of
        the ECU/VM substrate — the bulk-fleet half of a multi-fidelity
        campaign.  The model comes from
        :meth:`ScenarioBuilder.statistical_model`.
        """
        self._fidelity = "statistical"
        return self

    # -- hardware ------------------------------------------------------------

    def ecu(self, name: str) -> "VehicleBuilder":
        """Declare one ECU."""
        self._ecus.append(name)
        return self

    def ecus(self, *names: str) -> "VehicleBuilder":
        """Declare several ECUs at once."""
        for name in names:
            self.ecu(name)
        return self

    # -- plug-in SW-Cs -------------------------------------------------------

    def _make_spec(
        self,
        instance: str,
        relays: Sequence[RelayLink],
        services: Sequence[ServicePort],
        type_name: Optional[str],
    ) -> PluginSwcSpec:
        return PluginSwcSpec(
            type_name or f"{instance.capitalize()}Type",
            relays=relays,
            services=services,
        )

    def ecm(
        self,
        instance: str,
        on: str,
        relays: Sequence[RelayLink] = (),
        services: Sequence[ServicePort] = (),
        type_name: Optional[str] = None,
    ) -> "VehicleBuilder":
        """Place the ECM SW-C (exactly one per vehicle) on ECU ``on``.

        The ECM's management traffic goes over its server link, so it
        has a type I port pair per plug-in SW-C instead of its own.
        """
        if self._ecm is not None:
            raise ConfigurationError(
                f"vehicle {self.vin}: ECM already declared "
                f"({self._ecm.instance_name!r})"
            )
        built = self._make_spec(instance, relays, services, type_name)
        self._ecm = PluginSwcPlacement(instance, on, built)
        return self

    def plugin_swc(
        self,
        instance: str,
        on: str,
        relays: Sequence[RelayLink] = (),
        services: Sequence[ServicePort] = (),
        type_name: Optional[str] = None,
    ) -> "VehicleBuilder":
        """Place one plug-in SW-C on ECU ``on``.

        ``relays`` declare the type II virtual-port pairs toward peer
        SW-Cs; ``services`` the type III virtual ports into the built-in
        software.
        """
        built = self._make_spec(instance, relays, services, type_name)
        self._plugin_swcs.append(PluginSwcPlacement(instance, on, built))
        return self

    def legacy(
        self,
        instance: str,
        ctype: ComponentType,
        on: str,
        priority: int = 6,
    ) -> "VehicleBuilder":
        """Place a built-in (non-plug-in) component on ECU ``on``."""
        self._legacy.append(LegacyComponent(instance, ctype, on, priority))
        return self

    def connect(
        self, from_instance: str, from_port: str, to_instance: str, to_port: str
    ) -> "VehicleBuilder":
        """Wire one SW-C connector (e.g. service port -> legacy port)."""
        self._connectors.append(
            (from_instance, from_port, to_instance, to_port)
        )
        return self

    # -- assembly ------------------------------------------------------------

    def to_spec(self) -> VehicleSpec:
        """The declaration as a :class:`VehicleSpec`, not yet validated
        (:meth:`VehicleSpec.validate` judges it)."""
        if self._ecm is None:
            raise ConfigurationError(
                f"vehicle {self.vin} declares no ECM placement"
            )
        return VehicleSpec(
            vin=self.vin,
            model=self.model,
            region=self._region,
            fidelity=self._fidelity,
            ecus=tuple(self._ecus),
            ecm=self._ecm,
            plugin_swcs=tuple(self._plugin_swcs),
            legacy=tuple(self._legacy),
            connectors=tuple(self._connectors),
        )


class AppBuilder:
    """Declares one APP: plug-ins from source plus its deployment wiring."""

    def __init__(self, name: str, model: str, version: str = "1.0") -> None:
        self.name = name
        self.model = model
        self.version = version
        self._plugins: dict[str, PluginDescriptor] = {}
        self._placements: list[tuple[str, str]] = []
        self._connections: list[ConnectionSpec] = []
        self._externals: list[ExternalSpec] = []

    # -- plug-ins ------------------------------------------------------------

    def plugin(
        self,
        name: str,
        source: Optional[str] = None,
        ports: Sequence[str] = (),
        on: str = "",
        binary: Optional[bytes] = None,
        mem_hint: int = 16,
    ) -> "AppBuilder":
        """Add one plug-in, compiled from assembly ``source`` (or a
        prebuilt container ``binary``), placed on SW-C instance ``on``.
        """
        if name in self._plugins:
            raise ConfigurationError(
                f"APP {self.name}: duplicate plug-in {name!r}"
            )
        if (source is None) == (binary is None):
            raise ConfigurationError(
                f"APP {self.name}: plug-in {name!r} needs exactly one of "
                f"source or binary"
            )
        if not on:
            raise ConfigurationError(
                f"APP {self.name}: plug-in {name!r} needs a placement "
                f"(on=<swc instance>)"
            )
        raw = binary if binary is not None else compile_plugin(
            source, mem_hint=mem_hint
        ).raw
        self._plugins[name] = PluginDescriptor(name, raw, tuple(ports))
        self._placements.append((name, on))
        return self

    # -- wiring --------------------------------------------------------------

    def _check_port(self, plugin: str, port: str) -> None:
        descriptor = self._plugins.get(plugin)
        if descriptor is None:
            raise ConfigurationError(
                f"APP {self.name}: connection references undeclared "
                f"plug-in {plugin!r}"
            )
        if port not in descriptor.port_names:
            raise ConfigurationError(
                f"APP {self.name}: plug-in {plugin!r} has no port "
                f"{port!r} (declared: {descriptor.port_names})"
            )

    def unconnected(self, plugin: str, port: str) -> "AppBuilder":
        """Declare a PIRTE-direct (unconnected) plug-in port."""
        self._check_port(plugin, port)
        self._connections.append(
            ConnectionSpec(ConnectionKind.UNCONNECTED, plugin, port)
        )
        return self

    def wire(
        self, plugin: str, port: str, to_plugin: str, to_port: str
    ) -> "AppBuilder":
        """Connect a plug-in port to another plug-in's port."""
        self._check_port(plugin, port)
        self._check_port(to_plugin, to_port)
        self._connections.append(
            ConnectionSpec(
                ConnectionKind.PLUGIN, plugin, port,
                target_plugin=to_plugin, target_port=to_port,
            )
        )
        return self

    def virtual(self, plugin: str, port: str, virtual: str) -> "AppBuilder":
        """Connect a plug-in port to a virtual port of its host SW-C."""
        self._check_port(plugin, port)
        self._connections.append(
            ConnectionSpec(
                ConnectionKind.VIRTUAL, plugin, port, target_virtual=virtual
            )
        )
        return self

    def external(
        self, endpoint: str, message_name: str, plugin: str, port: str
    ) -> "AppBuilder":
        """Route a named external message to/from a plug-in port."""
        self._check_port(plugin, port)
        self._externals.append(
            ExternalSpec(endpoint, message_name, plugin, port)
        )
        return self

    def to_app(self) -> App:
        """Validate the declaration and produce a server :class:`App`."""
        if not self._plugins:
            raise ConfigurationError(
                f"APP {self.name} declares no plug-ins"
            )
        conf = SwConf(
            model=self.model,
            placements=tuple(self._placements),
            connections=tuple(self._connections),
            externals=tuple(self._externals),
        )
        return App(
            name=self.name,
            version=self.version,
            plugins=dict(self._plugins),
            sw_confs=[conf],
        )


class ScenarioBuilder:
    """Fluent, declarative composition of a whole federated scenario."""

    def __init__(
        self,
        seed: int = 0,
        server_address: str = DEFAULT_ADDRESS,
        default_profile: Optional[ChannelProfile] = None,
        trace: bool = True,
    ) -> None:
        self._seed = seed
        self._server_address = server_address
        self._default_profile = default_profile or CELLULAR
        self._trace = trace
        self._vehicles: dict[str, Union[VehicleBuilder, VehicleSpec]] = {}
        self._apps: list[Union[AppBuilder, App]] = []
        self._phones: dict[str, ChannelProfile] = {}
        self._users: list[tuple[str, str]] = []
        self._statistical_model: Optional["StatisticalModel"] = None

    # -- infrastructure ------------------------------------------------------

    def statistical_model(
        self, model: "StatisticalModel"
    ) -> "ScenarioBuilder":
        """Set the response model for statistical-fidelity vehicles.

        Applies to every vehicle declared with
        :meth:`VehicleBuilder.statistical` (or a spec with
        ``fidelity="statistical"``); the default-constructed
        :class:`~repro.fes.statistical.StatisticalModel` is used when
        unset.
        """
        self._statistical_model = model
        return self

    def user(self, user_id: str, name: Optional[str] = None) -> "ScenarioBuilder":
        """Register a portal user; the first one owns all vehicles."""
        if any(uid == user_id for uid, __ in self._users):
            raise ConfigurationError(f"duplicate user {user_id!r}")
        self._users.append((user_id, name or user_id))
        return self

    def phone(
        self, address: str, profile: ChannelProfile = WIFI
    ) -> "ScenarioBuilder":
        """Declare an external device listening at ``address``."""
        if address in self._phones:
            raise ConfigurationError(f"duplicate phone address {address!r}")
        self._phones[address] = profile
        return self

    # -- vehicles ------------------------------------------------------------

    def vehicle(self, vin: str, model: str) -> VehicleBuilder:
        """Start declaring one vehicle; returns its sub-builder."""
        if vin in self._vehicles:
            raise ConfigurationError(f"duplicate VIN {vin!r}")
        builder = VehicleBuilder(vin, model)
        self._vehicles[vin] = builder
        return builder

    def add_vehicle_spec(self, spec: VehicleSpec) -> "ScenarioBuilder":
        """Add a prebuilt :class:`VehicleSpec` (e.g. from a factory)."""
        if spec.vin in self._vehicles:
            raise ConfigurationError(f"duplicate VIN {spec.vin!r}")
        self._vehicles[spec.vin] = spec
        return self

    # -- apps ----------------------------------------------------------------

    def app(self, name: str, model: str, version: str = "1.0") -> AppBuilder:
        """Start declaring one APP; returns its sub-builder."""
        if any(existing.name == name for existing in self._apps):
            raise ConfigurationError(f"duplicate APP {name!r}")
        builder = AppBuilder(name, model, version)
        self._apps.append(builder)
        return builder

    def add_app(self, app: App) -> "ScenarioBuilder":
        """Add a prebuilt server :class:`App` for upload at build time."""
        if any(existing.name == app.name for existing in self._apps):
            raise ConfigurationError(f"duplicate APP {app.name!r}")
        self._apps.append(app)
        return self

    # -- build ---------------------------------------------------------------

    def build(self) -> Platform:
        """Assemble everything on one simulator; returns the platform.

        Construction order mirrors the hand-written assembly the
        builder replaces: fabric and server first, then phones, then
        vehicles (registered and bound to the owning user in one bulk
        pass), then APP uploads.  Nothing is booted — call
        ``platform.boot()`` (or ``Deployment.wait``, which boots).
        Every vehicle spec is validated before anything is constructed,
        and each vehicle dials this scenario's server address.

        Validity and the server's HW conf and SystemSW conf depend on a
        spec's :meth:`~repro.fes.vehicle.VehicleSpec.description` alone,
        so each distinct description is validated and described once,
        by the first spec that has it, and every vehicle with it is
        registered with the same frozen confs.  Declaration order is
        kept, so the first invalid spec still raises, naming its VIN.
        Statistical vehicles share one response model.
        """
        specs = [
            entry.to_spec() if isinstance(entry, VehicleBuilder) else entry
            for entry in self._vehicles.values()
        ]
        confs: dict[tuple, tuple[HwConf, SystemSwConf]] = {}
        registry_rows = []
        for spec in specs:
            key = spec.description()
            conf = confs.get(key)
            if conf is None:
                conf = confs[key] = spec.validate().describe_for_server()
            registry_rows.append((spec.vin, spec.model, *conf, spec.region))
        statistical_model = self._statistical_model or StatisticalModel()
        sim = Simulator()
        tracer = TelemetryBus() if self._trace else None
        fabric = NetworkFabric(
            sim,
            StreamFactory(self._seed),
            tracer=tracer,
            default_profile=self._default_profile,
        )
        server = TrustedServer(fabric, self._server_address)
        users = self._users or [("user-1", "Default User")]
        owner = users[0][0]
        for user_id, name in users:
            server.api.vehicles.create_user(user_id, name).unwrap()
        phones = {}
        for address, profile in self._phones.items():
            phones[address] = Smartphone(fabric, address, sim)
            fabric.set_listener_profile(address, profile)
        vehicles = []
        for spec in specs:
            if spec.fidelity == "statistical":
                vehicle = StatisticalVehicle(
                    spec, fabric, sim, self._server_address,
                    model=statistical_model,
                )
            else:
                vehicle = build_vehicle(
                    spec, fabric, self._server_address, sim=sim, tracer=tracer
                )
            vehicles.append(vehicle)
        # One bulk registry pass instead of 2N envelope round-trips —
        # at 10k+ statistical vehicles the per-VIN register/bind calls
        # dominated fleet build time.
        server.api.vehicles.register_many(registry_rows).unwrap()
        server.api.vehicles.bind_many(
            owner, [spec.vin for spec in specs]
        ).unwrap()
        for entry in self._apps:
            app = entry.to_app() if isinstance(entry, AppBuilder) else entry
            server.api.store.upload(app).unwrap()
        return Platform(
            sim, tracer, fabric, server,
            vehicles=vehicles, phones=phones, user_id=owner,
        )


__all__ = ["ScenarioBuilder", "VehicleBuilder", "AppBuilder"]
