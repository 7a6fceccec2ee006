"""The server derives and ships each distinct install package once.

:class:`~repro.server.contextgen.PackagePlans` memoizes
:func:`~repro.server.contextgen.generate_packages` on
:func:`~repro.server.contextgen.plan_key`.  The differential test below
is its oracle: over random fleets, whose install histories make the
used port ids overlap and collide, every memoized package must equal a
fresh derivation.  The campaign test checks the sharing itself.

The vehicle descriptions these packages are derived for are shared the
same way: the tests at the end check that a fleet build judges and
describes each distinct description once.
"""

from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PercentageWaves
from repro.core.virtual_ports import VirtualPortKind
from repro.errors import ConfigurationError
from repro.fes import canary_campaign
from repro.fes.example_platform import (
    PHONE_ADDRESS,
    make_example_vehicle_spec,
    make_remote_control_app,
)
from repro.fes.fleet import build_fleet
from repro.fes.vehicle import VehicleSpec
from repro.server import contextgen
from repro.server.contextgen import PackagePlans, generate_packages, plan_key
from repro.server.models import (
    App,
    ConnectionKind,
    ConnectionSpec,
    EcuHw,
    ExternalSpec,
    HwConf,
    InstalledApp,
    InstalledPlugin,
    InstallStatus,
    PluginDescriptor,
    PluginSwcDesc,
    SwConf,
    SystemSwConf,
    Vehicle,
    VehicleConf,
    VirtualPortDesc,
)
from tests.helpers import make_binary

MODEL = "m1"
BINARIES = (make_binary(mem_hint=16), make_binary(mem_hint=8))
PORT_NAMES = ("in", "out", "aux")


# -- random vehicle descriptions, APPs and fleets -----------------------------


@st.composite
def system_sws(draw):
    """Two plug-in SW-Cs with a relay pair; ECUs and names vary."""
    ecu1 = draw(st.sampled_from(("ECU1", "ECU3")))
    ecu2 = draw(st.sampled_from(("ECU2", "ECU4")))
    out1 = draw(st.sampled_from(("V0", "R0")))
    out2 = draw(st.sampled_from(("V2", "R2")))
    return SystemSwConf((
        PluginSwcDesc("swc1", ecu1, (
            VirtualPortDesc(out1, VirtualPortKind.RELAY_OUT, "swc2"),
            VirtualPortDesc("V1", VirtualPortKind.RELAY_IN, "swc2"),
        )),
        PluginSwcDesc("swc2", ecu2, (
            VirtualPortDesc(out2, VirtualPortKind.RELAY_OUT, "swc1"),
            VirtualPortDesc("V3", VirtualPortKind.RELAY_IN, "swc1"),
            VirtualPortDesc("V4", VirtualPortKind.SERVICE_OUT),
        )),
    ))


@st.composite
def apps(draw, name):
    """An APP of 1-3 plug-ins on either SW-C, every port connected one
    of the three ways or routed from outside."""
    plugins = {}
    placements = []
    for index in range(draw(st.integers(1, 3))):
        plugin = f"{name}_p{index}"
        ports = tuple(draw(st.permutations(PORT_NAMES))[
            : draw(st.integers(1, len(PORT_NAMES)))
        ])
        plugins[plugin] = PluginDescriptor(
            plugin, draw(st.sampled_from(BINARIES)), ports
        )
        placements.append((plugin, draw(st.sampled_from(("swc1", "swc2")))))
    all_ports = [(p, port) for p, d in plugins.items() for port in d.port_names]
    connections = []
    externals = []
    for plugin, port in all_ports:
        kind = draw(st.sampled_from(("unconnected", "virtual", "plugin", "external")))
        if kind == "virtual":
            connections.append(ConnectionSpec(
                ConnectionKind.VIRTUAL, plugin, port, target_virtual="V4",
            ))
        elif kind == "plugin":
            target_plugin, target_port = draw(st.sampled_from(all_ports))
            connections.append(ConnectionSpec(
                ConnectionKind.PLUGIN, plugin, port,
                target_plugin=target_plugin, target_port=target_port,
            ))
        elif kind == "external":
            externals.append(ExternalSpec(
                "1.2.3.4:5", f"{plugin}.{port}", plugin, port,
            ))
        else:
            connections.append(
                ConnectionSpec(ConnectionKind.UNCONNECTED, plugin, port)
            )
    version = draw(st.sampled_from(("1.0", "2.0")))
    conf = SwConf(MODEL, tuple(placements), tuple(connections), tuple(externals))
    return App(name, version, plugins, [conf])


#: What may tell two APPs of one name apart: each is an input of the
#: plan key, so a twin must never be handed the other's packages.
TWIN_KINDS = (
    "binary", "port names", "extra port", "version", "order", "sw conf",
)


def twin_of(app: App, kind: str) -> App:
    """``app`` under its own name, changed in one plan-key input."""
    plugins = dict(app.plugins)
    plugin, descriptor = next(iter(plugins.items()))
    conf = app.sw_confs[0]
    version = app.version
    if kind == "binary":
        other = BINARIES[descriptor.binary == BINARIES[0]]
        plugins[plugin] = replace(descriptor, binary=other)
    elif kind == "extra port":  # a port no connection names
        plugins[plugin] = replace(
            descriptor, port_names=(*descriptor.port_names, "extra")
        )
    elif kind == "version":
        version = "3.0"
    elif kind == "order":  # ids are allocated in plug-in order
        plugins = dict(reversed(plugins.items()))
    elif kind == "sw conf":  # the same plug-ins, one connection fewer
        conf = replace(conf, connections=conf.connections[:-1])
    else:
        plugins[plugin] = replace(
            descriptor,
            port_names=tuple(f"{port}2" for port in descriptor.port_names),
        )

        def renamed(owner: str, port: str) -> str:
            return f"{port}2" if owner == plugin and port else port

        conf = replace(
            conf,
            connections=tuple(
                replace(
                    c, port=renamed(c.plugin, c.port),
                    target_port=renamed(c.target_plugin, c.target_port),
                )
                for c in conf.connections
            ),
            externals=tuple(
                replace(e, port=renamed(e.plugin, e.port))
                for e in conf.externals
            ),
        )
    return App(app.name, version, plugins, [conf])


def install(vehicle: Vehicle, app: App, packages) -> None:
    """Record an installation the way ``DeploymentService.deploy`` does."""
    installed = InstalledApp(app.name, app.version, InstallStatus.ACTIVE)
    for package in packages:
        installed.plugins.append(InstalledPlugin(
            package.message.plugin_name, package.message.target_swc,
            package.message.target_ecu, package.port_ids,
        ))
    vehicle.conf.installed[app.name] = installed


def check_against_fresh(plans: PackagePlans, app: App, vehicle: Vehicle):
    conf = app.sw_confs[0]
    memoized = plans.packages(app, conf, vehicle)
    fresh = generate_packages(app, conf, vehicle)
    assert [p.raw for p in memoized] == [p.message.encode() for p in fresh]
    assert [p.port_ids for p in memoized] == [p.port_ids for p in fresh]
    return memoized


class TestPlanMemoEqualsFreshGeneration:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_fleets(self, data):
        descriptions = data.draw(st.lists(system_sws(), min_size=1, max_size=3))
        pool = [data.draw(apps(name)) for name in ("a", "b", "c")]
        pool += [twin_of(pool[0], kind) for kind in TWIN_KINDS]
        vehicles = [
            Vehicle(
                f"V{index}", MODEL,
                VehicleConf(
                    HwConf(MODEL, (EcuHw("ECU1"), EcuHw("ECU2"))),
                    data.draw(st.sampled_from(descriptions)),
                ),
            )
            for index in range(data.draw(st.integers(1, 5)))
        ]
        plans = PackagePlans()
        steps = data.draw(st.lists(
            st.tuples(
                st.integers(0, len(vehicles) - 1),
                st.integers(0, len(pool) - 1),
                st.booleans(),
            ),
            max_size=20,
        ))
        for vehicle_index, app_index, remove in steps:
            vehicle = vehicles[vehicle_index]
            app = pool[app_index]
            if app.name in vehicle.conf.installed:
                if remove:  # leaves holes in the used port ids
                    del vehicle.conf.installed[app.name]
                continue
            install(vehicle, app, check_against_fresh(plans, app, vehicle))

    def test_twins_never_share_packages(self):
        app = make_remote_control_app()
        twins = [app] + [twin_of(app, kind) for kind in TWIN_KINDS]
        plans = PackagePlans()
        vehicle = _example_vehicle(app)
        raws = [
            tuple(p.raw for p in check_against_fresh(plans, twin, vehicle))
            for twin in twins
        ]
        assert len(set(raws)) == len(twins)

    def test_evicted_plans_are_derived_again(self, monkeypatch):
        derived = []

        def counting(app, conf, vehicle):
            derived.append(app.version)
            return generate_packages(app, conf, vehicle)

        monkeypatch.setattr(contextgen, "generate_packages", counting)
        app = make_remote_control_app()
        vehicle = _example_vehicle(app)
        extra = 8
        versions = [
            replace(app, version=f"1.{index}")
            for index in range(contextgen._PLAN_CACHE_SIZE + extra)
        ]
        plans = PackagePlans()
        for version in versions:
            check_against_fresh(plans, version, vehicle)
        assert len(derived) == len(versions)
        # The newest plans are kept; the oldest were dropped, and each is
        # derived again, equal to a fresh derivation.
        for version in versions[extra:]:
            check_against_fresh(plans, version, vehicle)
        assert len(derived) == len(versions)
        for version in versions[:extra]:
            check_against_fresh(plans, version, vehicle)
        assert derived[len(versions):] == [v.version for v in versions[:extra]]


def _example_vehicle(app: App) -> Vehicle:
    return Vehicle(
        "V1", app.sw_confs[0].model,
        VehicleConf(*make_example_vehicle_spec("V1").describe_for_server()),
    )


# -- a campaign ships each distinct package once ------------------------------


def _variant(vin: str) -> int:
    return int(vin.rsplit("-", 1)[1]) % 2


def _two_variant_spec(vin: str):
    """The example car; every odd VIN has its plug-in SW-C on ECU3."""
    spec = make_example_vehicle_spec(vin)
    if _variant(vin):
        spec.ecus = ("ECU1", "ECU3")
        spec.plugin_swcs = tuple(
            replace(p, ecu_name="ECU3") for p in spec.plugin_swcs
        )
        spec.legacy = tuple(replace(c, ecu_name="ECU3") for c in spec.legacy)
    return spec


def test_campaign_ships_each_package_once(monkeypatch):
    keys = []

    def counting(app, conf, vehicle):
        keys.append(plan_key(app, conf, vehicle))
        return generate_packages(app, conf, vehicle)

    monkeypatch.setattr(contextgen, "generate_packages", counting)
    fleet = build_fleet(
        50, seed=1, spec_factory=_two_variant_spec, full_vehicles=4
    )
    app = make_remote_control_app(PHONE_ADDRESS)
    fleet.server.api.store.upload(app).unwrap()
    report = fleet.run_campaign(replace(
        canary_campaign(app.name), waves=PercentageWaves((4 / 50, 1.0))
    ))
    assert report.status == "succeeded"
    # One plan per vehicle variant, each derived once.
    assert len(keys) == len(set(keys)) == 2
    shipped = defaultdict(list)
    for vin in fleet.vins:
        for record in fleet.server.db.installation(vin, app.name).plugins:
            shipped[(_variant(vin), record.plugin_name)].append(
                record.package
            )
    assert sorted(len(packages) for packages in shipped.values()) == [25] * 4
    for packages in shipped.values():
        assert all(package is packages[0] for package in packages)


# -- a fleet judges and describes each distinct description once --------------


def test_each_distinct_description_is_validated_once(monkeypatch):
    validated = []
    validate = VehicleSpec.validate

    def counting(spec):
        validated.append(spec.vin)
        return validate(spec)

    monkeypatch.setattr(VehicleSpec, "validate", counting)
    build_fleet(20, spec_factory=_two_variant_spec, full_vehicles=0)
    assert validated == ["VIN-0000", "VIN-0001"]


def test_vehicles_of_one_description_share_its_server_confs():
    fleet = build_fleet(6, spec_factory=_two_variant_spec, full_vehicles=0)
    confs = [fleet.server.db.vehicle(vin).conf for vin in fleet.vins]
    for index, conf in enumerate(confs):
        first = confs[index % 2]
        assert conf.hw is first.hw
        assert conf.system_sw is first.system_sw
    assert confs[0].hw != confs[1].hw
    # The VehicleConf, with its installed-APP records, stays per vehicle.
    assert len({id(conf) for conf in confs}) == len(confs)


@pytest.mark.parametrize("full_vehicles", [0, None], ids=["stat", "full"])
def test_first_invalid_vin_is_named(full_vehicles):
    # Three descriptions: even VINs, VIN-0001, and the odd VINs from
    # VIN-0003 on, which are broken.  VIN-0003 is the first spec of the
    # broken one, so it is the first invalid spec in declaration order.
    def factory(vin):
        spec = _two_variant_spec(vin)
        if _variant(vin) and vin >= "VIN-0003":
            spec.connectors = (
                *spec.connectors, ("ghost", "out", "actuators", "wheels_in"),
            )
        return spec

    with pytest.raises(
        ConfigurationError,
        match="^vehicle VIN-0003: unknown component instance 'ghost'$",
    ):
        build_fleet(8, spec_factory=factory, full_vehicles=full_vehicles)


def test_reassigning_a_field_changes_one_example_car_only():
    first = make_example_vehicle_spec("VIN-A")
    first.connectors = ()
    first.ecus = ("ECU1",)
    second = make_example_vehicle_spec("VIN-B")
    assert second.ecus == ("ECU1", "ECU2")
    assert len(second.connectors) == 3
    assert second.description() != first.description()
    assert second.description() == make_example_vehicle_spec().description()
