"""Synthetic workload generators for the server-scale experiments.

The paper's server performs compatibility checks, dependency
supervision, and context generation over its APP and vehicle databases;
these generators produce stores of configurable size and dependency
density so the FIG2/SERVER-SCALE benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.virtual_ports import VirtualPortKind
from repro.server.models import (
    App,
    ConnectionKind,
    ConnectionSpec,
    EcuHw,
    HwConf,
    PluginDescriptor,
    PluginSwcDesc,
    SwConf,
    SystemSwConf,
    VirtualPortDesc,
)
from repro.sim.random import SeededStream
from repro.vm.loader import compile_plugin

#: Generic do-nothing message handler used as synthetic binary payload.
_SYNTH_SOURCE = """
.entry on_message
    POP
    POP
    HALT
"""


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of a synthetic server workload."""

    models: int = 3
    ecus_per_vehicle: int = 4
    swcs_per_vehicle: int = 3
    virtual_ports_per_swc: int = 6
    plugins_per_app: int = 2
    ports_per_plugin: int = 4
    dependency_density: float = 0.2
    conflict_density: float = 0.05
    binary_padding: int = 256


def synth_model_name(index: int) -> str:
    return f"model-{index}"


def make_vehicle_confs(
    config: SyntheticConfig, model_index: int
) -> tuple[HwConf, SystemSwConf]:
    """Hardware + exposed-API configuration for one vehicle model."""
    model = synth_model_name(model_index)
    ecus = tuple(
        EcuHw(f"ECU{i}") for i in range(config.ecus_per_vehicle)
    )
    swcs = []
    for s in range(config.swcs_per_vehicle):
        ports = [
            VirtualPortDesc(
                f"S{s}V{v}",
                VirtualPortKind.SERVICE_OUT if v % 2 == 0
                else VirtualPortKind.SERVICE_IN,
            )
            for v in range(config.virtual_ports_per_swc)
        ]
        # A relay pair toward the next SW-C (ring topology).
        peer = f"swc{(s + 1) % config.swcs_per_vehicle}"
        ports.append(
            VirtualPortDesc(f"S{s}R_out", VirtualPortKind.RELAY_OUT, peer)
        )
        ports.append(
            VirtualPortDesc(f"S{s}R_in", VirtualPortKind.RELAY_IN, peer)
        )
        swcs.append(
            PluginSwcDesc(
                swc_name=f"swc{s}",
                ecu_name=f"ECU{s % config.ecus_per_vehicle}",
                virtual_ports=tuple(ports),
                vm_memory_bytes=1 << 20,
            )
        )
    return HwConf(model, ecus), SystemSwConf(tuple(swcs))


def make_synthetic_app(
    config: SyntheticConfig,
    index: int,
    rng: SeededStream,
    existing_apps: list[str],
) -> App:
    """One synthetic APP with plug-ins, descriptors, and relations."""
    base_binary = compile_plugin(_SYNTH_SOURCE, mem_hint=16).raw
    binary = base_binary + bytes(config.binary_padding)
    plugins = {}
    for p in range(config.plugins_per_app):
        name = f"app{index}_p{p}"
        plugins[name] = PluginDescriptor(
            name,
            base_binary,  # must stay a valid container
            tuple(f"port{k}" for k in range(config.ports_per_plugin)),
        )
    del binary
    sw_confs = []
    for m in range(config.models):
        placements = tuple(
            (name, f"swc{i % config.swcs_per_vehicle}")
            for i, name in enumerate(plugins)
        )
        connections = []
        for i, (name, swc) in enumerate(placements):
            descriptor = plugins[name]
            for k, port in enumerate(descriptor.port_names):
                vname = f"{swc[3:]}"  # swc index as string
                connections.append(
                    ConnectionSpec(
                        ConnectionKind.VIRTUAL,
                        name,
                        port,
                        target_virtual=(
                            f"S{int(vname)}V{k % config.virtual_ports_per_swc}"
                        ),
                    )
                )
        sw_confs.append(
            SwConf(
                model=synth_model_name(m),
                placements=placements,
                connections=tuple(connections),
            )
        )
    dependencies = tuple(
        name
        for name in existing_apps
        if rng.chance(config.dependency_density)
    )[:2]
    conflicts = tuple(
        name
        for name in existing_apps
        if name not in dependencies and rng.chance(config.conflict_density)
    )[:1]
    return App(
        name=f"app{index}",
        version="1.0",
        plugins=plugins,
        sw_confs=sw_confs,
        dependencies=dependencies,
        conflicts=conflicts,
    )


#: Region palette synthetic vehicles cycle through (selector sweeps).
SYNTH_REGIONS = ("eu-north", "eu-south", "na-east", "apac")


def populate_server(
    api,
    config: SyntheticConfig,
    n_apps: int,
    n_vehicles: int,
    seed: int = 0,
) -> None:
    """Fill a server's store with a synthetic fleet and APP catalogue.

    ``api`` is the server's
    :class:`~repro.server.services.fleetapi.FleetAPI`.  Vehicles cycle
    through :data:`SYNTH_REGIONS`.
    """
    rng = SeededStream(seed, "server-workload")
    api.vehicles.create_user("u0", "Synthetic User").unwrap()
    for v in range(n_vehicles):
        model_index = v % config.models
        hw, system_sw = make_vehicle_confs(config, model_index)
        vin = f"SYNTH-{v:05d}"
        api.vehicles.register(
            vin,
            synth_model_name(model_index),
            hw,
            system_sw,
            region=SYNTH_REGIONS[v % len(SYNTH_REGIONS)],
        ).unwrap()
        api.vehicles.bind("u0", vin).unwrap()
    existing: list[str] = []
    for a in range(n_apps):
        app = make_synthetic_app(config, a, rng, existing)
        api.store.upload(app).unwrap()
        existing.append(app.name)


__all__ = [
    "SYNTH_REGIONS",
    "SyntheticConfig",
    "synth_model_name",
    "make_vehicle_confs",
    "make_synthetic_app",
    "populate_server",
]
