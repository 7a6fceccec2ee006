"""Compatibility and dependency checking (paper Sec. 3.2.2).

Before generating contexts, the server verifies that the target vehicle
meets an APP's prerequisites: a deployment descriptor exists for the
vehicle model, the referenced plug-in SW-Cs and virtual ports exist in
the exposed API, required APPs are installed, and no installed APP
conflicts.  Failures are collected into a report that the web portal
presents to the user.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.server.models import (
    App,
    ConnectionKind,
    InstallStatus,
    SwConf,
    Vehicle,
)


@dataclass
class CompatibilityReport:
    """Outcome of the server's pre-deployment checks."""

    ok: bool
    sw_conf: Optional[SwConf] = None
    reasons: list[str] = field(default_factory=list)

    def add_failure(self, reason: str) -> None:
        self.ok = False
        self.reasons.append(reason)


def check_compatibility(app: App, vehicle: Vehicle) -> CompatibilityReport:
    """Run the full compatibility check of ``app`` against ``vehicle``."""
    report = CompatibilityReport(ok=True)
    conf = app.conf_for_model(vehicle.model)
    if conf is None:
        report.add_failure(
            f"APP {app.name} has no deployment descriptor for vehicle "
            f"model {vehicle.model!r}"
        )
        return report
    report.sw_conf = conf
    _check_placements(app, conf, vehicle, report)
    _check_connections(app, conf, vehicle, report)
    _check_externals(app, conf, report)
    _check_dependencies(app, vehicle, report)
    _check_conflicts(app, vehicle, report)
    return report


def _check_placements(
    app: App, conf: SwConf, vehicle: Vehicle, report: CompatibilityReport
) -> None:
    placed = {plugin for plugin, __ in conf.placements}
    for plugin_name in app.plugins:
        if plugin_name not in placed:
            report.add_failure(
                f"plug-in {plugin_name} has no placement in the descriptor"
            )
    for plugin_name, swc_name in conf.placements:
        if plugin_name not in app.plugins:
            report.add_failure(
                f"descriptor places unknown plug-in {plugin_name}"
            )
            continue
        swc = vehicle.conf.system_sw.swc(swc_name)
        if swc is None:
            report.add_failure(
                f"vehicle exposes no plug-in SW-C named {swc_name!r}"
            )
            continue
        if not vehicle.conf.hw.has_ecu(swc.ecu_name):
            report.add_failure(
                f"SW-C {swc_name} references missing ECU {swc.ecu_name!r}"
            )


def _check_connections(
    app: App, conf: SwConf, vehicle: Vehicle, report: CompatibilityReport
) -> None:
    for spec in conf.connections:
        plugin = app.plugins.get(spec.plugin)
        if plugin is None:
            report.add_failure(
                f"connection references unknown plug-in {spec.plugin}"
            )
            continue
        if spec.port not in plugin.port_names:
            report.add_failure(
                f"plug-in {spec.plugin} has no port {spec.port!r}"
            )
            continue
        swc_name = conf.swc_for(spec.plugin)
        swc = vehicle.conf.system_sw.swc(swc_name) if swc_name else None
        if swc is None:
            continue  # placement failure already reported
        if spec.kind is ConnectionKind.VIRTUAL:
            vport = swc.virtual_port(spec.target_virtual)
            if vport is None:
                report.add_failure(
                    f"SW-C {swc_name} exposes no virtual port "
                    f"{spec.target_virtual!r}"
                )
        elif spec.kind is ConnectionKind.PLUGIN:
            target = app.plugins.get(spec.target_plugin)
            if target is None:
                report.add_failure(
                    f"connection targets unknown plug-in {spec.target_plugin}"
                )
                continue
            if spec.target_port not in target.port_names:
                report.add_failure(
                    f"plug-in {spec.target_plugin} has no port "
                    f"{spec.target_port!r}"
                )
                continue
            target_swc = conf.swc_for(spec.target_plugin)
            if target_swc and target_swc != swc_name:
                # Cross-SW-C: a relay pair toward the target must exist.
                if swc.relay_toward(target_swc) is None:
                    report.add_failure(
                        f"SW-C {swc_name} has no type II relay toward "
                        f"{target_swc}"
                    )


def _check_externals(
    app: App, conf: SwConf, report: CompatibilityReport
) -> None:
    for spec in conf.externals:
        plugin = app.plugins.get(spec.plugin)
        if plugin is None:
            report.add_failure(
                f"external route references unknown plug-in {spec.plugin}"
            )
        elif spec.port not in plugin.port_names:
            report.add_failure(
                f"external route references unknown port {spec.port!r} "
                f"on plug-in {spec.plugin}"
            )


def _check_dependencies(
    app: App, vehicle: Vehicle, report: CompatibilityReport
) -> None:
    for required in app.dependencies:
        installed = vehicle.conf.installed.get(required)
        if installed is None or installed.status is not InstallStatus.ACTIVE:
            report.add_failure(
                f"APP {app.name} requires APP {required}, which is not "
                f"installed and active"
            )


def _check_conflicts(
    app: App, vehicle: Vehicle, report: CompatibilityReport
) -> None:
    for conflicting in app.conflicts:
        if conflicting in vehicle.conf.installed:
            report.add_failure(
                f"APP {app.name} conflicts with installed APP {conflicting}"
            )
    # The symmetric direction (an installed APP declaring a conflict on
    # this one) needs the APP catalogue; the app store checks it.


__all__ = ["CompatibilityReport", "check_compatibility"]
