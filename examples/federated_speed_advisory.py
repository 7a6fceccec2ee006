#!/usr/bin/env python3
"""A federated embedded system: fleet-wide cooperative speed advisory.

The paper motivates dynamic AUTOSAR with federated embedded systems
(FES): "embedded systems in different products that cooperate with each
other".  This example builds one: several vehicles report their current
speed to an off-board advisory service through dynamically installed
plug-ins; the service computes a harmonised advisory speed and pushes it
back; a second plug-in on each vehicle applies it to the drivetrain.

Per vehicle, the APP installs three plug-ins:

* **PROBE** (SW-C 2): reads the drivetrain speed from virtual port V6
  (SpeedProv — the port the paper provisions but leaves unused) and
  relays it over the type II pair to the ECM.
* **REP** (ECM SW-C): forwards each report to the advisory service
  through its unconnected port + ECC (outbound external routing).
* **LIMIT** (SW-C 2): receives 'Advisory' messages (inbound external ->
  DATA relay over type I -> plug-in port) and writes V5 (SpeedReq).

Run:  python examples/federated_speed_advisory.py
"""

from repro import (
    AppBuilder,
    RelayLink,
    ServicePort,
    Smartphone,
    VehicleBuilder,
    build_fleet,
)
from repro.autosar.events import DataReceivedEvent, TimingEvent
from repro.autosar.interfaces import DataElement, SenderReceiverInterface
from repro.autosar.ports import provided_port, required_port
from repro.autosar.runnable import Runnable
from repro.autosar.swc import ComponentType
from repro.autosar.types import INT16
from repro.fes.vehicle import VehicleSpec
from repro.server.models import App
from repro.sim import MS, SECOND, format_time

ADVISORY_ADDRESS = "advisory.cloud.example:9000"
MODEL = "fes-sedan"

MOTION_IF = SenderReceiverInterface(
    "MotionIf", [DataElement("value", INT16, queued=True, queue_length=32)]
)

FORWARD = """
.entry on_message
    WRPORT 1
    HALT
"""


def make_drivetrain_type(initial_speed: int) -> ComponentType:
    """Legacy drivetrain: publishes speed, follows advisory commands."""

    def tick(instance):
        state = instance.state
        current = state.setdefault("speed", initial_speed)
        target = state.get("target", current)
        # First-order approach toward the commanded speed.
        if current < target:
            current = min(target, current + 2)
        elif current > target:
            current = max(target, current - 2)
        state["speed"] = current
        instance.write("speed_out", "value", current)

    def on_command(instance):
        while instance.pending("speed_cmd", "value"):
            instance.state["target"] = instance.receive("speed_cmd", "value")
            instance.state.setdefault("commands", []).append(
                instance.state["target"]
            )

    return ComponentType(
        "Drivetrain",
        ports=[
            provided_port("speed_out", MOTION_IF),
            required_port("speed_cmd", MOTION_IF),
        ],
        runnables=[
            Runnable("tick", tick, execution_time_us=30),
            Runnable("on_command", on_command, execution_time_us=15),
        ],
        events=[
            TimingEvent("tick", period_us=100 * MS, offset_us=10 * MS),
            DataReceivedEvent("on_command", port="speed_cmd", element="value"),
        ],
    )


def make_fes_vehicle_spec(vin: str) -> VehicleSpec:
    """A vehicle whose drivetrain speed is exposed on V6 (declarative)."""
    # Heterogeneous but deterministic initial speeds (30..70 km/h).
    initial = 30 + (sum(ord(c) for c in vin) % 5) * 10
    sedan = VehicleBuilder(vin, MODEL)
    sedan.ecus("ECU1", "ECU2")
    sedan.ecm(
        "swc1", on="ECU1", type_name="FesEcm",
        relays=[RelayLink(peer="swc2", out_virtual="V0", in_virtual="V1")],
    )
    sedan.plugin_swc(
        "swc2", on="ECU2", type_name="FesSwc2",
        relays=[RelayLink(peer="swc1", out_virtual="V2", in_virtual="V3")],
        services=[
            ServicePort("V5", "speed_req", "out", INT16),
            ServicePort("V6", "speed_prov", "in", INT16),
        ],
    )
    sedan.legacy("drivetrain", make_drivetrain_type(initial), on="ECU2")
    sedan.connect("drivetrain", "speed_out", "swc2", "speed_prov")
    sedan.connect("swc2", "speed_req", "drivetrain", "speed_cmd")
    return sedan.to_spec()


def make_advisory_app() -> App:
    app = AppBuilder("speed-advisory", MODEL)
    app.plugin("PROBE", source=FORWARD, mem_hint=8, on="swc2",
               ports=("speed_in", "report_out"))
    app.plugin("REP", source=FORWARD, mem_hint=8, on="swc1",
               ports=("report_in", "report_ext"))
    app.plugin("LIMIT", source=FORWARD, mem_hint=8, on="swc2",
               ports=("advisory_in", "speed_cmd"))
    app.virtual("PROBE", "speed_in", "V6")
    app.wire("PROBE", "report_out", "REP", "report_in")
    app.unconnected("REP", "report_ext")
    app.unconnected("LIMIT", "advisory_in")
    app.virtual("LIMIT", "speed_cmd", "V5")
    app.external(ADVISORY_ADDRESS, "SpeedReport", "REP", "report_ext")
    app.external(ADVISORY_ADDRESS, "Advisory", "LIMIT", "advisory_in")
    return app.to_app()


def main() -> None:
    fleet_size = 4
    print(f"== building a federation of {fleet_size} vehicles ==")
    fleet = build_fleet(fleet_size, seed=11, spec_factory=make_fes_vehicle_spec)
    advisory = Smartphone(fleet.fabric, ADVISORY_ADDRESS, fleet.sim)
    fleet.server.api.store.upload(make_advisory_app()).unwrap()
    fleet.boot()
    fleet.sim.run_for(1 * SECOND)

    print("== deploying the speed-advisory APP fleet-wide ==")
    campaign = fleet.deploy("speed-advisory")
    print(f"   accepted: {sum(r.ok for r in campaign)}/{fleet_size}")
    elapsed = campaign.wait(30 * SECOND)
    print(f"   fleet ACTIVE after {format_time(elapsed)}")

    print("== federation running: reports flow in, advisories flow out ==")
    for round_no in range(8):
        fleet.sim.run_for(1 * SECOND)
        reports = advisory.values_named("SpeedReport")
        if not reports:
            continue
        recent = reports[-fleet_size:]
        target = sum(recent) // len(recent)
        advisory.send("Advisory", target)
        print(
            f"   t={format_time(fleet.sim.now)}: {len(reports)} reports, "
            f"recent speeds {recent}, advisory -> {target}"
        )
    fleet.sim.run_for(3 * SECOND)

    print("== convergence check ==")
    speeds = [
        v.system.instance("drivetrain").state.get("speed")
        for v in fleet.vehicles
    ]
    commands = [
        len(v.system.instance("drivetrain").state.get("commands", []))
        for v in fleet.vehicles
    ]
    print(f"   drivetrain speeds: {speeds}")
    print(f"   advisory commands applied per vehicle: {commands}")
    spread = max(speeds) - min(speeds)
    print(f"   fleet speed spread: {spread} (started heterogeneous)")
    print("done.")


if __name__ == "__main__":
    main()
