#!/usr/bin/env python3
"""Quickstart: declare a vehicle, deploy a plug-in APP, drive it.

Declares the paper's example system (trusted server + smartphone + a
two-ECU model car) through the public :class:`repro.ScenarioBuilder`
API — the whole car is the ~25-line declaration below — then deploys
the remote-control APP and drives the car from the phone.  Deployment
progress is tracked through the unified ``Deployment`` handle instead
of manual status polling.

Run:  python examples/quickstart.py
"""

from repro import RelayLink, ScenarioBuilder, ServicePort
from repro.autosar.types import INT16
from repro.fes.example_platform import (
    COM_SOURCE,
    OP_SOURCE,
    make_car_actuators_type,
)
from repro.sim import SECOND, format_time

PHONE = "111.22.33.44:56789"


def declare_platform() -> ScenarioBuilder:
    scenario = ScenarioBuilder(seed=42).phone(PHONE)
    scenario.user("user-1", "Example User")

    # The paper's Fig. 3 car: ECM on ECU1, plug-in SW-C on ECU2.
    car = scenario.vehicle("VIN-0001", "model-car-rpi")
    car.ecus("ECU1", "ECU2")
    car.ecm("swc1", on="ECU1",
            relays=[RelayLink(peer="swc2", out_virtual="V0", in_virtual="V1")])
    car.plugin_swc(
        "swc2", on="ECU2",
        relays=[RelayLink(peer="swc1", out_virtual="V2", in_virtual="V3")],
        services=[
            ServicePort("V4", "wheels_req", "out", INT16),
            ServicePort("V5", "speed_req", "out", INT16),
            ServicePort("V6", "speed_prov", "in", INT16),
        ],
    )
    car.legacy("actuators", make_car_actuators_type(), on="ECU2")
    car.connect("swc2", "wheels_req", "actuators", "wheels_in")
    car.connect("swc2", "speed_req", "actuators", "speed_in")
    car.connect("actuators", "speed_out", "swc2", "speed_prov")

    # The remote-control APP: COM on the ECM, OP behind the actuators.
    app = scenario.app("remote-control", "model-car-rpi")
    app.plugin("COM", source=COM_SOURCE, mem_hint=8, on="swc1",
               ports=("cmd_wheels", "cmd_speed", "out_wheels", "out_speed"))
    app.plugin("OP", source=OP_SOURCE, mem_hint=8, on="swc2",
               ports=("in_wheels", "in_speed", "act_wheels", "act_speed"))
    app.unconnected("COM", "cmd_wheels").unconnected("COM", "cmd_speed")
    app.wire("COM", "out_wheels", "OP", "in_wheels")
    app.wire("COM", "out_speed", "OP", "in_speed")
    app.virtual("OP", "act_wheels", "V4").virtual("OP", "act_speed", "V5")
    app.external(PHONE, "Wheels", "COM", "cmd_wheels")
    app.external(PHONE, "Speed", "COM", "cmd_speed")
    return scenario


def main() -> None:
    platform = declare_platform().build()

    print("== boot: ECUs start, ECM dials the trusted server ==")
    platform.boot()
    platform.run(1 * SECOND)
    car = platform.vehicle("VIN-0001")
    print(f"   ECM connected to server: {car.ecm_pirte.uplink.up}")

    print("== user clicks 'install remote-control' on the web portal ==")
    deployment = platform.deploy("remote-control")
    print(f"   compatibility check passed: {deployment.ok}")
    print(f"   packages pushed: {deployment.result('VIN-0001').pushed_messages}")
    elapsed = deployment.wait(10 * SECOND)
    status = deployment.status("VIN-0001")
    acked, _failed, total = deployment.acks("VIN-0001")
    print(f"   installation status: {status.value} ({acked}/{total} acks)")
    print(f"   (wall-clock in the car's world: {format_time(elapsed)})")

    ecm = car.ecm_pirte
    pirte2 = car.pirte_of("swc2")
    print(f"   plug-ins on ECM SW-C:  {sorted(ecm.plugins)}")
    print(f"   plug-ins on SW-C 2:    {sorted(pirte2.plugins)}")
    print(f"   OP's PLC: {pirte2.plugin('OP').plc.describe()}")
    print(f"   COM's PLC: {ecm.plugin('COM').plc.describe()}")

    print("== drive: the phone sends Wheels/Speed commands ==")
    phone = platform.phone(PHONE)
    phone.send("Wheels", -30)
    phone.send("Speed", 55)
    platform.run(1 * SECOND)
    state = platform.actuator_state()
    print(f"   actuator inputs seen by the car: {state}")

    print("== uninstall through the portal ==")
    platform.uninstall("remote-control", vin="VIN-0001")
    platform.run(3 * SECOND)
    print(f"   plug-ins on ECM SW-C after uninstall: {sorted(ecm.plugins)}")
    print("done.")


if __name__ == "__main__":
    main()
