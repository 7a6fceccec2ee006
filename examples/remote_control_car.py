#!/usr/bin/env python3
"""The paper's Figure 3 demonstrator, step by step, with a live trace.

Reconstructs Sec. 4 of the paper in detail: the two-RPi model car, the
COM and OP plug-ins, the PLC/ECC contexts exactly as printed, and a
drive session where steering commands flow

    phone --wifi--> COM (ECM, ECU1) --type II over CAN--> OP (ECU2)
          --type III--> WheelsReq/SpeedReq --> actuators.

Run:  python examples/remote_control_car.py
"""

from repro import build_example_platform
from repro.sim import MS, SECOND, format_time


def print_signal_chain(platform) -> None:
    """Show the end-to-end latency of each command from the trace."""
    tracer = platform.tracer
    sends = [
        event for event in tracer.events("net", "send")
        if "ext" in event.data.get("channel", "")
    ]
    writes = tracer.events("rte", "write", ecu="ECU2")
    print(f"   external sends seen on the wireless link: {len(sends)}")
    print(f"   RTE writes on ECU2 (type III actuator writes): {len(writes)}")


def main() -> None:
    platform = build_example_platform(seed=7)
    vehicle = platform.vehicle()

    print("== the platform (paper Fig. 3) ==")
    print(f"   ECUs: {list(vehicle.spec.ecus)}")
    print(f"   ECM SW-C '{vehicle.spec.ecm.instance_name}' on ECU1 (PIRTE1)")
    print(f"   plug-in SW-C 'swc2' on ECU2 (PIRTE2)")
    print("   virtual ports on swc2: V2/V3 (type II relay), V4=WheelsReq,")
    print("   V5=SpeedReq, V6=SpeedProv (provisioned, unused — as in the paper)")

    platform.boot()
    platform.run(1 * SECOND)

    print("== install: server generates contexts and pushes packages ==")
    deployment = platform.deploy("remote-control")
    assert deployment.ok, deployment.reasons(vehicle.vin)
    elapsed = deployment.wait(10 * SECOND)
    print(f"   both plug-ins ACTIVE after {format_time(elapsed)}")

    ecm = vehicle.ecm_pirte
    pirte2 = vehicle.pirte_of("swc2")
    com = ecm.plugin("COM")
    op = pirte2.plugin("OP")
    print(f"   COM PIC: {[(e.name, e.port_id) for e in com.pic.entries]}")
    print(f"   COM PLC: {com.plc.describe()}   <- paper: {{P0-, P1-, P2-V0.P0, P3-V0.P1}}")
    print(f"   OP  PIC: {[(e.name, e.port_id) for e in op.pic.entries]}")
    print(f"   OP  PLC: {op.plc.describe()}")
    print(f"   ECC entries registered in PIRTE1: "
          f"{[(e.message_name, e.recipient_ecu, e.port_id) for e in ecm.ecc_entries]}")

    print("== drive session: a sweep of steering angles plus speed steps ==")
    t0 = platform.sim.now
    for step, angle in enumerate(range(-40, 41, 10)):
        platform.phone().send("Wheels", angle)
        platform.phone().send("Speed", 20 + step * 5)
        platform.run(200 * MS)
    platform.run(1 * SECOND)

    state = platform.actuator_state()
    print(f"   wheel angles actuated: {state.get('wheels')}")
    print(f"   speed requests actuated: {state.get('speed')}")
    print(f"   session duration: {format_time(platform.sim.now - t0)}")

    print("== plumbing statistics ==")
    bus = vehicle.system.bus
    print(f"   CAN frames on the in-vehicle bus: {bus.frames_transferred}")
    print(f"   COM VM activations: {com.vm.activations}, "
          f"fuel used: {com.vm.total_fuel_used}")
    print(f"   OP  VM activations: {op.vm.activations}, "
          f"fuel used: {op.vm.total_fuel_used}")
    print(f"   messages routed by PIRTE1: {ecm.messages_routed}, "
          f"PIRTE2: {pirte2.messages_routed}")
    print_signal_chain(platform)
    print("done.")


if __name__ == "__main__":
    main()
