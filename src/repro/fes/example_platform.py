"""The paper's example application platform (Sec. 4, Fig. 3).

A model car with two ECUs: ECU1 carries the ECM SW-C (PIRTE1), ECU2 a
plug-in SW-C (PIRTE2) exposing virtual ports toward the car's motion
hardware.  The remote-control APP consists of two plug-ins:

* **COM** on the ECM: listens to the smart phone ('Wheels'/'Speed'
  messages arrive on its unconnected ports P0/P1 via the ECC) and
  forwards formatted values through the type II pair to OP
  (PLC ``{P0-, P1-, P2-V0.P0, P3-V0.P1}``, as printed in the paper).
* **OP** on ECU2: receives the commands and writes them to the basic
  software through service virtual ports V4 (WheelsReq) and V5
  (SpeedReq); V6 (SpeedProv) is provisioned but unused, exactly as in
  the paper.

The car and the APP are declared with :mod:`repro.api`'s
:class:`~repro.api.VehicleBuilder` and :class:`~repro.api.AppBuilder`;
:func:`build_example_platform` adds both to a
:class:`~repro.api.ScenarioBuilder`, as :func:`~repro.fes.build_fleet`
does with many copies of the car.
"""

from __future__ import annotations

import functools

from repro.api.builder import AppBuilder, ScenarioBuilder, VehicleBuilder
from repro.api.platform import Platform
from repro.autosar.events import DataReceivedEvent
from repro.autosar.interfaces import DataElement, SenderReceiverInterface
from repro.autosar.ports import provided_port, required_port
from repro.autosar.runnable import Runnable
from repro.autosar.swc import ComponentType
from repro.autosar.types import INT16
from repro.core.plugin_swc import RelayLink, ServicePort
from repro.fes.vehicle import VehicleSpec
from repro.network.channel import WIFI
from repro.server.models import App

MODEL = "model-car-rpi"
PHONE_ADDRESS = "111.22.33.44:56789"

#: COM plug-in: phone commands in on P0/P1, formatted out on P2/P3.
COM_SOURCE = """
.entry on_message
    ; stack: [port, value]
    STORE 1         ; value
    STORE 0         ; port
    LOAD 0
    JZ wheels
    LOAD 1
    WRPORT 3        ; speed -> P3
    HALT
wheels:
    LOAD 1
    WRPORT 2        ; wheels -> P2
    HALT
"""

#: OP plug-in: commands in on P0/P1, actuator writes out on P2/P3.
OP_SOURCE = """
.entry on_message
    STORE 1
    STORE 0
    LOAD 0
    JZ wheels
    LOAD 1
    WRPORT 3        ; speed -> P3 (-> V5 SpeedReq)
    HALT
wheels:
    LOAD 1
    WRPORT 2        ; wheels -> P2 (-> V4 WheelsReq)
    HALT
"""

MOTION_IF = SenderReceiverInterface(
    "MotionIf", [DataElement("value", INT16, queued=True, queue_length=32)]
)


def make_car_actuators_type() -> ComponentType:
    """Legacy component: the car's wheel/speed actuators (BSW facade)."""

    def on_wheels(instance):
        while instance.pending("wheels_in", "value"):
            instance.state.setdefault("wheels", []).append(
                instance.receive("wheels_in", "value")
            )

    def on_speed(instance):
        while instance.pending("speed_in", "value"):
            instance.state.setdefault("speed", []).append(
                instance.receive("speed_in", "value")
            )

    return ComponentType(
        "CarActuators",
        ports=[
            required_port("wheels_in", MOTION_IF),
            required_port("speed_in", MOTION_IF),
            provided_port("speed_out", MOTION_IF),
        ],
        runnables=[
            Runnable("on_wheels", on_wheels, execution_time_us=15),
            Runnable("on_speed", on_speed, execution_time_us=15),
        ],
        events=[
            DataReceivedEvent("on_wheels", port="wheels_in", element="value"),
            DataReceivedEvent("on_speed", port="speed_in", element="value"),
        ],
    )


def _clamp_int16(value: int) -> int:
    return max(-32768, min(32767, value))


def make_example_vehicle_spec(vin: str = "VIN-0001") -> VehicleSpec:
    """The Fig. 3 car: ECM on ECU1, plug-in SW-C on ECU2.

    Each call returns a new :class:`VehicleSpec` for ``vin``, but every
    car shares one description, built once per process: its ECU names,
    placements, connectors and one ``CarActuators`` component type.
    Reassigning a field of the result changes that car only.
    """
    ecus, ecm, plugin_swcs, legacy, connectors = _example_parts()
    return VehicleSpec(vin, MODEL, ecus, ecm, plugin_swcs, legacy, connectors)


@functools.cache
def _example_parts() -> tuple:
    """The immutable parts of the Fig. 3 car's spec, which every example
    car shares: ECUs, ECM, plug-in SW-Cs, legacy and connectors."""
    builder = VehicleBuilder("VIN-0001", MODEL)
    builder.ecus("ECU1", "ECU2")
    builder.ecm(
        "swc1", on="ECU1", type_name="EcmSwc",
        relays=[RelayLink(peer="swc2", out_virtual="V0", in_virtual="V1")],
    )
    builder.plugin_swc(
        "swc2", on="ECU2", type_name="PluginSwc2",
        relays=[RelayLink(peer="swc1", out_virtual="V2", in_virtual="V3")],
        services=[
            ServicePort("V4", "wheels_req", "out", INT16, to_wire=_clamp_int16),
            ServicePort("V5", "speed_req", "out", INT16, to_wire=_clamp_int16),
            ServicePort("V6", "speed_prov", "in", INT16),
        ],
    )
    builder.legacy("actuators", make_car_actuators_type(), on="ECU2")
    builder.connect("swc2", "wheels_req", "actuators", "wheels_in")
    builder.connect("swc2", "speed_req", "actuators", "speed_in")
    builder.connect("actuators", "speed_out", "swc2", "speed_prov")
    spec = builder.to_spec()
    return spec.ecus, spec.ecm, spec.plugin_swcs, spec.legacy, spec.connectors


def make_remote_control_app(
    phone_address: str = PHONE_ADDRESS, version: str = "1.0"
) -> App:
    """The two-plug-in remote-control APP with its deployment descriptor."""
    builder = AppBuilder("remote-control", MODEL, version)
    builder.plugin(
        "COM", source=COM_SOURCE, mem_hint=8, on="swc1",
        ports=("cmd_wheels", "cmd_speed", "out_wheels", "out_speed"),
    )
    builder.plugin(
        "OP", source=OP_SOURCE, mem_hint=8, on="swc2",
        ports=("in_wheels", "in_speed", "act_wheels", "act_speed"),
    )
    builder.unconnected("COM", "cmd_wheels")
    builder.unconnected("COM", "cmd_speed")
    builder.wire("COM", "out_wheels", "OP", "in_wheels")
    builder.wire("COM", "out_speed", "OP", "in_speed")
    builder.virtual("OP", "act_wheels", "V4")
    builder.virtual("OP", "act_speed", "V5")
    builder.external(phone_address, "Wheels", "COM", "cmd_wheels")
    builder.external(phone_address, "Speed", "COM", "cmd_speed")
    return builder.to_app()


def build_example_platform(seed: int = 0, trace: bool = True) -> Platform:
    """Build the complete demonstrator: server + phone + vehicle.

    The result is a single-vehicle :class:`~repro.api.Platform`:
    ``vehicle()`` and ``phone()`` (no arguments) return the one car and
    the phone at :data:`PHONE_ADDRESS`, and
    ``deploy("remote-control")`` installs the APP on it.
    """
    scenario = ScenarioBuilder(seed=seed, trace=trace)
    scenario.user("user-1", "Example User")
    scenario.phone(PHONE_ADDRESS, WIFI)
    scenario.add_vehicle_spec(make_example_vehicle_spec("VIN-0001"))
    scenario.add_app(make_remote_control_app())
    return scenario.build()


__all__ = [
    "MODEL",
    "PHONE_ADDRESS",
    "COM_SOURCE",
    "OP_SOURCE",
    "make_car_actuators_type",
    "make_example_vehicle_spec",
    "make_remote_control_app",
    "build_example_platform",
]
