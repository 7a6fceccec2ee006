"""AUTOSAR substrate: component model, OS, BSW, RTE, system builder."""

from repro.autosar.ecu import Ecu
from repro.autosar.events import (
    DataReceivedEvent,
    InitEvent,
    RteEvent,
    TimingEvent,
)
from repro.autosar.generator import BuiltSystem, SystemBuilder, build_system
from repro.autosar.interfaces import DataElement, SenderReceiverInterface
from repro.autosar.ports import (
    PortDirection,
    PortInstance,
    PortPrototype,
    provided_port,
    required_port,
)
from repro.autosar.rte import Rte
from repro.autosar.runnable import Runnable
from repro.autosar.swc import (
    ComponentInstance,
    ComponentType,
)
from repro.autosar.system import InstancePlacement, SystemDescription
from repro.autosar.types import (
    BOOL,
    BYTES,
    INT8,
    INT16,
    INT32,
    UINT8,
    UINT16,
    UINT32,
    BytesType,
    DataType,
    IntegerType,
)
from repro.autosar.vfb import Connector

__all__ = [
    "Ecu",
    "DataReceivedEvent",
    "InitEvent",
    "RteEvent",
    "TimingEvent",
    "DataElement",
    "SenderReceiverInterface",
    "PortDirection",
    "PortInstance",
    "PortPrototype",
    "provided_port",
    "required_port",
    "BuiltSystem",
    "Rte",
    "SystemBuilder",
    "build_system",
    "Runnable",
    "ComponentInstance",
    "ComponentType",
    "InstancePlacement",
    "SystemDescription",
    "BOOL",
    "BYTES",
    "INT8",
    "INT16",
    "INT32",
    "UINT8",
    "UINT16",
    "UINT32",
    "BytesType",
    "DataType",
    "IntegerType",
    "Connector",
]
