"""AUTOSAR substrate: component model, OS, BSW, RTE, system builder."""

from repro.autosar.ecu import Ecu
from repro.autosar.events import (
    DataReceivedEvent,
    InitEvent,
    OperationInvokedEvent,
    RteEvent,
    TimingEvent,
)
from repro.autosar.generator import BuiltSystem, SystemBuilder, build_system
from repro.autosar.interfaces import (
    ClientServerInterface,
    DataElement,
    Operation,
    PortInterface,
    SenderReceiverInterface,
)
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
    CompositionType,
)
from repro.autosar.system import (
    EcuDescription,
    InstancePlacement,
    SystemDescription,
    TaskMapping,
)
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
    lookup_type,
)
from repro.autosar.vfb import Connector

__all__ = [
    "Ecu",
    "DataReceivedEvent",
    "InitEvent",
    "OperationInvokedEvent",
    "RteEvent",
    "TimingEvent",
    "ClientServerInterface",
    "DataElement",
    "Operation",
    "PortInterface",
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
    "CompositionType",
    "EcuDescription",
    "InstancePlacement",
    "SystemDescription",
    "TaskMapping",
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
    "lookup_type",
    "Connector",
]
