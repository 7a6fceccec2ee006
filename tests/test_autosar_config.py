"""Tests for description-file serialization (the ARXML equivalent)."""

import json

import pytest

from repro.autosar import (
    ClientServerInterface,
    ComponentType,
    DataElement,
    Operation,
    Runnable,
    SenderReceiverInterface,
    SystemDescription,
    TimingEvent,
    UINT8,
    UINT16,
    build_system,
    provided_port,
    required_port,
)
from repro.autosar.config import (
    ComponentTypeRegistry,
    dump_component_type,
    dump_interface,
    dump_system,
    load_interface,
    load_system,
    structure_matches,
)
from repro.autosar.events import DataReceivedEvent, InitEvent
from repro.errors import ConfigurationError
from repro.sim import MS
from repro.telemetry import TelemetryBus

SPEED_IF = SenderReceiverInterface(
    "SpeedIf", [DataElement("speed", UINT16, queued=True, queue_length=8)]
)
CALC_IF = ClientServerInterface(
    "CalcIf", [Operation("add", (("a", UINT8), ("b", UINT8)), UINT16)]
)


def make_types():
    sender = ComponentType(
        "Sender",
        ports=[provided_port("out", SPEED_IF)],
        runnables=[Runnable("produce", lambda i: i.write("out", "speed", 1),
                            execution_time_us=25)],
        events=[TimingEvent("produce", period_us=10 * MS)],
    )
    def consume(instance):
        while instance.pending("in", "speed"):
            instance.receive("in", "speed")

    receiver = ComponentType(
        "Receiver",
        ports=[required_port("in", SPEED_IF), required_port("calc", CALC_IF)],
        runnables=[Runnable("consume", consume)],
        events=[DataReceivedEvent("consume", port="in", element="speed"),
                InitEvent("consume")],
    )
    server = ComponentType("CalcServer", ports=[provided_port("calc", CALC_IF)])
    server.add_operation_handler("calc", "add", lambda inst, a, b: a + b)
    return sender, receiver, server


def make_description():
    sender, receiver, server = make_types()
    desc = SystemDescription("demo")
    desc.can_bitrate = 250_000
    desc.add_ecu("e1")
    desc.add_ecu("e2", memory_block_size=128)
    desc.add_component("snd", sender, "e1", priority=7)
    desc.add_component("rcv", receiver, "e2", priority=3, preemptable=False)
    desc.add_component("srv", server, "e2")
    desc.connect("snd", "out", "rcv", "in")
    desc.connect("rcv", "calc", "srv", "calc")
    return desc, (sender, receiver, server)


class TestInterfaceSerialization:
    def test_sr_roundtrip(self):
        data = dump_interface(SPEED_IF)
        loaded = load_interface(data)
        assert loaded.compatible_with(SPEED_IF)
        assert loaded.element("speed").queue_length == 8

    def test_cs_roundtrip(self):
        loaded = load_interface(dump_interface(CALC_IF))
        assert loaded.compatible_with(CALC_IF)

    def test_json_serializable(self):
        json.dumps(dump_interface(SPEED_IF))
        json.dumps(dump_interface(CALC_IF))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            load_interface({"kind": "mystery", "name": "x"})


class TestSystemSerialization:
    def test_roundtrip_preserves_structure(self):
        desc, types = make_description()
        data = dump_system(desc)
        json.dumps(data)  # schema is pure-JSON
        registry = ComponentTypeRegistry()
        for ctype in types:
            registry.register(ctype)
        loaded = load_system(data, registry)
        assert dump_system(loaded) == data

    def test_loaded_system_builds_and_runs(self):
        desc, types = make_description()
        registry = ComponentTypeRegistry()
        for ctype in types:
            registry.register(ctype)
        loaded = load_system(dump_system(desc), registry)
        system = build_system(loaded, tracer=TelemetryBus())
        system.run(25 * MS)
        assert len(system.tracer.events("rte", "write")) >= 2

    def test_missing_type_rejected(self):
        desc, types = make_description()
        registry = ComponentTypeRegistry()
        registry.register(types[0])  # only Sender
        with pytest.raises(ConfigurationError):
            load_system(dump_system(desc), registry)

    def test_structure_drift_detected(self):
        desc, types = make_description()
        data = dump_system(desc)
        registry = ComponentTypeRegistry()
        # Register a DIFFERENT 'Receiver' lacking the calc port.
        drifted = ComponentType(
            "Receiver", ports=[required_port("in", SPEED_IF)]
        )
        registry.register(types[0])
        registry.register(drifted)
        registry.register(types[2])
        with pytest.raises(ConfigurationError, match="drift"):
            load_system(data, registry)

    def test_bad_schema_version_rejected(self):
        with pytest.raises(ConfigurationError):
            load_system({"schema_version": 99}, ComponentTypeRegistry())

    def test_task_mapping_preserved(self):
        desc, types = make_description()
        registry = ComponentTypeRegistry()
        for ctype in types:
            registry.register(ctype)
        loaded = load_system(dump_system(desc), registry)
        placement = loaded.placement("rcv")
        assert placement.task.priority == 3
        assert placement.task.preemptable is False

    def test_structure_matches_helper(self):
        sender, __, __ = make_types()
        assert structure_matches(sender, dump_component_type(sender))

    def test_registry_conflict_rejected(self):
        registry = ComponentTypeRegistry()
        a = ComponentType("X")
        b = ComponentType("X")
        registry.register(a)
        registry.register(a)  # same object is fine
        with pytest.raises(ConfigurationError):
            registry.register(b)
