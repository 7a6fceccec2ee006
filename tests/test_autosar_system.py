"""Integration tests: system description, builder, RTE routing, events."""

import pytest

from repro.autosar import (
    BYTES,
    UINT16,
    ComponentType,
    DataElement,
    DataReceivedEvent,
    InitEvent,
    Runnable,
    SenderReceiverInterface,
    SystemDescription,
    TimingEvent,
    build_system,
    provided_port,
    required_port,
)
from repro.errors import ConfigurationError
from repro.sim import MS
from repro.telemetry import TelemetryBus

SPEED_IF = SenderReceiverInterface("SpeedIf", [DataElement("speed", UINT16)])
BLOB_IF = SenderReceiverInterface("BlobIf", [DataElement("blob", BYTES, queued=True)])


def make_sender(name="Sender", period_us=10_000):
    def produce(instance):
        value = instance.state.setdefault("next", 0)
        instance.write("out", "speed", value)
        instance.state["next"] = value + 1

    return ComponentType(
        name,
        ports=[provided_port("out", SPEED_IF)],
        runnables=[Runnable("produce", produce, execution_time_us=20)],
        events=[TimingEvent("produce", period_us=period_us)],
    )


def make_receiver(name="Receiver"):
    def consume(instance):
        instance.state.setdefault("got", []).append(
            instance.read("in", "speed")
        )

    return ComponentType(
        name,
        ports=[required_port("in", SPEED_IF)],
        runnables=[Runnable("consume", consume, execution_time_us=20)],
        events=[DataReceivedEvent("consume", port="in", element="speed")],
    )


class TestDescriptionValidation:
    def test_duplicate_ecu_rejected(self):
        desc = SystemDescription()
        desc.add_ecu("e1")
        with pytest.raises(ConfigurationError):
            desc.add_ecu("e1")

    def test_unknown_ecu_rejected(self):
        desc = SystemDescription()
        with pytest.raises(ConfigurationError):
            desc.add_component("c", make_sender(), "ghost")

    def test_duplicate_instance_rejected(self):
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_component("c", make_sender(), "e1")
        with pytest.raises(ConfigurationError):
            desc.add_component("c", make_receiver(), "e1")

    def test_connector_direction_enforced(self):
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_component("s", make_sender(), "e1")
        desc.add_component("r", make_receiver(), "e1")
        with pytest.raises(ConfigurationError):
            desc.connect("r", "in", "s", "out")

    def test_connector_interface_compat_enforced(self):
        desc = SystemDescription()
        desc.add_ecu("e1")
        blob_sink = ComponentType("Sink", ports=[required_port("in", BLOB_IF)])
        desc.add_component("s", make_sender(), "e1")
        desc.add_component("r", blob_sink, "e1")
        with pytest.raises(ConfigurationError):
            desc.connect("s", "out", "r", "in")

    def test_multiple_writers_rejected(self):
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_component("s1", make_sender("S1"), "e1")
        desc.add_component("s2", make_sender("S2"), "e1")
        desc.add_component("r", make_receiver(), "e1")
        desc.connect("s1", "out", "r", "in")
        desc.connect("s2", "out", "r", "in")
        with pytest.raises(ConfigurationError):
            desc.validate()

    def test_empty_system_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemDescription().validate()


class TestLocalRouting:
    def test_sender_to_receiver_same_ecu(self):
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_component("s", make_sender(), "e1")
        desc.add_component("r", make_receiver(), "e1")
        desc.connect("s", "out", "r", "in")
        system = build_system(desc)
        system.run(55 * MS)
        got = system.instance("r").state["got"]
        assert got == [0, 1, 2, 3, 4, 5]

    def test_fanout_to_two_receivers(self):
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_component("s", make_sender(), "e1")
        desc.add_component("r1", make_receiver("R1"), "e1")
        desc.add_component("r2", make_receiver("R2"), "e1")
        desc.connect("s", "out", "r1", "in")
        desc.connect("s", "out", "r2", "in")
        system = build_system(desc)
        system.run(25 * MS)
        assert system.instance("r1").state["got"] == [0, 1, 2]
        assert system.instance("r2").state["got"] == [0, 1, 2]

    def test_write_on_required_port_rejected(self):
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_component("r", make_receiver(), "e1")
        system = build_system(desc)
        system.boot_all()
        from repro.errors import PortError

        with pytest.raises(PortError):
            system.instance("r").write("in", "speed", 5)


class TestCrossEcuRouting:
    def _two_ecu_system(self):
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_ecu("e2")
        desc.add_component("s", make_sender(), "e1")
        desc.add_component("r", make_receiver(), "e2")
        desc.connect("s", "out", "r", "in")
        return desc

    def test_values_cross_the_bus(self):
        system = build_system(self._two_ecu_system())
        system.run(32 * MS)
        assert system.instance("r").state["got"] == [0, 1, 2, 3]
        assert system.bus.frames_transferred == 4

    def test_delivery_is_delayed_by_bus(self):
        system = build_system(self._two_ecu_system(), tracer=TelemetryBus())
        system.run(1 * MS)
        # Sent at t=20us (end of produce runnable); CAN frame takes
        # ~100-130us at 500kbit; receive task runs 20us after delivery.
        tracer = system.tracer
        writes = tracer.events("rte", "write")
        delivers = tracer.events("rte", "deliver")
        assert len(writes) == 1 and len(delivers) == 1
        assert delivers[0].time_us > writes[0].time_us

    def test_signal_allocation_recorded(self):
        system = build_system(self._two_ecu_system())
        assert ("s", "out", "r", "in", "speed") in system.signal_allocation

    def test_bytes_payload_cross_ecu(self):
        def send_blob(instance):
            instance.write("out", "blob", b"x" * 500)

        producer = ComponentType(
            "BlobProducer",
            ports=[provided_port("out", BLOB_IF)],
            runnables=[Runnable("send", send_blob)],
            events=[InitEvent("send")],
        )

        def got_blob(instance):
            instance.state.setdefault("blobs", []).append(
                instance.receive("in", "blob")
            )

        consumer = ComponentType(
            "BlobConsumer",
            ports=[required_port("in", BLOB_IF)],
            runnables=[Runnable("recv", got_blob)],
            events=[DataReceivedEvent("recv", port="in", element="blob")],
        )
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_ecu("e2")
        desc.add_component("p", producer, "e1")
        desc.add_component("c", consumer, "e2")
        desc.connect("p", "out", "c", "in")
        system = build_system(desc)
        system.run(100 * MS)
        assert system.instance("c").state["blobs"] == [b"x" * 500]


class TestBootSemantics:
    def test_init_event_runs_once_at_boot(self):
        counter = {"n": 0}

        def init_body(instance):
            counter["n"] += 1

        ctype = ComponentType(
            "Init",
            runnables=[Runnable("init", init_body)],
            events=[InitEvent("init")],
        )
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_component("c", ctype, "e1")
        system = build_system(desc)
        system.run(10 * MS)
        system.boot_all()  # idempotent
        system.sim.run_for(10 * MS)
        assert counter["n"] == 1

    def test_timing_event_offset(self):
        times = []
        ctype = ComponentType(
            "T",
            runnables=[Runnable("tick", lambda i: times.append(True), execution_time_us=0)],
            events=[TimingEvent("tick", period_us=10 * MS, offset_us=3 * MS)],
        )
        desc = SystemDescription()
        desc.add_ecu("e1")
        desc.add_component("c", ctype, "e1")
        system = build_system(desc)
        system.run(25 * MS)
        assert len(times) == 3  # 3ms, 13ms, 23ms
