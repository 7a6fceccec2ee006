"""Unit tests for AUTOSAR data types, interfaces, and ports."""

import pytest

from repro.autosar import (
    BOOL,
    BYTES,
    INT8,
    INT16,
    UINT8,
    UINT16,
    BytesType,
    DataElement,
    IntegerType,
    SenderReceiverInterface,
    provided_port,
    required_port,
)
from repro.autosar.ports import PortInstance
from repro.errors import ConfigurationError, PortError


class TestIntegerType:
    def test_encode_decode_roundtrip(self):
        for t, value in [(UINT8, 200), (UINT16, 40000), (INT8, -100), (INT16, -30000)]:
            assert t.decode(t.encode(value)) == value

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            UINT8.encode(256)
        with pytest.raises(ValueError):
            UINT8.encode(-1)
        with pytest.raises(ValueError):
            INT8.encode(128)

    def test_bool_is_not_int(self):
        with pytest.raises(ValueError):
            UINT8.validate(True)

    def test_decode_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            UINT16.decode(b"\x01")

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError):
            IntegerType("weird", 12, signed=False)

    def test_initial_value(self):
        assert UINT16.initial_value() == 0


class TestBoolAndBytes:
    def test_bool_roundtrip(self):
        assert BOOL.decode(BOOL.encode(True)) is True
        assert BOOL.decode(BOOL.encode(False)) is False

    def test_bool_requires_bool(self):
        with pytest.raises(ValueError):
            BOOL.encode(1)

    def test_bytes_roundtrip(self):
        payload = bytes(range(10))
        assert BYTES.decode(BYTES.encode(payload)) == payload

    def test_bytes_max_length(self):
        small = BytesType("small", max_length=4)
        with pytest.raises(ValueError):
            small.encode(b"12345")

    def test_bytes_not_fixed_size(self):
        assert not BYTES.fixed_size


def sr_iface(name="Iface", queued=False):
    return SenderReceiverInterface(
        name, [DataElement("speed", UINT16, queued=queued)]
    )


class TestInterfaces:
    def test_element_lookup(self):
        iface = sr_iface()
        assert iface.element("speed").dtype is UINT16
        with pytest.raises(ConfigurationError):
            iface.element("missing")

    def test_duplicate_elements_rejected(self):
        with pytest.raises(ConfigurationError):
            SenderReceiverInterface(
                "X", [DataElement("a", UINT8), DataElement("a", UINT8)]
            )

    def test_empty_interface_rejected(self):
        with pytest.raises(ConfigurationError):
            SenderReceiverInterface("X", [])

    def test_sr_compatibility(self):
        assert sr_iface("A").compatible_with(sr_iface("B"))

    def test_sr_incompatible_type(self):
        other = SenderReceiverInterface("B", [DataElement("speed", UINT8)])
        assert not sr_iface().compatible_with(other)

    def test_sr_incompatible_queueing(self):
        assert not sr_iface(queued=False).compatible_with(sr_iface("B", queued=True))


class TestPorts:
    def test_port_direction_predicates(self):
        p = provided_port("out", sr_iface())
        r = required_port("in", sr_iface())
        assert p.is_provided and not p.is_required
        assert r.is_required and not r.is_provided

    def test_required_port_has_buffers(self):
        inst = PortInstance("comp", required_port("in", sr_iface()))
        assert inst.pending("speed") == 0
        inst.deliver("speed", 55)
        assert inst.pending("speed") == 1
        assert inst.read_latest("speed") == 55
        assert inst.pending("speed") == 0

    def test_last_is_best_overwrites(self):
        inst = PortInstance("comp", required_port("in", sr_iface()))
        inst.deliver("speed", 1)
        inst.deliver("speed", 2)
        assert inst.read_latest("speed") == 2

    def test_queued_semantics(self):
        inst = PortInstance("comp", required_port("in", sr_iface(queued=True)))
        inst.deliver("speed", 1)
        inst.deliver("speed", 2)
        assert inst.receive("speed") == 1
        assert inst.receive("speed") == 2
        with pytest.raises(PortError):
            inst.receive("speed")

    def test_queue_overflow_counts(self):
        iface = SenderReceiverInterface(
            "Q", [DataElement("e", UINT8, queued=True, queue_length=2)]
        )
        inst = PortInstance("comp", required_port("in", iface))
        assert inst.deliver("e", 1)
        assert inst.deliver("e", 2)
        assert not inst.deliver("e", 3)
        assert inst.overflows == 1

    def test_wrong_read_style_rejected(self):
        queued = PortInstance("c", required_port("in", sr_iface(queued=True)))
        with pytest.raises(PortError):
            queued.read_latest("speed")
        latest = PortInstance("c", required_port("in", sr_iface()))
        with pytest.raises(PortError):
            latest.receive("speed")

    def test_provided_port_has_no_buffers(self):
        inst = PortInstance("comp", provided_port("out", sr_iface()))
        with pytest.raises(PortError):
            inst.deliver("speed", 1)

    def test_type_validation_on_deliver(self):
        inst = PortInstance("comp", required_port("in", sr_iface()))
        with pytest.raises(ValueError):
            inst.deliver("speed", "fast")

    def test_full_name(self):
        inst = PortInstance("comp", required_port("in", sr_iface()))
        assert inst.full_name == "comp.in"
