"""Unit + property tests for contexts, wire encoding, and messages."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AckMessage,
    AckStatus,
    DataMessage,
    Ecc,
    EccEntry,
    LifecycleMessage,
    LinkKind,
    MessageType,
    Pic,
    Plc,
    PlcLink,
    PortInit,
    UninstallMessage,
    decode,
    decode_external,
    decode_relay,
    encode_external,
    encode_relay,
)
from repro.core.wire import Reader, Writer
from repro.errors import ContextError, PackagingError
from tests.helpers import make_install


class TestWire:
    def test_scalar_roundtrip(self):
        writer = Writer()
        writer.u8(7).u16(300).u32(70000).i32(-5).string("héllo").blob(b"xyz")
        reader = Reader(writer.getvalue())
        assert reader.u8() == 7
        assert reader.u16() == 300
        assert reader.u32() == 70000
        assert reader.i32() == -5
        assert reader.string() == "héllo"
        assert reader.blob() == b"xyz"
        reader.expect_end()

    def test_range_checks(self):
        with pytest.raises(PackagingError):
            Writer().u8(256)
        with pytest.raises(PackagingError):
            Writer().u16(-1)
        with pytest.raises(PackagingError):
            Writer().i32(1 << 31)

    def test_truncation_detected(self):
        with pytest.raises(PackagingError):
            Reader(b"\x01").u16()

    def test_trailing_bytes_detected(self):
        reader = Reader(b"\x01\x02")
        reader.u8()
        with pytest.raises(PackagingError):
            reader.expect_end()

    @given(st.integers(0, 0xFFFF), st.integers(-(2**31), 2**31 - 1))
    def test_relay_roundtrip(self, port_id, value):
        assert decode_relay(encode_relay(port_id, value)) == (port_id, value)

    @given(st.text(max_size=40), st.integers(-(2**31), 2**31 - 1))
    def test_external_roundtrip(self, name, value):
        assert decode_external(encode_external(name, value)) == (name, value)


class TestPic:
    def test_lookups(self):
        pic = Pic((PortInit("a", 5), PortInit("b", 9)))
        assert pic.port_id(0) == 5
        assert pic.local_index(9) == 1
        assert pic.id_by_name("b") == 9
        assert len(pic) == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContextError):
            Pic((PortInit("a", 5), PortInit("b", 5)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ContextError):
            Pic((PortInit("a", 5), PortInit("a", 6)))

    def test_unknown_lookups_raise(self):
        pic = Pic((PortInit("a", 5),))
        with pytest.raises(ContextError):
            pic.port_id(1)
        with pytest.raises(ContextError):
            pic.local_index(99)
        with pytest.raises(ContextError):
            pic.id_by_name("zz")


class TestPlc:
    def test_link_lookup(self):
        plc = Plc((PlcLink(0, LinkKind.VIRTUAL, "V5"),))
        assert plc.link_for(0).target_virtual == "V5"
        assert plc.link_for(3) is None

    def test_duplicate_sources_rejected(self):
        with pytest.raises(ContextError):
            Plc((PlcLink(0, LinkKind.UNCONNECTED), PlcLink(0, LinkKind.UNCONNECTED)))

    def test_virtual_needs_name(self):
        with pytest.raises(ContextError):
            PlcLink(0, LinkKind.VIRTUAL)

    def test_links_to_virtual(self):
        plc = Plc(
            (
                PlcLink(0, LinkKind.VIRTUAL, "V5"),
                PlcLink(1, LinkKind.VIRTUAL, "V6"),
                PlcLink(2, LinkKind.VIRTUAL_REMOTE, "V5", 7),
            )
        )
        assert {l.source_port_id for l in plc.links_to_virtual("V5")} == {0, 2}

    def test_describe_matches_paper_notation(self):
        plc = Plc(
            (
                PlcLink(0, LinkKind.UNCONNECTED),
                PlcLink(2, LinkKind.VIRTUAL_REMOTE, "V0", 0),
                PlcLink(3, LinkKind.VIRTUAL, "V5"),
            )
        )
        assert plc.describe() == "{P0-, P2-V0.P0, P3-V5}"


class TestEcc:
    def _entry(self, name="Wheels", port=0):
        return EccEntry("111.22.33.44:56789", "ECU1", name, port)

    def test_route_lookup(self):
        ecc = Ecc((self._entry("Wheels", 0), self._entry("Speed", 1)))
        assert ecc.route_for("Speed").port_id == 1
        assert ecc.route_for("Brakes") is None

    def test_entry_for_port(self):
        ecc = Ecc((self._entry("Wheels", 0),))
        assert ecc.entry_for_port(0, "ECU1") is not None
        assert ecc.entry_for_port(0, "ECU2") is None

    def test_duplicate_message_endpoint_rejected(self):
        with pytest.raises(ContextError):
            Ecc((self._entry(), self._entry()))

    def test_endpoints_deduplicated(self):
        ecc = Ecc((self._entry("Wheels", 0), self._entry("Speed", 1)))
        assert ecc.endpoints() == ["111.22.33.44:56789"]


# -- hypothesis strategies for context roundtrips ---------------------------

names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=12,
)
port_ids = st.integers(0, 0xFFFF)


@st.composite
def pics(draw):
    count = draw(st.integers(0, 8))
    used_names, used_ids, entries = set(), set(), []
    for __ in range(count):
        name = draw(names.filter(lambda n: n not in used_names))
        pid = draw(port_ids.filter(lambda i: i not in used_ids))
        used_names.add(name)
        used_ids.add(pid)
        entries.append(PortInit(name, pid))
    return Pic(tuple(entries))


@st.composite
def plcs(draw):
    count = draw(st.integers(0, 8))
    used_sources, links = set(), []
    for __ in range(count):
        source = draw(port_ids.filter(lambda i: i not in used_sources))
        used_sources.add(source)
        kind = draw(st.sampled_from(list(LinkKind)))
        virtual = (
            draw(names)
            if kind in (LinkKind.VIRTUAL, LinkKind.VIRTUAL_REMOTE)
            else ""
        )
        target = draw(port_ids) if kind in (
            LinkKind.PLUGIN_PORT, LinkKind.VIRTUAL_REMOTE
        ) else 0
        links.append(PlcLink(source, kind, virtual, target))
    return Plc(tuple(links))


@st.composite
def eccs(draw):
    count = draw(st.integers(0, 4))
    used, entries = set(), []
    for __ in range(count):
        endpoint = draw(names)
        message = draw(
            names.filter(lambda m, e=endpoint: (e, m) not in used)
        )
        used.add((endpoint, message))
        entries.append(EccEntry(endpoint, draw(names), message, draw(port_ids)))
    return Ecc(tuple(entries))


class TestContextEncodingRoundtrips:
    @given(pics())
    @settings(max_examples=60)
    def test_pic_roundtrip(self, pic):
        writer = Writer()
        pic.encode(writer)
        assert Pic.decode(Reader(writer.getvalue())) == pic

    @given(plcs())
    @settings(max_examples=60)
    def test_plc_roundtrip(self, plc):
        writer = Writer()
        plc.encode(writer)
        assert Plc.decode(Reader(writer.getvalue())) == plc

    @given(eccs())
    @settings(max_examples=60)
    def test_ecc_roundtrip(self, ecc):
        writer = Writer()
        ecc.encode(writer)
        assert Ecc.decode(Reader(writer.getvalue())) == ecc


#: Message bodies made of wire-shaped pieces: length-prefixed strings
#: (UTF-8 or not), single bytes and loose bytes, so the decoder gets
#: past the length checks into enum codes, text and context entries.
wire_bodies = st.lists(
    st.one_of(
        st.binary(max_size=6).map(lambda b: len(b).to_bytes(2, "little") + b),
        st.integers(0, 255).map(lambda v: bytes([v])),
        st.binary(max_size=4),
    ),
    max_size=12,
).map(b"".join)


class TestMessages:
    def test_install_roundtrip(self):
        message = make_install(
            "OP", "ECU2", "swc2",
            ports=[("cmd", 0), ("out", 1)],
            links=[],
        )
        decoded = decode(message.encode())
        assert decoded == message

    def test_install_with_ecc_roundtrip(self):
        ecc = Ecc((EccEntry("1.2.3.4:5", "ECU1", "Wheels", 0),))
        message = make_install(
            "COM", "ECU1", "ecm", ports=[("in", 0)], links=[], ecc=ecc
        )
        assert decode(message.encode()) == message

    def test_ack_roundtrip(self):
        ack = AckMessage(
            "OP", "swc2", MessageType.INSTALL, AckStatus.OUT_OF_MEMORY, "boom"
        )
        decoded = decode(ack.encode())
        assert decoded == ack
        assert not decoded.ok

    def test_uninstall_roundtrip(self):
        message = UninstallMessage("OP", "ECU2", "swc2")
        assert decode(message.encode()) == message

    def test_lifecycle_roundtrip(self):
        for op in (MessageType.START, MessageType.STOP):
            message = LifecycleMessage(op, "OP", "ECU2", "swc2")
            assert decode(message.encode()) == message

    def test_lifecycle_bad_op_rejected(self):
        with pytest.raises(PackagingError):
            LifecycleMessage(MessageType.ACK, "OP", "ECU2", "swc2")

    def test_data_roundtrip(self):
        message = DataMessage("ECU2", "swc2", 3, -1234)
        assert decode(message.encode()) == message

    def test_unknown_type_rejected(self):
        with pytest.raises(PackagingError):
            decode(b"\xee\x01")

    def test_bad_version_rejected(self):
        raw = bytearray(DataMessage("e", "s", 0, 0).encode())
        raw[1] = 99
        with pytest.raises(PackagingError):
            decode(bytes(raw))

    def test_truncated_install_rejected(self):
        raw = make_install(
            "OP", "ECU2", "swc2", ports=[("a", 0)], links=[]
        ).encode()
        with pytest.raises(PackagingError):
            decode(raw[: len(raw) // 2])

    @given(st.binary(max_size=64))
    @settings(max_examples=100)
    def test_decode_never_crashes_unexpectedly(self, raw):
        try:
            decode(raw)
        except PackagingError:
            pass  # the only acceptable failure mode

    @pytest.mark.parametrize("raw", [
        # An ACK whose acknowledged op is 99, no MessageType.
        bytes([1, 1, 0, 0, 0, 0, 99, 0, 0, 0]),
        # An ACK whose plug-in name is not UTF-8.
        bytes([1, 1, 2, 0]) + b"\xff\xfe",
        # An INSTALL whose one PIC entry has an empty port name.
        Writer().u8(0).u8(1).string("OP").string("1.0").string("ECU2")
        .string("swc2").u16(1).string("").u16(0).getvalue(),
    ], ids=["bad-enum", "bad-utf8", "bad-context"])
    def test_malformed_body_raises_packaging_error(self, raw):
        with pytest.raises(PackagingError, match="malformed message"):
            decode(raw)

    @pytest.mark.parametrize("msg_type", list(MessageType), ids=str)
    @given(body=wire_bodies)
    @settings(max_examples=100)
    def test_any_body_behind_a_valid_header_decodes_or_is_rejected(
        self, msg_type, body
    ):
        try:
            decode(bytes([msg_type.value, 1]) + body)
        except PackagingError:
            pass  # the only acceptable failure mode
