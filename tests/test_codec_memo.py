"""The codec memos are sound: every management message is a value.

``decode`` hands every receiver of equal bytes one shared message, and
``AckMessage.encode`` returns one shared byte string per distinct
acknowledgement.  That is safe only while each message type, and each
type a message nests, is a frozen dataclass whose containers are
tuples; the first test fails as soon as one is not.
"""

import dataclasses
import enum
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages as msg
from repro.core.context import Ecc, EccEntry, Pic, Plc, PlcLink, PortInit
from repro.errors import PackagingError
from tests.test_core_context import eccs, names, pics, plcs, port_ids

MESSAGE_TYPES = typing.get_args(msg.Message)
NESTED_TYPES = (Pic, Plc, Ecc, PortInit, PlcLink, EccEntry, msg.PluginHealth)
VALUE_TYPES = MESSAGE_TYPES + NESTED_TYPES


def _immutable(hint) -> bool:
    """Whether a field annotation admits only immutable values."""
    if typing.get_origin(hint) is tuple:
        return all(
            _immutable(arg) for arg in typing.get_args(hint) if arg is not ...
        )
    if typing.get_origin(hint) is not None:  # list, dict, set, Union, ...
        return False
    if hint in (str, int, bytes, bool) or hint in VALUE_TYPES:
        return True
    return isinstance(hint, type) and issubclass(hint, enum.Enum)


class TestMessagesAreValues:
    @pytest.mark.parametrize(
        "cls", VALUE_TYPES, ids=[cls.__name__ for cls in VALUE_TYPES]
    )
    def test_frozen_dataclass_of_immutable_fields(self, cls):
        assert dataclasses.is_dataclass(cls)
        assert cls.__dataclass_params__.frozen
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            assert _immutable(hints[field.name]), (
                f"{cls.__name__}.{field.name}: {hints[field.name]}"
            )

    def test_checker_refuses_mutable_containers(self):
        assert not _immutable(list[int])
        assert not _immutable(dict[str, int])
        assert not _immutable(tuple[list[int], ...])
        assert not _immutable(bytearray)


# -- generated messages of every type ----------------------------------------

i32s = st.integers(-(1 << 31), (1 << 31) - 1)
u32s = st.integers(0, 0xFFFFFFFF)
texts = st.text(max_size=12)

installs = st.builds(
    msg.InstallMessage, names, texts, names, names, pics(), plcs(), eccs(),
    st.binary(max_size=64),
)
acks = st.builds(
    msg.AckMessage, names, names, st.sampled_from(msg.MessageType),
    st.sampled_from(msg.AckStatus), texts,
)
uninstalls = st.builds(msg.UninstallMessage, names, names, names)
lifecycles = st.builds(
    msg.LifecycleMessage,
    st.sampled_from((msg.MessageType.START, msg.MessageType.STOP)),
    names, names, names,
)
datas = st.builds(msg.DataMessage, names, names, port_ids, i32s)
diags = st.builds(
    msg.DiagMessage, names, names, u32s, u32s,
    st.lists(
        st.builds(msg.PluginHealth, names, texts, u32s, u32s, u32s),
        max_size=4,
    ).map(tuple),
)
messages = st.one_of(installs, acks, uninstalls, lifecycles, datas, diags)


class TestMemoizedCodec:
    @given(messages)
    @settings(max_examples=150)
    def test_roundtrip_on_first_and_repeated_calls(self, message):
        raw = message.encode()
        assert message.encode() == raw
        first = msg.decode(raw)
        assert first == message
        # A repeat, and a copy of the bytes, get the same message back.
        assert msg.decode(raw) == message
        assert msg.decode(bytes(bytearray(raw))) == message

    @given(acks)
    def test_equal_acks_share_one_encoding(self, ack):
        twin = dataclasses.replace(ack)
        assert twin is not ack
        assert twin.encode() is ack.encode()

    @given(messages, st.integers(0, 2**16))
    def test_truncated_input_raises_on_every_call(self, message, cut):
        raw = message.encode()
        truncated = raw[: cut % len(raw)]
        for __ in range(3):
            with pytest.raises(PackagingError):
                msg.decode(truncated)

    @given(messages, st.binary(min_size=1, max_size=8))
    def test_trailing_bytes_raise_on_every_call(self, message, tail):
        raw = message.encode() + tail
        for __ in range(3):
            with pytest.raises(PackagingError, match="trailing bytes"):
                msg.decode(raw)
