"""Transport-protocol segmentation for payloads larger than one frame.

Classical CAN carries at most 8 data bytes, but the dynamic component
model ships multi-kilobyte installation packages between ECUs (ECM to
plug-in SW-C over type I ports).  This module provides an ISO-TP-style
segmentation scheme adapted for simulation:

* **Single frame** — ``[0x0N][data…]`` with N = payload length <= 7.
* **First frame**  — ``[0x10][len2][len1][len0][4 bytes data]`` carrying a
  24-bit total length (supports payloads up to 16 MiB).
* **Consecutive**  — ``[0x2S][7 bytes data]`` with S a 4-bit wrapping
  sequence number starting at 1.

Flow control frames are omitted (the receiver is assumed to keep up);
this matches the simulation's lossless in-vehicle bus.  Out-of-order or
missing consecutive frames abort the reassembly, which surfaces as a
dropped message — exercised by the failure-injection tests.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ComError

_SF = 0x00
_FF = 0x10
_CF = 0x20
MAX_TP_PAYLOAD = (1 << 24) - 1


def segment(payload: bytes) -> list[bytes]:
    """Split ``payload`` into CAN-frame-sized TP segments."""
    if len(payload) > MAX_TP_PAYLOAD:
        raise ComError(
            f"payload of {len(payload)} bytes exceeds TP limit {MAX_TP_PAYLOAD}"
        )
    if len(payload) <= 7:
        return [bytes([_SF | len(payload)]) + payload]
    total = len(payload)
    first = bytes([_FF, (total >> 16) & 0xFF, (total >> 8) & 0xFF, total & 0xFF])
    segments = [first + payload[:4]]
    offset = 4
    seq = 1
    while offset < total:
        chunk = payload[offset : offset + 7]
        segments.append(bytes([_CF | (seq & 0x0F)]) + chunk)
        offset += 7
        seq = (seq + 1) & 0x0F
    return segments


class Reassembler:
    """Stateful receive side of the TP protocol (one per channel)."""

    def __init__(self) -> None:
        self._expected_len: Optional[int] = None
        self._buffer = bytearray()
        self._next_seq = 1
        self.aborted = 0

    @property
    def in_progress(self) -> bool:
        return self._expected_len is not None

    def reset(self) -> None:
        """Abort any in-progress reassembly."""
        if self.in_progress:
            self.aborted += 1
        self._expected_len = None
        self._buffer = bytearray()
        self._next_seq = 1

    def feed(self, segment_bytes: bytes) -> Optional[bytes]:
        """Consume one segment; returns the payload when complete."""
        if not segment_bytes:
            raise ComError("empty TP segment")
        pci = segment_bytes[0] & 0xF0
        if (segment_bytes[0] & 0xF0) == _SF and segment_bytes[0] <= 0x07:
            if self.in_progress:
                self.reset()
            length = segment_bytes[0] & 0x0F
            if len(segment_bytes) - 1 < length:
                raise ComError("single frame shorter than declared length")
            return bytes(segment_bytes[1 : 1 + length])
        if pci == _FF:
            if self.in_progress:
                self.reset()
            if len(segment_bytes) < 4:
                raise ComError("truncated first frame")
            self._expected_len = (
                (segment_bytes[1] << 16)
                | (segment_bytes[2] << 8)
                | segment_bytes[3]
            )
            self._buffer = bytearray(segment_bytes[4:])
            self._next_seq = 1
            return self._maybe_complete()
        if pci == _CF:
            if not self.in_progress:
                # Stray continuation (e.g. we joined mid-message): drop.
                self.aborted += 1
                return None
            seq = segment_bytes[0] & 0x0F
            if seq != self._next_seq:
                self.reset()
                return None
            self._next_seq = (self._next_seq + 1) & 0x0F
            self._buffer.extend(segment_bytes[1:])
            return self._maybe_complete()
        raise ComError(f"unknown TP PCI byte {segment_bytes[0]:#04x}")

    def _maybe_complete(self) -> Optional[bytes]:
        assert self._expected_len is not None
        if len(self._buffer) < self._expected_len:
            return None
        payload = bytes(self._buffer[: self._expected_len])
        self._expected_len = None
        self._buffer = bytearray()
        self._next_seq = 1
        return payload


def roundtrip(payload: bytes) -> bytes:
    """Segment then reassemble (testing/diagnostic helper)."""
    reassembler = Reassembler()
    result: Optional[bytes] = None
    for seg in segment(payload):
        result = reassembler.feed(seg)
    if result is None:
        raise ComError("reassembly did not complete")
    return result


__all__ = ["segment", "Reassembler", "roundtrip", "MAX_TP_PAYLOAD"]
