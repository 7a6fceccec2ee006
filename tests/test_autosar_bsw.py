"""Unit tests for BSW: memory pools, TP segmentation, COM over CAN."""

import pytest

from repro.autosar.bsw import (
    ComStack,
    MemoryPool,
    Reassembler,
    SignalConfig,
    roundtrip,
    segment,
)
from repro.autosar.types import BYTES, UINT16
from repro.can import CanBus, CanController
from repro.errors import ComError, MemoryPoolError
from repro.sim import Simulator


class TestMemoryPool:
    def test_allocate_and_release(self):
        pool = MemoryPool("p", block_size=64, block_count=10)
        alloc = pool.allocate(100)  # 2 blocks
        assert alloc.blocks == 2
        assert pool.used_blocks == 2
        pool.release(alloc)
        assert pool.used_blocks == 0

    def test_zero_byte_allocation_takes_one_block(self):
        pool = MemoryPool("p", 64, 10)
        assert pool.allocate(0).blocks == 1

    def test_exhaustion_raises(self):
        pool = MemoryPool("p", 64, 2)
        pool.allocate(128)
        with pytest.raises(MemoryPoolError):
            pool.allocate(1)
        assert pool.failed_allocations == 1

    def test_can_allocate_probe(self):
        pool = MemoryPool("p", 64, 2)
        assert pool.can_allocate(128)
        assert not pool.can_allocate(129)

    def test_double_free_rejected(self):
        pool = MemoryPool("p", 64, 4)
        alloc = pool.allocate(10)
        pool.release(alloc)
        with pytest.raises(MemoryPoolError):
            pool.release(alloc)

    def test_foreign_allocation_rejected(self):
        a, b = MemoryPool("a", 64, 4), MemoryPool("b", 64, 4)
        alloc = a.allocate(10)
        with pytest.raises(MemoryPoolError):
            b.release(alloc)

    def test_peak_tracking(self):
        pool = MemoryPool("p", 64, 10)
        allocs = [pool.allocate(64) for __ in range(5)]
        for alloc in allocs:
            pool.release(alloc)
        assert pool.peak_used == 5

    def test_negative_size_rejected(self):
        with pytest.raises(MemoryPoolError):
            MemoryPool("p", 64, 4).allocate(-1)


class TestTp:
    def test_single_frame(self):
        segs = segment(b"abc")
        assert len(segs) == 1
        assert segs[0][0] == 0x03

    def test_empty_payload(self):
        assert roundtrip(b"") == b""

    def test_seven_byte_boundary(self):
        assert roundtrip(b"1234567") == b"1234567"
        assert roundtrip(b"12345678") == b"12345678"

    @pytest.mark.parametrize("size", [8, 100, 1000, 5000, 40_000])
    def test_large_roundtrip(self, size):
        payload = bytes(i % 251 for i in range(size))
        assert roundtrip(payload) == payload

    def test_segment_sizes_fit_can(self):
        for seg in segment(bytes(10_000)):
            assert len(seg) <= 8

    def test_out_of_order_aborts(self):
        payload = bytes(100)
        segs = segment(payload)
        reassembler = Reassembler()
        reassembler.feed(segs[0])
        reassembler.feed(segs[2])  # skip segs[1]
        assert reassembler.aborted == 1
        assert not reassembler.in_progress

    def test_stray_continuation_dropped(self):
        reassembler = Reassembler()
        assert reassembler.feed(bytes([0x21]) + bytes(7)) is None
        assert reassembler.aborted == 1

    def test_new_first_frame_aborts_previous(self):
        segs = segment(bytes(100))
        reassembler = Reassembler()
        reassembler.feed(segs[0])
        reassembler.feed(segs[0])  # restart
        assert reassembler.aborted == 1

    def test_unknown_pci_rejected(self):
        with pytest.raises(ComError):
            Reassembler().feed(bytes([0xF0]))

    def test_empty_segment_rejected(self):
        with pytest.raises(ComError):
            Reassembler().feed(b"")


def build_com_pair():
    """Two ECUs' COM stacks joined by one CAN bus."""
    sim = Simulator()
    bus = CanBus(sim)
    stacks = []
    for name in ("ecu1", "ecu2"):
        controller = CanController(name)
        bus.attach(controller)
        com = ComStack(controller)
        stacks.append((com, com.canif))
    return sim, bus, stacks


class TestComOverCan:
    def test_fixed_signal_end_to_end(self):
        sim, bus, [(com1, canif1), (com2, canif2)] = build_com_pair()
        config = SignalConfig("speed", 0, UINT16, 0)
        com1.configure_tx_signal(config)
        canif1.configure_tx(0, 0x100)
        com2.configure_rx_signal(config)
        canif2.configure_rx(0x100, 0)
        got = []
        com2.subscribe(0, got.append)
        com1.send_signal(0, 777)
        sim.run()
        assert got == [777]

    def test_bytes_signal_segmented_end_to_end(self):
        sim, bus, [(com1, canif1), (com2, canif2)] = build_com_pair()
        config = SignalConfig("blob", 1, BYTES, 1)
        com1.configure_tx_signal(config)
        canif1.configure_tx(1, 0x200)
        com2.configure_rx_signal(config)
        canif2.configure_rx(0x200, 1)
        got = []
        com2.subscribe(1, got.append)
        payload = bytes(i % 256 for i in range(3000))
        com1.send_signal(1, payload)
        sim.run()
        assert got == [payload]
        assert bus.frames_transferred > 400  # really was segmented

    def test_unknown_tx_signal_rejected(self):
        __, __, [(com1, _), __] = build_com_pair()
        with pytest.raises(ComError):
            com1.send_signal(99, 1)

    def test_duplicate_signal_config_rejected(self):
        __, __, [(com1, _), __] = build_com_pair()
        config = SignalConfig("s", 0, UINT16, 0)
        com1.configure_tx_signal(config)
        with pytest.raises(ComError):
            com1.configure_tx_signal(config)

    def test_missing_canif_route_rejected(self):
        __, __, [(com1, _), __] = build_com_pair()
        com1.configure_tx_signal(SignalConfig("s", 0, UINT16, 0))
        with pytest.raises(ComError):
            com1.send_signal(0, 5)

    def test_counters(self):
        sim, __, [(com1, canif1), (com2, canif2)] = build_com_pair()
        config = SignalConfig("speed", 0, UINT16, 0)
        com1.configure_tx_signal(config)
        canif1.configure_tx(0, 0x100)
        com2.configure_rx_signal(config)
        canif2.configure_rx(0x100, 0)
        for v in range(5):
            com1.send_signal(0, v)
        sim.run()
        assert com1.signals_sent == 5
        assert com2.signals_received == 5

    def test_two_signals_independent(self):
        sim, __, [(com1, canif1), (com2, canif2)] = build_com_pair()
        a = SignalConfig("a", 0, UINT16, 0)
        b = SignalConfig("b", 1, UINT16, 1)
        for config, can_id in ((a, 0x100), (b, 0x101)):
            com1.configure_tx_signal(config)
            canif1.configure_tx(config.pdu_id, can_id)
            com2.configure_rx_signal(config)
            canif2.configure_rx(can_id, config.pdu_id)
        got_a, got_b = [], []
        com2.subscribe(0, got_a.append)
        com2.subscribe(1, got_b.append)
        com1.send_signal(0, 10)
        com1.send_signal(1, 20)
        sim.run()
        assert got_a == [10]
        assert got_b == [20]
