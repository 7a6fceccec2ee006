"""Unit tests for the CAN bus simulation."""

import pytest

from repro.can import CanBus, CanController, CanFrame, MAX_DLC, MAX_STD_ID
from repro.errors import CanError, CanFrameError
from repro.sim import Simulator
from repro.telemetry import TelemetryBus


def make_bus(node_names, bitrate=500_000):
    sim = Simulator()
    bus = CanBus(sim, bitrate=bitrate)
    nodes = {}
    for name in node_names:
        controller = CanController(name)
        bus.attach(controller)
        nodes[name] = controller
    return sim, bus, nodes


class TestCanFrame:
    def test_valid_frame(self):
        frame = CanFrame(0x123, b"\x01\x02")
        assert frame.dlc == 2

    def test_id_out_of_range_rejected(self):
        with pytest.raises(CanFrameError):
            CanFrame(MAX_STD_ID + 1)
        with pytest.raises(CanFrameError):
            CanFrame(-1)

    def test_payload_too_long_rejected(self):
        with pytest.raises(CanFrameError):
            CanFrame(1, bytes(MAX_DLC + 1))

    def test_bit_length_grows_with_payload(self):
        assert CanFrame(1, b"").bit_length() < CanFrame(1, bytes(8)).bit_length()

    def test_bit_length_reasonable_for_full_frame(self):
        # A classical full frame is roughly 108-135 bits with stuffing.
        bits = CanFrame(1, bytes(8)).bit_length()
        assert 108 <= bits <= 140

    def test_arbitration_predicate(self):
        assert CanFrame(0x10).wins_arbitration_over(CanFrame(0x20))
        assert not CanFrame(0x20).wins_arbitration_over(CanFrame(0x10))


class TestCanBus:
    def test_frame_delivered_to_other_nodes_not_sender(self):
        sim, bus, nodes = make_bus(["a", "b", "c"])
        got_b, got_c, got_a = [], [], []
        nodes["b"].subscribe(0x100, got_b.append)
        nodes["c"].subscribe(0x100, got_c.append)
        nodes["a"].subscribe(0x100, got_a.append)
        nodes["a"].transmit(CanFrame(0x100, b"\x05"))
        sim.run()
        assert len(got_b) == 1 and len(got_c) == 1
        assert got_a == []  # no self-reception

    def test_lower_id_wins_arbitration(self):
        sim, bus, nodes = make_bus(["a", "b", "sink"])
        order = []
        nodes["sink"].subscribe_all(lambda f: order.append(f.can_id))
        # Occupy the bus first so both contenders arbitrate together.
        nodes["a"].transmit(CanFrame(0x300))
        nodes["a"].transmit(CanFrame(0x200))
        nodes["b"].transmit(CanFrame(0x100))
        sim.run()
        assert order == [0x300, 0x100, 0x200]

    def test_frame_duration_matches_bitrate(self):
        sim, bus, nodes = make_bus(["a", "b"], bitrate=125_000)
        frame = CanFrame(0x1, bytes(8))
        expected = (frame.bit_length() * 1_000_000) // 125_000
        times = []
        nodes["b"].subscribe(0x1, lambda f: times.append(sim.now))
        nodes["a"].transmit(frame)
        sim.run()
        assert times == [expected]

    def test_throughput_counters(self):
        sim, bus, nodes = make_bus(["a", "b"])
        for __ in range(5):
            nodes["a"].transmit(CanFrame(0x10, b"\x00"))
        sim.run()
        assert bus.frames_transferred == 5
        assert bus.bits_transferred == 5 * CanFrame(0x10, b"\x00").bit_length()
        assert nodes["a"].tx_count == 5
        assert nodes["b"].rx_count == 0  # no subscriber -> not counted

    def test_invalid_bitrate_rejected(self):
        with pytest.raises(CanError):
            CanBus(Simulator(), bitrate=0)

    def test_attach_to_second_bus_rejected(self):
        sim = Simulator()
        bus1, bus2 = CanBus(sim, "can0"), CanBus(sim, "can1")
        controller = CanController("n")
        bus1.attach(controller)
        with pytest.raises(CanError):
            bus2.attach(controller)

    def test_attach_same_bus_idempotent(self):
        sim = Simulator()
        bus = CanBus(sim)
        controller = CanController("n")
        bus.attach(controller)
        bus.attach(controller)
        assert bus.controllers.count(controller) == 1

    def test_tracer_records_tx(self):
        sim = Simulator()
        tracer = TelemetryBus()
        bus = CanBus(sim, tracer=tracer)
        a, b = CanController("a"), CanController("b")
        bus.attach(a)
        bus.attach(b)
        a.transmit(CanFrame(0x55))
        sim.run()
        assert len(tracer.events("can", "tx_start", can_id=0x55)) == 1
        assert len(tracer.events("can", "tx_done")) == 1


class TestCanController:
    def test_transmit_without_bus_rejected(self):
        with pytest.raises(CanError):
            CanController("lonely").transmit(CanFrame(1))

    def test_tx_queue_priority_order(self):
        controller = CanController("n")
        controller.bus = CanBus(Simulator())  # silence notify path
        controller.bus.attach(controller)
        controller._tx.clear()  # bypass bus arbitration for queue test
        import heapq

        for can_id in (0x300, 0x100, 0x200):
            heapq.heappush(
                controller._tx, (can_id, can_id, CanFrame(can_id))
            )
        assert controller.pop_tx().can_id == 0x100
        assert controller.pop_tx().can_id == 0x200
        assert controller.pop_tx().can_id == 0x300

    def test_queue_overrun_returns_false(self):
        sim = Simulator()
        bus = CanBus(sim)
        controller = CanController("n", tx_queue_depth=2)
        bus.attach(controller)
        # The first transmit starts immediately and leaves the queue; fill
        # the queue behind it.
        assert controller.transmit(CanFrame(1))
        assert controller.transmit(CanFrame(2))
        assert controller.transmit(CanFrame(3))
        assert controller.transmit(CanFrame(4)) is False
        assert controller.tx_overruns == 1

    def test_subscribe_specific_id_filters(self):
        sim, bus, nodes = make_bus(["a", "b"])
        got = []
        nodes["b"].subscribe(0x7, got.append)
        nodes["a"].transmit(CanFrame(0x7))
        nodes["a"].transmit(CanFrame(0x8))
        sim.run()
        assert [f.can_id for f in got] == [0x7]

    def test_multiple_handlers_same_id(self):
        sim, bus, nodes = make_bus(["a", "b"])
        got1, got2 = [], []
        nodes["b"].subscribe(0x7, got1.append)
        nodes["b"].subscribe(0x7, got2.append)
        nodes["a"].transmit(CanFrame(0x7))
        sim.run()
        assert len(got1) == 1 and len(got2) == 1

    def test_pop_peek_empty(self):
        controller = CanController("n")
        assert controller.peek_tx() is None
        assert controller.pop_tx() is None
