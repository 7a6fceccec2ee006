"""Unit tests for simulated channels and the socket fabric."""

import gc
import weakref

import pytest

from repro.errors import (
    AddressInUseError,
    ChannelClosedError,
    ConnectionRefusedError_,
)
from repro.network import (
    IDEAL,
    Channel,
    ChannelProfile,
    DuplexLink,
    NetworkFabric,
    Uplink,
)
from repro.sim import Simulator, StreamFactory
from repro.telemetry import TelemetryBus


def make_channel(sim, profile, rng=None):
    return Channel(sim, profile, "test", rng=rng)


class TestChannel:
    def test_delivery_after_latency(self):
        sim = Simulator()
        chan = make_channel(sim, ChannelProfile(latency_us=500))
        got = []
        chan.on_receive(lambda m: got.append((sim.now, m)))
        chan.send("hello")
        sim.run()
        assert got == [(500, "hello")]

    def test_serialization_delay_scales_with_size(self):
        sim = Simulator()
        profile = ChannelProfile(latency_us=100, bytes_per_us=2.0)
        chan = make_channel(sim, profile)
        got = []
        chan.on_receive(lambda m: got.append(sim.now))
        chan.send("msg", size=200)  # 100 us serialization
        sim.run()
        assert got == [200]

    def test_fifo_order_preserved_under_jitter(self):
        sim = Simulator()
        streams = StreamFactory(42)
        profile = ChannelProfile(latency_us=1000, jitter_us=900)
        chan = make_channel(sim, profile, rng=streams.stream("c"))
        got = []
        chan.on_receive(got.append)
        for i in range(50):
            chan.send(i)
        sim.run()
        assert got == list(range(50))

    def test_loss_drops_messages(self):
        sim = Simulator()
        streams = StreamFactory(1)
        profile = ChannelProfile(latency_us=10, loss=0.5)
        chan = make_channel(sim, profile, rng=streams.stream("lossy"))
        got = []
        chan.on_receive(got.append)
        for i in range(400):
            chan.send(i)
        sim.run()
        assert 100 < len(got) < 300
        assert chan.dropped == 400 - len(got)

    def test_closed_channel_rejects_send(self):
        sim = Simulator()
        chan = make_channel(sim, IDEAL)
        chan.close()
        with pytest.raises(ChannelClosedError):
            chan.send("x")

    def test_close_kills_inflight_messages(self):
        sim = Simulator()
        chan = make_channel(sim, ChannelProfile(latency_us=100))
        got = []
        chan.on_receive(got.append)
        chan.send("x")
        chan.close()
        sim.run()
        assert got == []

    def test_counters(self):
        sim = Simulator()
        chan = make_channel(sim, IDEAL)
        chan.on_receive(lambda m: None)
        chan.send("a")
        chan.send("b")
        sim.run()
        assert chan.sent == 2
        assert chan.delivered == 2

    def test_tracer_records_send_and_deliver(self):
        sim = Simulator()
        tracer = TelemetryBus()
        chan = Channel(sim, IDEAL, "traced", tracer=tracer)
        chan.on_receive(lambda m: None)
        chan.send("x", size=10)
        sim.run()
        assert len(tracer.events("net", "send", size=10)) == 1
        assert len(tracer.events("net", "deliver")) == 1


class TestDuplexLink:
    def test_both_directions_deliver(self):
        sim = Simulator()
        link = DuplexLink(sim, ChannelProfile(latency_us=50), "lnk")
        a_got, b_got = [], []
        link.b_to_a.on_receive(a_got.append)
        link.a_to_b.on_receive(b_got.append)
        link.a_to_b.send("to-b")
        link.b_to_a.send("to-a")
        sim.run()
        assert a_got == ["to-a"]
        assert b_got == ["to-b"]

    def test_close_closes_both(self):
        sim = Simulator()
        link = DuplexLink(sim, IDEAL, "lnk")
        link.close()
        assert link.closed


class TestNetworkFabric:
    def _fabric(self, profile=None):
        sim = Simulator()
        fabric = NetworkFabric(
            sim,
            StreamFactory(0),
            default_profile=profile or ChannelProfile(latency_us=100),
        )
        return sim, fabric

    def test_connect_delivers_endpoints_after_rtt(self):
        sim, fabric = self._fabric()
        server_side, client_side = [], []
        fabric.listen("srv:1", lambda ep, who: server_side.append((ep, who)))
        fabric.connect("srv:1", "veh-1", client_side.append)
        assert not client_side
        sim.run()
        assert sim.now == 200  # one RTT at 100us latency
        assert len(server_side) == 1
        assert server_side[0][1] == "veh-1"
        assert len(client_side) == 1

    def test_bidirectional_messaging(self):
        sim, fabric = self._fabric()
        transcript = []

        def on_connect(server_ep, who):
            server_ep.on_receive(
                lambda m: (transcript.append(("srv", m)), server_ep.send("ack"))
            )

        fabric.listen("srv:1", on_connect)

        def on_connected(client_ep):
            client_ep.on_receive(lambda m: transcript.append(("cli", m)))
            client_ep.send("hello")

        fabric.connect("srv:1", "veh", on_connected)
        sim.run()
        assert transcript == [("srv", "hello"), ("cli", "ack")]

    def test_connect_unknown_address_refused(self):
        sim, fabric = self._fabric()
        with pytest.raises(ConnectionRefusedError_):
            fabric.connect("nowhere", "veh", lambda ep: None)

    def test_duplicate_listen_rejected(self):
        sim, fabric = self._fabric()
        fabric.listen("srv:1", lambda ep, who: None)
        with pytest.raises(AddressInUseError):
            fabric.listen("srv:1", lambda ep, who: None)

    def test_unlisten_frees_address(self):
        sim, fabric = self._fabric()
        fabric.listen("srv:1", lambda ep, who: None)
        fabric.unlisten("srv:1")
        assert not fabric.is_listening("srv:1")
        fabric.listen("srv:1", lambda ep, who: None)

    def test_messages_before_handler_are_backlogged(self):
        sim, fabric = self._fabric(IDEAL)
        server_eps = []
        fabric.listen("srv:1", lambda ep, who: server_eps.append(ep))
        client_eps = []
        fabric.connect("srv:1", "veh", client_eps.append)
        sim.run()
        client_eps[0].send("early-1")
        client_eps[0].send("early-2")
        sim.run()
        got = []
        server_eps[0].on_receive(got.append)  # installed late
        assert got == ["early-1", "early-2"]

    def test_multiple_clients_get_distinct_links(self):
        sim, fabric = self._fabric(IDEAL)
        eps = {}
        fabric.listen(
            "srv:1", lambda ep, who: ep.on_receive(
                lambda m, w=who: eps.setdefault(w, []).append(m)
            )
        )
        clients = []
        fabric.connect("srv:1", "veh-a", clients.append)
        fabric.connect("srv:1", "veh-b", clients.append)
        sim.run()
        clients[0].send("from-a")
        clients[1].send("from-b")
        sim.run()
        assert eps == {"veh-a": ["from-a"], "veh-b": ["from-b"]}
        assert fabric.connection_count == 2

    def test_endpoint_close(self):
        sim, fabric = self._fabric(IDEAL)
        fabric.listen("srv:1", lambda ep, who: None)
        clients = []
        fabric.connect("srv:1", "veh", clients.append)
        sim.run()
        clients[0].close()
        assert clients[0].closed
        with pytest.raises(ChannelClosedError):
            clients[0].send("x")

    def test_closed_connection_becomes_garbage(self):
        # The fabric counts dials but keeps no link, and a link's RNG
        # streams die with it: a vehicle redialling after faults leaves
        # nothing of its dead connections behind.
        sim, fabric = self._fabric()
        fabric.listen("srv:1", lambda ep, who: None)
        refs = []
        for __ in range(3):
            clients = []
            fabric.connect("srv:1", "veh", clients.append)
            sim.run()
            channel = clients[0]._tx
            channel.send("x")
            sim.run()
            refs += [weakref.ref(channel), weakref.ref(channel.rng)]
            clients[0].close()
        del clients, channel
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        assert fabric.connection_count == 3


class _Vehicle:
    """The owner of an uplink: collects what the server sends."""

    def __init__(self):
        self.got = []

    def on_server_data(self, raw):
        self.got.append(raw)


class TestUplink:
    def _world(self):
        """A traced fabric, a server that records each accepted
        connection and everything it receives, and an undialled link."""
        sim = Simulator()
        tracer = TelemetryBus()
        fabric = NetworkFabric(
            sim, tracer=tracer, default_profile=ChannelProfile(latency_us=100)
        )
        accepted, received = [], []

        def accept(endpoint, who):
            accepted.append(endpoint)
            endpoint.on_receive(received.append)

        fabric.listen("srv:1", accept)
        vehicle = _Vehicle()
        link = Uplink(fabric, "srv:1", "VIN-1", vehicle)
        return sim, tracer, link, accepted, received, vehicle

    def test_buffers_before_the_first_dial(self):
        sim, __, link, accepted, received, __ = self._world()
        link.send(b"early")
        sim.run()
        assert not link.up and accepted == [] and received == []
        assert link.dial()
        sim.run()
        assert link.up and received == [b"early"]

    def test_flushes_in_send_order(self):
        sim, tracer, link, __, received, __ = self._world()
        link.send(b"1")
        link.dial()
        link.send(b"2")  # dial in flight
        sim.run()
        link.send(b"3")  # link up: sent at once
        sim.run()
        assert received == [b"1", b"2", b"3"]
        assert [e.data for e in tracer.events("net", "server_connected")] == [
            {"client": "VIN-1"},
        ]

    def test_buffers_after_the_peer_closes(self):
        sim, tracer, link, accepted, received, __ = self._world()
        link.dial()
        sim.run()
        accepted[0].close()  # the server severs the link
        assert not link.up
        link.send(b"offline")
        sim.run()
        assert received == []
        assert len(tracer.events("net", "server_link_lost")) == 1

    def test_dial_returns_false_while_up(self):
        sim, __, link, __, __, __ = self._world()
        assert link.dial()
        sim.run()
        assert link.up
        assert not link.dial()
        assert link.fabric.connection_count == 1

    def test_nothing_lost_across_a_sever_and_a_redial(self):
        sim, __, link, accepted, received, vehicle = self._world()
        link.dial()
        sim.run()
        link.send(b"a")
        sim.run()
        accepted[0].close()
        link.send(b"b")
        link.send(b"c")
        assert link.dial()
        link.send(b"d")  # redial in flight
        sim.run()
        assert received == [b"a", b"b", b"c", b"d"]
        accepted[1].send(b"down")  # the new link reaches the owner
        sim.run()
        assert vehicle.got == [b"down"]
