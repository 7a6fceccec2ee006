"""Model test of the pusher's offline outbox.

Hypothesis interleaves pushes, batched pushes, server-side disconnects,
vehicle dials, vehicle-side closes and simulated time over two VINs
whose outboxes hold three messages.  Every payload is unique and names
its VIN, so the end state shows exactly what happened to each one:

* no outbox ever holds more than its limit;
* after a final disconnect, redial and drain, no payload arrived twice,
  each vehicle received only its own payloads, in push order, and every
  payload was either received or counted in ``dropped_messages``;
* nothing is left queued, in messages or in bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.sockets import NetworkFabric
from repro.server.pusher import Pusher
from repro.sim import MS, SECOND, Simulator

VINS = ("VIN-A", "VIN-B")
LIMIT = 3
ADDRESS = "model-test:1"
#: Far longer than a wired link needs to deliver a few small messages.
DRAIN_US = 10 * MS

_vin = st.sampled_from(VINS)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _vin),
        st.tuples(st.just("push_many"), _vin, st.integers(1, 4)),
        st.tuples(st.just("disconnect"), _vin),
        st.tuples(st.just("dial"), _vin),
        st.tuples(st.just("close"), _vin),
        st.tuples(st.just("run"), st.integers(0, 400)),
    ),
    max_size=40,
)


class _Fleet:
    """A pusher, two dialling vehicles and the record of every payload."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.fabric = NetworkFabric(self.sim)
        self.pusher = Pusher(self.fabric, ADDRESS, outbox_limit=LIMIT)
        self.pushed: dict[str, list[bytes]] = {vin: [] for vin in VINS}
        self.received: dict[str, list[bytes]] = {vin: [] for vin in VINS}
        self.ends = {}
        self.dialling: set[str] = set()

    def payload(self, vin: str) -> bytes:
        raw = f"{vin}#{sum(map(len, self.pushed.values()))}".encode()
        self.pushed[vin].append(raw)
        return raw

    def dial(self, vin: str) -> None:
        if vin in self.dialling or self.pusher.is_connected(vin):
            return
        self.dialling.add(vin)

        def connected(end) -> None:
            self.dialling.discard(vin)
            self.ends[vin] = end
            end.on_receive(self.received[vin].append)

        self.fabric.connect(ADDRESS, client_name=vin, on_connected=connected)

    def close(self, vin: str) -> None:
        end = self.ends.get(vin)
        if end is None or end.closed:
            return
        # A closed channel drops what is still in flight on it, so the
        # vehicle hangs up only once the link has drained.
        self.sim.run_for(DRAIN_US)
        end.close()

    def apply(self, operation) -> None:
        kind, arg = operation[0], operation[1]
        if kind == "push":
            self.pusher.push(arg, self.payload(arg))
        elif kind == "push_many":
            raws = [self.payload(arg) for _ in range(operation[2])]
            self.pusher.push_many(arg, raws)
        elif kind == "disconnect":
            self.pusher.disconnect(arg)
        elif kind == "dial":
            self.dial(arg)
        elif kind == "close":
            self.close(arg)
        else:
            self.sim.run_for(arg)


def _in_order_subset(received: list[bytes], pushed: list[bytes]) -> bool:
    remaining = iter(pushed)
    return all(raw in remaining for raw in received)


@given(operations=_operations)
@settings(max_examples=300, deadline=None)
def test_outbox_never_loses_reorders_or_duplicates(operations):
    fleet = _Fleet()
    pusher = fleet.pusher
    for operation in operations:
        fleet.apply(operation)
        assert all(pusher.pending_for(vin) <= LIMIT for vin in VINS)
    for vin in VINS:
        pusher.disconnect(vin)
        fleet.dial(vin)
    fleet.sim.run_for(1 * SECOND)
    for vin in VINS:
        received = fleet.received[vin]
        assert len(received) == len(set(received))
        assert _in_order_subset(received, fleet.pushed[vin])
        assert pusher.pending_for(vin) == 0
    total_received = sum(map(len, fleet.received.values()))
    total_pushed = sum(map(len, fleet.pushed.values()))
    assert total_received + pusher.dropped_messages == total_pushed
    assert pusher.outbox_bytes == 0
