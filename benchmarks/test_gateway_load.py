"""GATEWAY — concurrent HTTP clients against one simulated fleet.

Producer of ``BENCH_gateway.json`` (written at the repo root, untracked,
and uploaded as a CI artifact): quantifies the HTTP gateway's ability to
multiplex many portal clients onto the single-threaded simulator.

* ``concurrent_query_throughput`` — 120 threaded :class:`FleetClient`
  instances hammer the pumped query route concurrently; reports
  request throughput and wall-clock latency quantiles.  Every request
  crosses worker thread -> command queue -> sim-thread pump -> response
  event, so the latencies measure the full marshalling path.
* ``deploy_throughput`` — concurrent batch deploys over HTTP to
  disjoint VIN slices, acked end to end by the simulated vehicles.
* ``event_stream_fanout`` — one campaign observed live by a mix of
  healthy and deliberately slow (tiny-buffer) stream consumers; the
  broker must fan out to all of them, evict from the slow ones, and
  account for every event exactly: ``unaccounted`` stays 0 while
  ``dropped`` is non-zero for the slow clients by construction.
"""

import statistics
import threading
import time
from pathlib import Path

from benchmarks.conftest import ROOT, record_section  # noqa: F401
from repro import SoakPolicy, build_fleet
from repro.analysis import print_table
from repro.fes import canary_campaign
from repro.fes.example_platform import PHONE_ADDRESS, make_remote_control_app
from repro.gateway import FleetClient, FleetGateway

APP = "remote-control"
OUTPUT = Path(ROOT) / "BENCH_gateway.json"

#: The acceptance floor: the gateway must serve at least this many
#: concurrent clients (scripts/check_bench.py gates on the recorded
#: number).
CONCURRENT_CLIENTS = 120


def _record(section, payload):
    record_section(OUTPUT, section, payload)


def _served_fleet(size=20, seed=3):
    fleet = build_fleet(size, seed=seed, regions=("eu-north", "na-east"))
    fleet.server.api.store.upload(
        make_remote_control_app(PHONE_ADDRESS)
    ).unwrap()
    gateway = FleetGateway(fleet).start(drive=True)
    return fleet, gateway


def _quantile(samples, q):
    data = sorted(samples)
    return data[min(len(data) - 1, int(round(q * (len(data) - 1))))]


def test_concurrent_query_throughput():
    fleet, gateway = _served_fleet()
    requests_per_client = 4
    latencies = []
    errors = []
    lock = threading.Lock()
    start_gun = threading.Event()

    def worker():
        client = FleetClient(gateway.base_url)
        mine = []
        start_gun.wait()
        try:
            for _ in range(requests_per_client):
                t0 = time.perf_counter()
                rows = client.vehicles()
                mine.append(time.perf_counter() - t0)
                assert len(rows) == 20
        except Exception as exc:  # noqa: BLE001 - tallied below
            with lock:
                errors.append(repr(exc))
            return
        with lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=worker) for _ in range(CONCURRENT_CLIENTS)
    ]
    try:
        for thread in threads:
            thread.start()
        wall_start = time.perf_counter()
        start_gun.set()
        for thread in threads:
            thread.join(timeout=120.0)
        wall = time.perf_counter() - wall_start
    finally:
        gateway.stop()

    assert not errors, errors[:3]
    total = CONCURRENT_CLIENTS * requests_per_client
    assert len(latencies) == total
    payload = {
        "clients": CONCURRENT_CLIENTS,
        "requests_per_client": requests_per_client,
        "requests": total,
        "wall_s": round(wall, 3),
        "rps": round(total / wall, 1),
        "p50_ms": round(_quantile(latencies, 0.50) * 1000, 2),
        "p95_ms": round(_quantile(latencies, 0.95) * 1000, 2),
        "max_ms": round(max(latencies) * 1000, 2),
        "mean_ms": round(statistics.fmean(latencies) * 1000, 2),
        "errors": len(errors),
    }
    print_table(
        ["metric", "value"],
        [[key, str(value)] for key, value in payload.items()],
        title="GATEWAY: concurrent query throughput",
    )
    _record("concurrent_query_throughput", payload)


def test_deploy_throughput():
    fleet, gateway = _served_fleet()
    slices = [fleet.vins[i::4] for i in range(4)]
    outcomes = []
    lock = threading.Lock()

    def deploy(vins):
        client = FleetClient(gateway.base_url)
        outcome = client.deploy(APP, vins)
        with lock:
            outcomes.append(outcome)

    try:
        start = time.perf_counter()
        threads = [
            threading.Thread(target=deploy, args=(chunk,)) for chunk in slices
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        accept_wall = time.perf_counter() - start

        # Wait for every vehicle to ack its install end to end.
        client = FleetClient(gateway.base_url)
        deadline = time.monotonic() + 120.0
        active = 0
        while time.monotonic() < deadline:
            active = sum(
                1
                for vin in fleet.vins
                if client.deployment_status(vin, APP)["status"] == "active"
            )
            if active == len(fleet.vins):
                break
            time.sleep(0.05)
        ack_wall = time.perf_counter() - start
    finally:
        gateway.stop()

    accepted = sum(outcome["accepted"] for outcome in outcomes)
    assert accepted == len(fleet.vins)
    assert active == len(fleet.vins)
    payload = {
        "vehicles": len(fleet.vins),
        "deploy_batches": len(slices),
        "accepted": accepted,
        "accept_wall_s": round(accept_wall, 3),
        "acked_wall_s": round(ack_wall, 3),
        "vehicles_per_s": round(len(fleet.vins) / ack_wall, 1),
    }
    print_table(
        ["metric", "value"],
        [[key, str(value)] for key, value in payload.items()],
        title="GATEWAY: concurrent deploy throughput (20 vehicles)",
    )
    _record("deploy_throughput", payload)


def test_event_stream_fanout():
    import dataclasses

    fleet, gateway = _served_fleet(size=12)
    spec = dataclasses.replace(
        canary_campaign(APP, fractions=(0.25, 1.0), retry_budget=1),
        soak=SoakPolicy(max_trap_delta=2, min_samples=1),
    )

    #: (label, categories, buffer) — two consumers get buffers far
    #: smaller than the event volume, forcing counted evictions.
    consumers = (
        [("slow", ("campaign", "diag"), 4)] * 2
        + [("campaign", ("campaign",), 256)] * 3
        + [("firehose", None, 1024)] * 3
    )
    received = {}
    stop = threading.Event()

    def consume(index, categories, buffer):
        client = FleetClient(gateway.base_url)
        seen = 0
        after = -1
        while not stop.is_set():
            batch = client.poll_events(
                after=after, categories=categories,
                timeout_s=0.2, buffer=buffer,
            )
            seen += len(batch["events"])
            after = batch["next_after"]
        received[index] = seen

    threads = [
        threading.Thread(target=consume, args=(index, categories, buffer))
        for index, (_, categories, buffer) in enumerate(consumers)
    ]
    try:
        for thread in threads:
            thread.start()
        time.sleep(0.2)  # all consumers registered before staging

        driver = FleetClient(gateway.base_url)
        record = driver.stage_campaign(spec)
        deadline = time.monotonic() + 120.0
        terminal = {"succeeded", "rolled_back", "halted", "timed_out"}
        while time.monotonic() < deadline:
            record = driver.campaign(record["campaign_id"])
            if record["status"] in terminal:
                break
            time.sleep(0.05)
        assert record["status"] == "succeeded"
        time.sleep(0.5)  # drain the tail
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        stats = gateway.broker.stats()
    finally:
        stop.set()
        gateway.stop()

    # Exact accounting: every sequenced event is delivered, pending,
    # or counted as dropped — nothing vanishes.
    assert stats["unaccounted"] == 0
    slow = [s for s in stats["per_client"] if s["capacity"] == 4]
    assert slow and all(s["dropped"] > 0 for s in slow)
    healthy = [s for s in stats["per_client"] if s["capacity"] >= 256]
    assert healthy

    payload = {
        "stream_clients": stats["clients"],
        "campaign_status": record["status"],
        "seq_high_water": stats["seq"],
        "delivered_total": sum(received.values()),
        "dropped_total": stats["dropped"],
        "slow_client_drops": sum(s["dropped"] for s in slow),
        "unaccounted": stats["unaccounted"],
        "per_client": [
            {
                "client": s["client"],
                "capacity": s["capacity"],
                "enqueued": s["enqueued"],
                "delivered": s["delivered"],
                "dropped": s["dropped"],
                "unaccounted": s["unaccounted"],
            }
            for s in stats["per_client"]
        ],
    }
    print_table(
        ["client", "capacity", "enqueued", "delivered", "dropped"],
        [
            [s["client"], s["capacity"], s["enqueued"], s["delivered"],
             s["dropped"]]
            for s in payload["per_client"]
        ],
        title="GATEWAY: event-stream fanout with slow consumers",
    )
    _record("event_stream_fanout", payload)
