"""FLEETAPI — control-plane throughput on a 500-vehicle fleet.

Producer of ``BENCH_fleetapi.json`` (written at the repo root,
untracked, and uploaded as a CI artifact alongside
``BENCH_campaign.json``): quantifies the fleet control plane's
portal-facing hot paths on a synthetic 500-vehicle registry.

* ``selector_query_throughput`` — FleetSelector queries of increasing
  tree depth against the registry: queries/second and rows returned.
* ``batch_deploy_throughput`` — one ``deploy_batch`` pass over the
  whole fleet (vehicles offline: packages land in pusher outboxes),
  then the matching ``uninstall_batch``: vehicles/second and pushed
  messages.
* ``admission_check_cost`` — the admission controller screening a full
  fleet while another campaign holds half of it.
"""

import time
from pathlib import Path

from benchmarks.conftest import ROOT, record_section  # noqa: F401
from repro.analysis import print_table
from repro.network.sockets import NetworkFabric
from repro.server.server import TrustedServer
from repro.server.services import FleetSelector as S
from repro.sim import Simulator
from repro.workloads import SyntheticConfig, populate_server

FLEET_SIZE = 500
OUTPUT = Path(ROOT) / "BENCH_fleetapi.json"


def _record(section, payload):
    record_section(OUTPUT, section, payload)


def _server():
    server = TrustedServer(NetworkFabric(Simulator()))
    populate_server(
        server.api,
        SyntheticConfig(dependency_density=0.0, conflict_density=0.0),
        n_apps=5,
        n_vehicles=FLEET_SIZE,
    )
    return server


def test_selector_query_throughput():
    server = _server()
    queries = [
        ("all", S.all()),
        ("region", S.region("eu-north")),
        ("region&model", S.region("eu-north") & S.model("model-0")),
        (
            "deep-tree",
            (S.region("eu-north") | S.region("na-east"))
            & ~S.installed("app0")
            & S.healthy(),
        ),
    ]
    repetitions = 20
    rows, payload = [], []
    for name, selector in queries:
        start = time.perf_counter()
        for _ in range(repetitions):
            matched = server.api.vehicles.query(selector).unwrap()
        wall = time.perf_counter() - start
        qps = repetitions / wall
        payload.append(
            {
                "query": name,
                "fleet_size": FLEET_SIZE,
                "rows": len(matched),
                "repetitions": repetitions,
                "wall_s": round(wall, 4),
                "queries_per_s": round(qps, 1),
            }
        )
        rows.append(
            [name, len(matched), f"{qps:,.0f} q/s",
             f"{FLEET_SIZE * qps:,.0f} rows/s scanned"]
        )
    print_table(
        ["selector", "rows", "throughput", "scan rate"],
        rows,
        title=f"FLEETAPI: selector queries over {FLEET_SIZE} vehicles",
    )
    _record("selector_query_throughput", payload)


def test_batch_deploy_throughput():
    server = _server()
    vins = sorted(server.db.vehicles)
    app_name = "app0"

    start = time.perf_counter()
    results = server.api.deployments.deploy_batch("u0", vins, app_name)
    deploy_wall = time.perf_counter() - start
    accepted = sum(1 for response in results.values() if response.ok)
    assert accepted == FLEET_SIZE, {
        vin: response.reasons
        for vin, response in results.items()
        if not response.ok
    }
    queued = sum(server.pusher.pending_for(vin) for vin in vins)

    start = time.perf_counter()
    removals = server.api.deployments.uninstall_batch("u0", vins, app_name)
    uninstall_wall = time.perf_counter() - start
    assert all(response.ok for response in removals.values())

    payload = {
        "fleet_size": FLEET_SIZE,
        "accepted": accepted,
        "messages_queued": queued,
        "outbox_bytes": server.pusher.outbox_bytes,
        "deploy_wall_s": round(deploy_wall, 3),
        "deploy_vehicles_per_s": round(FLEET_SIZE / deploy_wall, 1),
        "uninstall_wall_s": round(uninstall_wall, 3),
        "uninstall_vehicles_per_s": round(FLEET_SIZE / uninstall_wall, 1),
    }
    print_table(
        ["metric", "value"],
        [[key, str(value)] for key, value in payload.items()],
        title="FLEETAPI: batch deploy/uninstall throughput",
    )
    _record("batch_deploy_throughput", payload)


def test_admission_check_cost():
    server = _server()
    vins = sorted(server.db.vehicles)
    campaigns = server.api.campaigns
    campaigns.claim("cmp-0001", vins[: FLEET_SIZE // 2])
    repetitions = 50
    start = time.perf_counter()
    for _ in range(repetitions):
        denied = campaigns.admit("cmp-0002", vins)
    wall = time.perf_counter() - start
    assert len(denied) == FLEET_SIZE // 2
    payload = {
        "fleet_size": FLEET_SIZE,
        "held_by_other_campaign": len(denied),
        "repetitions": repetitions,
        "wall_s": round(wall, 4),
        "checks_per_s": round(repetitions * FLEET_SIZE / wall, 1),
    }
    print_table(
        ["metric", "value"],
        [[key, str(value)] for key, value in payload.items()],
        title="FLEETAPI: admission screening cost",
    )
    _record("admission_check_cost", payload)
