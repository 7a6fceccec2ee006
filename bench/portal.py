"""Open-loop HTTP load for the portal workload.

One generator process (the harness) runs two threads, each opening one
connection per request as ``FleetClient`` does, so at most two
connections are open.  (Kept-alive connections stall about 40 ms per
response: the gateway writes headers and body in two sends, and Nagle's
algorithm holds the second until the client's delayed ACK.)  Requests
follow a seeded plan at a fixed rate; each is timed from when it was
*due*, so a stall also charges the requests queued behind it, and the
generator reports how late it sent.

Writes are ``POST /v1/deployments`` to the next disjoint 5-VIN slice,
the shape of ``benchmarks/test_gateway_load.py``'s deploy test (20
vehicles deployed in slices of 5).  Reads are single-vehicle query
round-trips, split between ``GET /v1/vehicles/{vin}`` and
``GET /v1/deployments/{vin}/{app}`` on an already written VIN.  The
write share and the request rate are assumptions, not measured
traffic; ``bench/README.md`` reports how the
layer shares move with the write share.  Every response must be a valid
envelope with the expected status, and every written VIN must reach
``active`` before the server stops.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from urllib.parse import urlsplit

from repro.server.gateway.wire import decode, http_status
from repro.server.models import InstallStatus
from repro.server.services.selector import FleetSelector

APP = "remote-control"
#: Share of requests that deploy: an assumption, not measured traffic.
WRITE_SHARE = 0.25
SLICE = 5
#: A deployment-status read targets a slice whose write was due at least
#: this many requests earlier.
READ_LAG = 25
THREADS = 2


def make_plan(seed, count: int, vins: list[str]) -> list[dict]:
    """``count`` requests over the fleet's ``vins`` (in fleet order):
    :data:`WRITE_SHARE` of them writes, the reads split evenly."""
    rng = random.Random(seed)
    writes = int(count * WRITE_SHARE)
    if writes * SLICE > len(vins):
        raise ValueError(
            f"{writes} writes of {SLICE} VINs exceed a fleet of {len(vins)}"
        )
    status_reads = (count - writes) // 2
    kinds = (
        ["write"] * writes
        + ["status"] * status_reads
        + ["vehicle"] * (count - writes - status_reads)
    )
    rng.shuffle(kinds)
    plan: list[dict] = []
    written: list[int] = []  # plan index of each write, in slice order
    for index, kind in enumerate(kinds):
        if kind == "write":
            first = len(written) * SLICE
            plan.append({
                "kind": "write", "method": "POST", "path": "/v1/deployments",
                "body": {
                    "app": APP,
                    "vins": vins[first:first + SLICE],
                },
                "slice": len(written),
            })
            written.append(index)
            continue
        ready = [s for s, at in enumerate(written) if at <= index - READ_LAG]
        if kind == "status" and ready:
            chosen = rng.choice(ready)
            vin = vins[chosen * SLICE + rng.randrange(SLICE)]
            plan.append({
                "kind": "read", "method": "GET",
                "path": f"/v1/deployments/{vin}/{APP}", "slice": chosen,
            })
        else:
            vin = rng.choice(vins)
            plan.append({
                "kind": "read", "method": "GET",
                "path": f"/v1/vehicles/{vin}", "slice": None,
            })
    return plan


def send(parts, method: str, path: str, body=None) -> tuple[int, bytes]:
    """One request on its own connection; ``(status, body bytes)``."""
    connection = http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=30
    )
    try:
        connection.request(
            method, path,
            body=None if body is None else json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     "Connection": "close"},
        )
        reply = connection.getresponse()
        return reply.status, reply.read()
    finally:
        connection.close()


def _check(item: dict, status: int, body: bytes, written_done) -> str:
    """Empty when the response is as expected, else the reason."""
    try:
        response = decode(body)
    except (ValueError, KeyError, TypeError) as error:
        return f"invalid envelope: {error}"
    if http_status(response) != status:
        return f"status {status} does not match envelope code {response.code}"
    if item["kind"] == "write":
        accepted = (response.value or {}).get("accepted")
        if status != 200 or accepted != SLICE:
            return f"write answered {status}, accepted {accepted}"
        return ""
    if item["slice"] is not None and not written_done[item["slice"]].is_set():
        # The write was still in flight when this read was sent: either
        # answer is correct.
        return "" if status in (200, 404) else f"status read answered {status}"
    return "" if status == 200 else f"read answered {status}"


def run_load(base_url: str, plan: list[dict], rate: float,
             settle_s: float = 60.0) -> dict:
    """Send ``plan`` open-loop at ``rate`` requests per second."""
    parts = urlsplit(base_url)
    slices = 1 + max(
        (item["slice"] for item in plan if item["kind"] == "write"),
        default=-1,
    )
    written_done = [threading.Event() for __ in range(slices)]
    lock = threading.Lock()
    cursor = iter(range(len(plan)))
    latencies: list[tuple[str, float]] = []
    failures: list[str] = []
    late = [0.0]
    start = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            item = plan[index]
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            with lock:
                late[0] = max(late[0], time.perf_counter() - due)
            try:
                status, payload = send(
                    parts, item["method"], item["path"], item.get("body")
                )
            except (OSError, http.client.HTTPException) as error:
                failures.append(f"{item['path']}: {error!r}")
                continue
            finished = time.perf_counter()
            reason = _check(item, status, payload, written_done)
            if reason:
                failures.append(f"{item['method']} {item['path']}: {reason}")
                continue
            latencies.append((item["kind"], (finished - due) * 1000))
            if item["kind"] == "write":
                written_done[item["slice"]].set()

    threads = [
        threading.Thread(target=worker, daemon=True) for __ in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=len(plan) / rate + 120)
    if any(thread.is_alive() for thread in threads):
        failures.append("load generator threads did not finish")
    load_s = time.perf_counter() - start

    written = [
        vin for item in plan if item["kind"] == "write"
        for vin in item["body"]["vins"]
    ]
    inactive = _wait_active(parts, set(written), settle_s)
    if inactive:
        failures.append(
            f"{len(inactive)} written VINs never reached active, "
            f"e.g. {sorted(inactive)[:3]}"
        )
    return {
        "attempted": len(plan),
        "latencies": latencies,
        "failures": failures,
        "load_s": load_s,
        "late_ms": late[0] * 1000,
        "inactive": len(inactive),
    }


def _wait_active(parts, vins: set[str], settle_s: float) -> set[str]:
    """Poll the portal query until every VIN in ``vins`` is active."""
    selector = FleetSelector.app_status(APP, InstallStatus.ACTIVE).to_dict()
    deadline = time.monotonic() + settle_s
    pending = set(vins)
    while pending and time.monotonic() < deadline:
        __, payload = send(
            parts, "POST", "/v1/vehicles/query", {"selector": selector}
        )
        pending -= {row["vin"] for row in decode(payload).unwrap()}
        if pending:
            time.sleep(0.1)
    return pending
