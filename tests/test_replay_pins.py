"""Literal replay pins: campaign report bytes must not move across commits.

Each campaign digest is
``sha256(json.dumps(report.to_dict(), sort_keys=True))`` of a seeded
``canary_campaign("remote-control")`` run, computed once and written
down here; the CAN digest covers every frame of one traced example
car.  The replay tests elsewhere compare two runs of the same code;
these compare the code against its own past, so a change
that claims to leave behaviour alone (a performance change, a
refactor) must reproduce them exactly.  The digests were the same under
Python 3.10, 3.11 and 3.12.  The kernel's executed-event count is not
pinned: performance work is expected to move it.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro import FixedWaves, PercentageWaves
from repro.fes import canary_campaign
from repro.fes.example_platform import (
    PHONE_ADDRESS,
    build_example_platform,
    make_remote_control_app,
)
from repro.fes.fleet import build_fleet
from repro.sim import MS, SECOND

PINS = [
    (
        20, None, FixedWaves(10), 1,
        "faf2801ebe720cc11df3092d82ae26c109b04634ed0d76fe74279317ae68cc59",
    ),
    (
        20, None, FixedWaves(10), 3,
        "3dbe3cff35c4ecb42b93dfabac6479e841953bb6331318238fb30661f1378e13",
    ),
    (
        200, 4, PercentageWaves((0.02, 1.0)), 1,
        "83a841e25a1711c3362d8ad5fa064165b953ec37d1676589dae540dc0f1203de",
    ),
    (
        200, 4, PercentageWaves((0.02, 1.0)), 3,
        "a2ec4499722676926621218f1fa53c7acfc308205ada8d4831fe9b9bf1b25caf",
    ),
]


@pytest.mark.parametrize(
    "size, full, waves, seed, expected", PINS,
    ids=["fixed-seed1", "fixed-seed3", "mixed-seed1", "mixed-seed3"],
)
def test_campaign_report_matches_pinned_digest(size, full, waves, seed, expected):
    fleet = build_fleet(size, seed=seed, full_vehicles=full)
    fleet.server.api.store.upload(
        make_remote_control_app(PHONE_ADDRESS)
    ).unwrap()
    report = fleet.run_campaign(
        replace(canary_campaign("remote-control"), waves=waves)
    )
    assert report.status == "succeeded"
    digest = hashlib.sha256(
        json.dumps(report.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()
    assert digest == expected


#: sha256 over every CAN ``(time_us, kind, can_id, node)`` of the traced
#: example car from boot through deploy and a scripted phone drive, so the
#: in-vehicle data path (type I packages, type II relays) keeps its frames
#: and their timing.
CAN_PIN = (
    "2672afbaa17aa73382f6bdb5ac9ef7bb52d3d4c582442a9f4ac8141c4d06347b"
)
CAN_EVENTS_PIN = 68


def test_example_car_can_trace_matches_pinned_digest():
    platform = build_example_platform(seed=1)
    frames = []
    platform.tracer.subscribe(
        lambda e: frames.append(
            (e.time_us, e.name, e.data["can_id"], e.data["node"])
        ),
        categories=("can",),
    )
    platform.boot()
    platform.run(1 * SECOND)
    platform.deploy("remote-control").wait(10 * SECOND)
    phone = platform.phone()
    for wheels, speed in ((-30, 55), (0, 80), (25, -10), (-32768, 32767)):
        phone.send("Wheels", wheels)
        phone.send("Speed", speed)
        platform.run(200 * MS)
    platform.run(1 * SECOND)
    assert platform.actuator_state() == {
        "wheels": [-30, 0, 25, -32768], "speed": [55, 80, -10, 32767],
    }
    digest = hashlib.sha256(repr(frames).encode("utf-8")).hexdigest()
    assert (len(frames), digest) == (CAN_EVENTS_PIN, CAN_PIN)
