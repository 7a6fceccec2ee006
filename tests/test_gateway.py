"""The HTTP fleet gateway: wire fidelity, streaming, pump, determinism.

Four layers of coverage:

* wire protocol — every :class:`ErrorCode` and payload shape survives
  ``Response.to_dict()`` -> JSON -> ``Response.from_dict()`` with the
  HTTP status mapping pinned;
* stream broker — monotonic sequencing, bounded buffers with *exact*
  drop accounting (``enqueued == delivered + pending + dropped``),
  category filtering, reconnect semantics;
* command pump — FIFO marshalling of worker-thread requests onto the
  simulator thread, timeout and detach behaviour;
* the served gateway — a real ``ThreadingHTTPServer`` driven end to end
  through :class:`FleetClient`, including a full canary campaign staged
  and observed entirely over HTTP, selector parity against in-process
  queries, and the replay-identity contract: attaching a gateway to a
  seeded scenario changes no byte of its campaign report.
"""

import dataclasses
import http.client
import json
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro import Disposition, FaultPlan, SoakPolicy, build_fleet
from repro.errors import ConfigurationError
from repro.fes import canary_campaign
from repro.fes.example_platform import (
    MODEL,
    PHONE_ADDRESS,
    make_remote_control_app,
)
from repro.gateway import ApiError, FleetClient, FleetGateway
from repro.server.gateway.pump import CommandPump, GatewayTimeout
from repro.server.gateway.stream import (
    MAX_CLIENT_BUFFER,
    StreamBroker,
    StreamClient,
)
from repro.server.gateway.wire import HTTP_STATUS, decode, encode, http_status
from repro.server.services import FleetSelector as S
from repro.server.services.envelope import ErrorCode, Response, wire_value
from repro.telemetry.bus import TelemetryBus

APP = "remote-control"


def make_fleet(size=4, seed=7, **kwargs):
    fleet = build_fleet(
        size, seed=seed, regions=("eu-north", "na-east"), **kwargs
    )
    fleet.server.api.store.upload(
        make_remote_control_app(PHONE_ADDRESS)
    ).unwrap()
    return fleet


def soaked_spec(**overrides):
    spec = canary_campaign(
        APP,
        fractions=(0.5, 1.0),
        max_failure_rate=0.5,
        retry_budget=1,
        selector=S.model(MODEL),
    )
    soak = SoakPolicy(max_trap_delta=2, min_samples=2)
    return dataclasses.replace(spec, soak=soak, **overrides)


# -- wire protocol -------------------------------------------------------------


class TestWireProtocol:
    @pytest.mark.parametrize("code", list(ErrorCode))
    def test_every_code_round_trips_with_pinned_status(self, code):
        if code is ErrorCode.OK:
            original = Response.success({"n": 1}, pushed_messages=2)
        else:
            original = Response.failure(code, "reason-a", "reason-b")
        status, body = encode(original)
        assert status == HTTP_STATUS[code]
        parsed = decode(body)
        assert parsed.ok is original.ok
        assert parsed.code is code
        assert parsed.reasons == original.reasons
        assert parsed.pushed_messages == original.pushed_messages

    def test_encoding_is_byte_deterministic(self):
        response = Response.success({"b": 2, "a": 1})
        assert encode(response) == encode(response)

    @pytest.mark.parametrize(
        "payload,expected",
        [
            (None, None),
            (7, 7),
            (2.5, 2.5),
            (True, True),
            ("vin", "vin"),
            ([1, "two"], [1, "two"]),
            ((1, 2), [1, 2]),
            ({"k": (1, 2)}, {"k": [1, 2]}),
            ({3: "x"}, {"3": "x"}),  # JSON keys are strings
            (frozenset({"b", "a"}), ["a", "b"]),  # deterministic order
            (Disposition.UPDATED, "updated"),  # enums -> values
        ],
    )
    def test_payload_shapes_reduce_to_json(self, payload, expected):
        wired = Response.success(payload).to_dict()["value"]
        assert wired == expected
        assert json.loads(json.dumps(wired)) == expected

    def test_entity_payloads_use_their_own_to_dict(self):
        from repro.server.services.vehicles import VehicleView

        view = VehicleView(
            vin="VIN-1", model="m", region="eu", owner="u",
            online=True, apps=(("app", 2, "active"),),
        )
        assert Response.success(view).to_dict()["value"] == view.to_dict()
        # ... and lists of entities element-wise.
        assert Response.success([view]).to_dict()["value"] == [view.to_dict()]

    def test_namedtuple_and_dataclass_payloads(self):
        from repro.server.services.deployments import InstallProgress

        progress = InstallProgress(acked=2, failed=1, total=4)
        assert Response.success(progress).to_dict()["value"] == {
            "acked": 2, "failed": 1, "total": 4,
        }

        @dataclasses.dataclass
        class Bare:
            name: str
            kinds: frozenset

        wired = wire_value(Bare("x", frozenset({"b", "a"})))
        assert wired == {"name": "x", "kinds": ["a", "b"]}

    def test_nested_envelopes_serialize(self):
        # The batch-deploy payload nests per-VIN envelopes.
        outer = Response.success(
            {"results": {"VIN-1": Response.failure(
                ErrorCode.INCOMPATIBLE, "no port"
            )}}
        )
        wired = json.loads(json.dumps(outer.to_dict()))
        inner = wired["value"]["results"]["VIN-1"]
        assert inner["ok"] is False and inner["code"] == "incompatible"

    def test_unserializable_payload_raises(self):
        with pytest.raises(TypeError, match="not wire-serializable"):
            wire_value(object())

    def test_unknown_code_defaults_to_500(self):
        response = Response.failure(ErrorCode.INVALID_STATE)
        response.code = None  # not in the table
        assert http_status(response) == 500


# -- stream broker -------------------------------------------------------------


def _publish(bus, n, category="campaign", start=0):
    for i in range(n):
        bus.publish(category, f"event-{start + i}", time_us=start + i)


class TestStreamClient:
    def test_capacity_bounds_validated(self):
        with pytest.raises(ValueError):
            StreamClient("c", capacity=0)
        with pytest.raises(ValueError):
            StreamClient("c", capacity=MAX_CLIENT_BUFFER + 1)

    def test_bounded_buffer_counts_every_drop(self):
        client = StreamClient("c", capacity=4)
        for seq in range(1, 11):
            client.offer({"seq": seq})
        stats = client.stats()
        assert stats["enqueued"] == 10
        assert stats["dropped"] == 6
        assert stats["pending"] == 4
        assert stats["unaccounted"] == 0
        # The survivors are the newest four, in order.
        batch = client.poll()
        assert [e["seq"] for e in batch["events"]] == [7, 8, 9, 10]
        assert client.stats()["unaccounted"] == 0

    def test_acknowledged_events_count_as_delivered(self):
        client = StreamClient("c", capacity=8)
        for seq in range(1, 6):
            client.offer({"seq": seq})
        batch = client.poll(after=3)
        assert [e["seq"] for e in batch["events"]] == [4, 5]
        stats = client.stats()
        assert stats["delivered"] == 5  # 3 acked skips + 2 handed over
        assert stats["unaccounted"] == 0

    def test_poll_blocks_until_offer(self):
        client = StreamClient("c")
        result = {}

        def consume():
            result["batch"] = client.poll(timeout_s=5.0)

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        client.offer({"seq": 1})
        thread.join(timeout=5.0)
        assert [e["seq"] for e in result["batch"]["events"]] == [1]


class TestStreamBroker:
    def test_sequence_is_globally_monotonic(self):
        bus = TelemetryBus()
        broker = StreamBroker(bus)
        broker.attach()
        client = broker.client()
        _publish(bus, 3, category="campaign")
        _publish(bus, 2, category="diag", start=3)
        batch = client.poll(max_events=10)
        assert [e["seq"] for e in batch["events"]] == [1, 2, 3, 4, 5]
        assert broker.seq == 5
        broker.detach()
        _publish(bus, 1)  # after detach: not sequenced
        assert broker.seq == 5

    def test_category_filter(self):
        bus = TelemetryBus()
        broker = StreamBroker(bus)
        broker.attach()
        campaigns = broker.client(categories=["campaign"])
        everything = broker.client()
        _publish(bus, 2, category="campaign")
        _publish(bus, 3, category="diag", start=2)
        assert len(campaigns.poll(max_events=10)["events"]) == 2
        assert len(everything.poll(max_events=10)["events"]) == 5

    def test_slow_consumer_accounting_is_exact(self):
        bus = TelemetryBus()
        broker = StreamBroker(bus)
        broker.attach()
        slow = broker.client(capacity=2)
        fast = broker.client(capacity=64)
        _publish(bus, 20)
        stats = broker.stats()
        assert stats["seq"] == 20
        assert stats["unaccounted"] == 0
        by_id = {s["client"]: s for s in stats["per_client"]}
        assert by_id[slow.client_id]["dropped"] == 18
        assert by_id[fast.client_id]["dropped"] == 0
        assert stats["dropped"] == 18

    def test_unknown_client_id_reregisters(self):
        broker = StreamBroker(TelemetryBus())
        first = broker.client()
        assert first.client_id == "c-1"
        # Same id after eviction/restart: a fresh buffer, no error.
        again = broker.client(client_id="c-99")
        assert again.client_id == "c-99"
        assert broker.client(client_id="c-1") is first


# -- command pump --------------------------------------------------------------


class TestCommandPump:
    def test_submissions_execute_fifo_on_the_pumping_thread(self):
        fleet = make_fleet(size=1)
        pump = CommandPump(fleet.sim)
        order = []

        def submit(tag):
            def job():
                order.append((tag, threading.get_ident()))
                return Response.success(tag)
            assert pump.submit(job, timeout_s=10.0).unwrap() == tag

        workers = [
            threading.Thread(target=submit, args=(i,)) for i in range(4)
        ]
        for w in workers:
            w.start()
        deadline = time.monotonic() + 10.0
        while pump.executed < 4 and time.monotonic() < deadline:
            pump.pump()
        for w in workers:
            w.join(timeout=5.0)
        assert pump.executed == 4
        # All four ran on *this* thread, in submission order per worker.
        assert {ident for _, ident in order} == {threading.get_ident()}

    def test_scheduled_ticks_service_requests_during_run_for(self):
        from repro.sim.kernel import SECOND

        fleet = make_fleet(size=1)
        pump = CommandPump(fleet.sim)
        pump.attach()
        result = {}

        def submit():
            result["value"] = pump.submit(
                lambda: Response.success(fleet.sim.now), timeout_s=10.0
            ).unwrap()

        worker = threading.Thread(target=submit)
        worker.start()
        # Pump ticks are ordinary kernel events: run_for services them.
        deadline = time.monotonic() + 10.0
        while "value" not in result and time.monotonic() < deadline:
            fleet.sim.run_for(SECOND)
        worker.join(timeout=5.0)
        # The closure ran on the sim thread at a real event boundary.
        assert isinstance(result["value"], int) and result["value"] > 0
        pump.detach()

    def test_submit_times_out_when_nothing_pumps(self):
        fleet = make_fleet(size=1)
        pump = CommandPump(fleet.sim)
        with pytest.raises(GatewayTimeout, match="advancing the simulator"):
            pump.submit(lambda: Response.success(), timeout_s=0.05)

    def test_detach_rejects_queued_commands(self):
        fleet = make_fleet(size=1)
        pump = CommandPump(fleet.sim)
        pump.attach()
        errors = []

        def submit():
            try:
                pump.submit(lambda: Response.success(), timeout_s=10.0)
            except GatewayTimeout as exc:
                errors.append(exc)

        worker = threading.Thread(target=submit)
        worker.start()
        time.sleep(0.05)  # let the submit land in the queue
        pump.detach()
        worker.join(timeout=5.0)
        assert len(errors) == 1 and "detached" in str(errors[0])

    def test_handler_exceptions_propagate_to_the_submitter(self):
        fleet = make_fleet(size=1)
        pump = CommandPump(fleet.sim)

        def submit():
            with pytest.raises(RuntimeError, match="boom"):
                pump.submit(
                    lambda: (_ for _ in ()).throw(RuntimeError("boom")),
                    timeout_s=10.0,
                )

        worker = threading.Thread(target=submit)
        worker.start()
        deadline = time.monotonic() + 10.0
        while pump.executed < 1 and time.monotonic() < deadline:
            pump.pump()
        worker.join(timeout=5.0)
        assert pump.executed == 1


# -- the served gateway --------------------------------------------------------


@pytest.fixture()
def served():
    """A 4-vehicle fleet served over HTTP with a live driver thread."""
    fleet = make_fleet(size=4)
    gateway = FleetGateway(fleet).start(drive=True)
    try:
        yield fleet, gateway, FleetClient(gateway.base_url)
    finally:
        gateway.stop()


def _await_terminal(client, campaign_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    terminal = {"succeeded", "rolled_back", "halted", "timed_out"}
    while time.monotonic() < deadline:
        record = client.campaign(campaign_id)
        if record["status"] in terminal:
            return record
        time.sleep(0.05)
    raise AssertionError(f"campaign {campaign_id} never finished")


class TestGatewayHTTP:
    def test_health_and_vehicle_reads(self, served):
        fleet, gateway, client = served
        health = client.health()
        assert health["vehicles"] == 4 and health["apps"] == 1
        rows = client.vehicles()
        assert [row["vin"] for row in rows] == fleet.vins
        one = client.vehicle(fleet.vins[0])
        assert one["vin"] == fleet.vins[0]
        assert one["region"] == "eu-north"

    def test_errors_carry_codes_and_statuses(self, served):
        fleet, gateway, client = served
        with pytest.raises(ApiError) as excinfo:
            client.vehicle("VIN-NOPE")
        assert excinfo.value.code is ErrorCode.UNKNOWN_ENTITY
        # Unknown routes answer with the route table, not a bare 404.
        response = client.request("GET", "/v1/nope")
        assert response.code is ErrorCode.UNKNOWN_ENTITY
        assert "GET /v1/vehicles" in response.value["routes"]
        # Malformed bodies are rejected as INVALID_REQUEST.
        response = client.request(
            "POST", "/v1/deployments", body={"not": "a deploy"}
        )
        assert response.code is ErrorCode.INVALID_REQUEST

    def test_kept_alive_connection_does_not_stall(self, served):
        # With Nagle's algorithm on, each response body on a reused
        # connection waits for the client's delayed ACK (~40 ms).
        fleet, gateway, client = served
        split = urlsplit(gateway.base_url)
        conn = http.client.HTTPConnection(split.hostname, split.port, 10)
        paths = ("/v1/health", f"/v1/vehicles/{fleet.vins[0]}")
        try:
            start = time.perf_counter()
            for index in range(20):
                conn.request("GET", paths[index % 2])
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            mean_ms = (time.perf_counter() - start) * 1000 / 20
        finally:
            conn.close()
        assert mean_ms < 20, f"{mean_ms:.1f} ms per kept-alive response"

    def test_selector_queries_match_in_process_results(self, served):
        fleet, gateway, client = served
        # Let boot finish first: until every vehicle is connected the
        # fleet is still mutating and the two query paths could observe
        # different instants.  Steady state is race-free.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if all(row["online"] for row in client.vehicles()):
                break
            time.sleep(0.02)
        selectors = [
            S.region("eu-north"),
            S.model(MODEL),
            S.vins(fleet.vins[:2]),
            S.region("eu-north") & S.model(MODEL),
            ~S.region("eu-north"),
        ]
        for selector in selectors:
            local = [
                row.to_dict()
                for row in fleet.api.vehicles.query(selector).unwrap()
            ]
            assert client.query(selector) == local, selector
        assert client.query(None) == [
            row.to_dict() for row in fleet.api.vehicles.query(None).unwrap()
        ]

    def test_deploy_and_status_over_http(self, served):
        fleet, gateway, client = served
        vins = fleet.vins[:2]
        outcome = client.deploy(APP, vins)
        assert outcome["accepted"] == 2 and outcome["all_accepted"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status = client.deployment_status(vins[0], APP)
            if status["status"] == "active" and status["acked"]:
                break
            time.sleep(0.05)
        assert status["status"] == "active"
        assert status["acked"] >= 1 and status["failed"] == 0
        with pytest.raises(ApiError) as excinfo:
            client.deployment_status(fleet.vins[-1], APP)
        assert excinfo.value.code is ErrorCode.NOT_INSTALLED

    def test_campaign_driven_and_observed_entirely_over_http(self, served):
        fleet, gateway, client = served
        # Register the stream *before* staging so no event is missed.
        first = client.poll_events(categories=("campaign",), timeout_s=0.0)
        assert first["client"] == "c-1" and first["events"] == []

        record = client.stage_campaign(soaked_spec())
        campaign_id = record["campaign_id"]
        assert record["status"] in {"staged", "running"}

        final = _await_terminal(client, campaign_id)
        assert final["status"] == "succeeded"
        report = final["report"]
        updated = sum(
            1 for d in report["dispositions"].values() if d == "updated"
        )
        assert updated == 4

        # The soak verdicts and wave promotions were observable live.
        names = []
        after = first["next_after"]
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            batch = client.poll_events(after=after, timeout_s=0.2)
            names += [e["name"] for e in batch["events"]]
            after = batch["next_after"]
            if "campaign_done" in names:
                break
        assert names.count("soak_passed") == 2
        assert names.count("wave_started") == 2
        assert "campaign_done" in names
        # Everything listed is campaign-category (the filter held).
        assert client.campaigns(status="succeeded")[0]["campaign_id"] == (
            campaign_id
        )

    def test_metrics_endpoint_serves_shared_registry(self, served):
        fleet, gateway, client = served
        client.health()
        client.vehicles()
        snapshot = client.metrics()
        counters = snapshot["metrics"]["counters"]
        assert counters["gateway.requests"] >= 2
        assert counters["gateway.requests.GET /v1/health.200"] >= 1
        assert counters["gateway.commands"] >= 2
        # The snapshot is the same registry FleetAPI owns.
        assert (
            fleet.api.metrics.counter_value("gateway.requests")
            >= counters["gateway.requests"]
        )
        assert snapshot["stream"]["unaccounted"] == 0
        # Bus snapshot rides along, per-category accounting intact.
        for accounting in snapshot["bus"].values():
            assert {"published", "retained", "dropped"} <= set(accounting)

    def test_double_start_rejected_and_base_url_requires_start(self):
        fleet = make_fleet(size=1)
        gateway = FleetGateway(fleet)
        with pytest.raises(ConfigurationError):
            gateway.base_url
        gateway.start(drive=True)
        try:
            with pytest.raises(ConfigurationError):
                gateway.start()
        finally:
            gateway.stop()


class TestReplayIdentity:
    def test_gateway_attachment_does_not_change_one_byte(self):
        spec = soaked_spec()
        faults = FaultPlan(
            seed=5, soak_trap_vins={"VIN-0001"}, soak_trap_count=8
        )

        def run(with_gateway):
            fleet = make_fleet(size=4, seed=7)
            gateway = None
            if with_gateway:
                gateway = FleetGateway(fleet)
                gateway.attach()  # pump ticks + bus tap, no HTTP traffic
            report = fleet.stage_campaign(spec, faults=faults).run()
            if gateway is not None:
                gateway.detach()
            return json.dumps(report.to_dict(), sort_keys=True)

        without = run(with_gateway=False)
        with_attached = run(with_gateway=True)
        assert without == with_attached
        assert json.loads(without)["status"] == "rolled_back"

    def test_attached_broker_observes_the_replayed_run(self):
        fleet = make_fleet(size=4, seed=7)
        gateway = FleetGateway(fleet)
        gateway.attach()
        client = gateway.broker.client(categories=["campaign"])
        report = fleet.stage_campaign(soaked_spec()).run()
        assert report.status == "succeeded"
        batch = client.poll(max_events=200)
        names = [e["name"] for e in batch["events"]]
        assert "campaign_done" in names and "soak_passed" in names
        assert client.stats()["unaccounted"] == 0
        gateway.detach()


# -- app store over HTTP -------------------------------------------------------


def _make_app(name, source, ports=("in", "out")):
    from repro.server.models import (
        App,
        ConnectionKind,
        ConnectionSpec,
        PluginDescriptor,
        SwConf,
    )
    from tests.helpers import make_binary

    plugin = PluginDescriptor(f"{name}_p", make_binary(source), tuple(ports))
    conf = SwConf(
        model=MODEL,
        placements=((plugin.name, "swc2"),),
        connections=(
            ConnectionSpec(
                ConnectionKind.VIRTUAL, plugin.name, "out", target_virtual="V4"
            ),
        ),
    )
    return App(name, "1.0", {plugin.name: plugin}, [conf])


GOOD_SOURCE = ".entry on_message\n    WRPORT 1\n    HALT\n"
BAD_SOURCE = ".entry on_message\n    WRPORT 9\n    HALT\n"


class TestAppStoreHTTP:
    def test_upload_and_verification_round_trip(self, served):
        fleet, gateway, client = served
        outcome = client.upload_app(_make_app("http-good", GOOD_SOURCE))
        assert outcome["name"] == "http-good"
        verification = client.verification("http-good")
        assert verification["ok"] and verification["app_name"] == "http-good"
        report = verification["reports"]["http-good_p"]
        assert report["verdict"] in {"ok", "clean"}
        # The gateway serves the same record the in-process store holds.
        local = fleet.api.store.verification("http-good").unwrap()
        assert verification == local.to_dict()

    def test_bad_binary_rejected_with_verification_failed(self, served):
        fleet, gateway, client = served
        bad = _make_app("http-bad", BAD_SOURCE)
        with pytest.raises(ApiError) as excinfo:
            client.upload_app(bad)
        assert excinfo.value.code is ErrorCode.VERIFICATION_FAILED
        assert HTTP_STATUS[ErrorCode.VERIFICATION_FAILED] == 422
        assert any("port_bounds" in r for r in excinfo.value.reasons)
        # Never entered the store: deploys against it find no app.
        outcome = client.deploy("http-bad", fleet.vins[:1])
        assert outcome["accepted"] == 0 and not outcome["all_accepted"]
        # But the failed verification stays queryable for diagnosis.
        verification = client.verification("http-bad")
        assert not verification["ok"]

    def test_preexisting_app_verification_served(self, served):
        fleet, gateway, client = served
        verification = client.verification(APP)
        assert verification["ok"] and verification["clean"]

    def test_unknown_app_verification_404(self, served):
        fleet, gateway, client = served
        with pytest.raises(ApiError) as excinfo:
            client.verification("nope")
        assert excinfo.value.code is ErrorCode.UNKNOWN_ENTITY

    def test_malformed_app_body_invalid_request(self, served):
        fleet, gateway, client = served
        response = client.request(
            "POST", "/v1/apps", body={"app": {"name": "x"}}
        )
        assert response.code is ErrorCode.INVALID_REQUEST
