"""Campaign orchestration tests: waves, gates, rollback, determinism.

Covers the `repro.campaign` subsystem end to end — property-style wave
partition invariants, deterministic replay under fault injection, every
wave policy across fleet sizes (with a wall-clock ceiling on the
50-vehicle staged rollout), health gates halting promotion with scoped
rollback, the 100-vehicle staged acceptance scenario — plus the pusher
robustness and ack-progress fixes the engine depends on.
"""

import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CampaignSpec,
    Disposition,
    ExponentialWaves,
    FaultPlan,
    FixedWaves,
    HealthPolicy,
    PercentageWaves,
    RollbackPolicy,
    build_fleet,
)
from repro.core import messages as msg
from repro.errors import ConfigurationError
from repro.fes import canary_campaign
from repro.fes.example_platform import PHONE_ADDRESS, make_remote_control_app
from repro.network.sockets import NetworkFabric
from repro.server.models import InstallStatus
from repro.server.pusher import Pusher
from repro.sim import SECOND, Simulator

APP = "remote-control"


def make_fleet(size, seed=3):
    fleet = build_fleet(size, seed=seed)
    fleet.server.api.store.upload(
        make_remote_control_app(PHONE_ADDRESS)
    ).unwrap()
    return fleet


# -- wave partitioning ---------------------------------------------------------


def vins_of(n):
    return [f"VIN-{i:04d}" for i in range(n)]


def no_records(vin):
    raise AssertionError("count-based wave policies never resolve a VIN")


def assert_exact_partition(policy, vins):
    waves = policy.partition(vins, no_records)
    flattened = [vin for wave in waves for vin in wave]
    assert flattened == list(vins)  # every VIN exactly once, in order
    assert all(wave for wave in waves)  # no empty waves


class TestWavePartitioning:
    @given(n=st.integers(0, 400), size=st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_fixed_partitions_exactly_once(self, n, size):
        assert_exact_partition(FixedWaves(size), vins_of(n))

    @given(
        n=st.integers(0, 400),
        fractions=st.lists(
            st.floats(0.01, 1.0, allow_nan=False), min_size=1, max_size=5
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_percentage_partitions_exactly_once(self, n, fractions):
        ordered = tuple(sorted(set(round(f, 3) for f in fractions)))
        assert_exact_partition(PercentageWaves(ordered), vins_of(n))

    @given(
        n=st.integers(0, 400),
        initial=st.integers(1, 20),
        factor=st.integers(2, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_exponential_partitions_exactly_once(self, n, initial, factor):
        assert_exact_partition(ExponentialWaves(initial, factor), vins_of(n))

    def test_percentage_cuts_match_acceptance_shape(self):
        waves = PercentageWaves((0.05, 0.25, 1.0)).partition(
            vins_of(100), no_records
        )
        assert [len(w) for w in waves] == [5, 20, 75]

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedWaves(0)
        with pytest.raises(ConfigurationError):
            PercentageWaves((0.5, 0.25))
        with pytest.raises(ConfigurationError):
            PercentageWaves((0.0,))
        with pytest.raises(ConfigurationError):
            ExponentialWaves(factor=1)
        with pytest.raises(ConfigurationError):
            RollbackPolicy(scope="undo-everything")
        with pytest.raises(ConfigurationError):
            CampaignSpec(app_name="")
        with pytest.raises(ConfigurationError):
            CampaignSpec(app_name="x", retry_budget=-1)


# -- deterministic replay ------------------------------------------------------


def _replay_run():
    fleet = make_fleet(10)
    spec = canary_campaign(
        APP, fractions=(0.2, 1.0), max_failure_rate=0.5,
        retry_budget=1, wave_timeout_us=4 * SECOND,
    )
    faults = FaultPlan(
        seed=11, drop_rate=0.15, install_failure_rate=0.1,
        doomed_vins={"VIN-0007"},
    )
    return fleet.run_campaign(spec, faults=faults)


@pytest.fixture(scope="module")
def replay_pair():
    """Two fresh platforms, same seed, same spec, same fault plan."""
    return _replay_run(), _replay_run()


class TestDeterministicReplay:
    def test_same_seed_same_report(self, replay_pair):
        first, second = replay_pair
        assert first.to_dict() == second.to_dict()
        # The dict rendering is the full contract: waves, dispositions,
        # and the event timeline all match, including timestamps.
        assert first.events and first.to_dict()["events"][0]["time_us"] >= 0

    def test_report_accounts_for_every_target(self, replay_pair):
        report, __ = replay_pair
        assert sorted(report.dispositions) == vins_of(10)
        assert report.dispositions["VIN-0007"] is Disposition.NEEDS_WORKSHOP


# -- health gates and rollback -------------------------------------------------


class TestHealthGatesAndRollback:
    def test_failure_below_threshold_promotes(self):
        fleet = make_fleet(12)
        spec = canary_campaign(
            APP, fractions=(0.25, 1.0), max_failure_rate=0.2
        )
        report = fleet.run_campaign(
            spec, faults=FaultPlan(seed=7, doomed_vins={"VIN-0005"})
        )
        assert report.status == "succeeded"
        assert report.updated == 11
        assert report.needs_workshop == 1
        assert not report.waves[0].breaches and not report.waves[1].breaches
        # The failed vehicle's record was abandoned server-side.
        assert fleet.installation_status("VIN-0005", APP) is None

    def test_breach_rolls_back_affected_wave_only(self):
        fleet = make_fleet(12)
        spec = canary_campaign(
            APP, fractions=(0.25, 1.0), max_failure_rate=0.1, retry_budget=0
        )
        faults = FaultPlan(
            seed=7, doomed_vins={"VIN-0004", "VIN-0006", "VIN-0008"}
        )
        report = fleet.run_campaign(spec, faults=faults)
        assert report.status == "rolled_back"
        # Canary wave (VIN-0000..0002) passed and is NOT undone.
        canary = report.waves[0]
        assert canary.canary and not canary.breaches
        for vin in canary.vins:
            assert report.dispositions[vin] is Disposition.UPDATED
            assert fleet.installation_status(vin, APP) is InstallStatus.ACTIVE
        # Wave 1 breached: its 6 healthy installs were uninstalled.
        assert report.waves[1].breaches
        assert report.rolled_back == 6
        assert report.needs_workshop == 3
        for vin in report.vins_with(Disposition.ROLLED_BACK):
            assert fleet.installation_status(vin, APP) is None

    def test_campaign_scope_rolls_back_everything(self):
        fleet = make_fleet(12)
        spec = canary_campaign(
            APP, fractions=(0.25, 1.0), max_failure_rate=0.1,
            retry_budget=0, rollback=RollbackPolicy(scope="campaign"),
        )
        faults = FaultPlan(
            seed=7, doomed_vins={"VIN-0004", "VIN-0006", "VIN-0008"}
        )
        report = fleet.run_campaign(spec, faults=faults)
        assert report.status == "rolled_back"
        # Canary vehicles are undone too under campaign scope.
        assert report.rolled_back == 9
        assert report.updated == 0
        assert fleet.active_count(APP) == 0

    def test_scope_none_halts_in_place(self):
        fleet = make_fleet(8)
        spec = canary_campaign(
            APP, fractions=(0.25, 1.0), max_failure_rate=0.1,
            retry_budget=0, rollback=RollbackPolicy(scope="none"),
        )
        faults = FaultPlan(seed=7, doomed_vins={"VIN-0003", "VIN-0005"})
        report = fleet.run_campaign(spec, faults=faults)
        assert report.status == "halted"
        # Healthy installs of the breaching wave stay in place.
        assert report.updated == 2 + 4  # canary 2 + wave-1 survivors 4
        assert fleet.active_count(APP) == 6

    def test_single_wave_campaign_has_no_canary_gate(self):
        # One wave means nothing to promote to: the wave must neither be
        # flagged canary nor be judged by the stricter canary_health.
        fleet = make_fleet(10)
        spec = CampaignSpec(
            app_name=APP,
            waves=FixedWaves(1000),  # whole fleet in one wave
            health=HealthPolicy(max_failure_rate=0.5),
            canary_health=HealthPolicy(max_failure_rate=0.0),
            retry_budget=0,
        )
        report = fleet.run_campaign(
            spec, faults=FaultPlan(seed=5, doomed_vins={"VIN-0001"})
        )
        assert len(report.waves) == 1
        assert not report.waves[0].canary
        # 1/10 failures passes the general gate; the canary gate (which
        # would breach at any failure) must not apply.
        assert report.status == "succeeded"
        assert report.updated == 9

    def test_transient_failure_recovered_by_retry(self):
        # A flaky vehicle NACKs its first attempt (both packages), then
        # behaves.  The retry must be genuinely evaluated: the stale
        # second NACK of attempt 1 may not consume the budget (the
        # engine's retry backoff absorbs it), so the vehicle recovers.
        fleet = make_fleet(4)
        spec = canary_campaign(
            APP, fractions=(0.25, 1.0), max_failure_rate=0.5, retry_budget=1
        )
        faults = FaultPlan(seed=5, flaky_vins={"VIN-0002"})
        report = fleet.run_campaign(spec, faults=faults)
        assert report.status == "succeeded"
        assert report.dispositions["VIN-0002"] is Disposition.UPDATED
        assert report.updated == 4
        assert sum(wave.retries for wave in report.waves) == 1
        assert fleet.installation_status(
            "VIN-0002", APP
        ) is InstallStatus.ACTIVE

    def test_run_timeout_abandons_in_flight_records(self):
        # Hitting run()'s simulated-time budget mid-wave must leave the
        # server consistent with the report: in-flight records are
        # abandoned, so a late ack cannot flip them ACTIVE afterwards.
        fleet = make_fleet(3)
        spec = canary_campaign(APP, fractions=(0.34, 1.0))
        engine = fleet.stage_campaign(spec)
        report = engine.run(timeout_us=50_000)  # far below install RTT
        assert report.status == "timed_out"
        workshop = report.vins_with(Disposition.NEEDS_WORKSHOP)
        assert workshop  # the canary wave was in flight
        for vin in workshop:
            assert fleet.installation_status(vin, APP) is None
        # Even after the stragglers' acks arrive, nothing resurrects.
        fleet.sim.run_for(5 * SECOND)
        assert fleet.active_count(APP) == 0

    def test_lossy_fleet_recovers_through_retries(self):
        fleet = make_fleet(8)
        spec = canary_campaign(
            APP, fractions=(0.25, 1.0), max_timeout_rate=0.5,
            retry_budget=2, wave_timeout_us=10 * SECOND,
        )
        report = fleet.run_campaign(
            spec, faults=FaultPlan(seed=11, drop_rate=0.2)
        )
        assert report.status == "succeeded"
        assert report.updated == 8
        assert sum(wave.retries for wave in report.waves) > 0

    def test_offline_vehicles_catch_up_after_redial(self):
        fleet = make_fleet(6)
        spec = canary_campaign(
            APP, fractions=(0.25, 1.0), max_timeout_rate=0.5,
            retry_budget=2, wave_timeout_us=15 * SECOND,
        )
        faults = FaultPlan(
            seed=5, offline_rate=0.5, offline_duration_us=3 * SECOND
        )
        report = fleet.run_campaign(spec, faults=faults)
        assert report.status == "succeeded"
        assert report.updated == 6


# -- wave policies across fleet sizes ------------------------------------------


def _sweep_cases():
    for size in (10, 25, 50):
        for name, waves in (
            ("blast", FixedWaves(size)),
            ("fixed-10", FixedWaves(10)),
            ("canary-pct", PercentageWaves((0.1, 0.5, 1.0))),
        ):
            repeats = 3 if (name, size) == ("fixed-10", 50) else 1
            spec = replace(canary_campaign(APP), waves=waves)
            yield pytest.param(size, spec, repeats, id=f"{name}-{size}")
    for fraction in (0.1, 0.2, 0.4):
        spec = canary_campaign(APP, fractions=(fraction, 1.0))
        yield pytest.param(30, spec, 1, id=f"canary-{fraction}-30")


class TestWavePolicySweep:
    @pytest.mark.parametrize("size, spec, repeats", _sweep_cases())
    def test_policy_updates_whole_fleet(self, size, spec, repeats):
        walls = []
        for __ in range(repeats):
            fleet = make_fleet(size)
            start = time.perf_counter()
            report = fleet.run_campaign(spec)
            walls.append(time.perf_counter() - start)
            assert report.status == "succeeded"
            assert report.updated == size
        if repeats > 1:
            # Catches an O(n^2) slip in the kernel's event loop.
            assert min(walls) <= 1.5, walls


# -- the acceptance scenario ---------------------------------------------------


def breach_run():
    """100 vehicles, 5% -> 25% -> 100%, fault rate above the gate."""
    fleet = make_fleet(100)
    spec = canary_campaign(
        APP, fractions=(0.05, 0.25, 1.0),
        max_failure_rate=0.1, retry_budget=0,
    )
    faults = FaultPlan(seed=13, install_failure_rate=0.5)
    return fleet, fleet.run_campaign(spec, faults=faults)


class TestStagedHundredVehicleCampaign:
    def test_canary_breach_halts_and_rolls_back(self):
        fleet, report = breach_run()
        assert [len(wave.vins) for wave in report.waves] == [5, 20, 75]
        assert report.status == "rolled_back"
        canary = report.waves[0]
        assert canary.canary and canary.breaches
        assert canary.started_us is not None
        assert canary.resolved_us is not None and canary.duration_us > 0
        # Promotion halted: later waves never started, nothing deployed.
        assert report.waves[1].started_us is None
        assert report.waves[2].started_us is None
        assert report.skipped == 95
        # The canary's healthy installs were rolled back; every targeted
        # vehicle has a final disposition.
        assert report.rolled_back + report.needs_workshop == 5
        assert report.rolled_back > 0 and report.needs_workshop > 0
        assert len(report.dispositions) == 100
        assert fleet.active_count(APP) == 0

    def test_breach_replays_identically(self):
        _, first = breach_run()
        _, second = breach_run()
        assert first.status == "rolled_back" and first.waves[0].breaches
        assert first.to_dict() == second.to_dict()


# -- pusher robustness (satellite) ---------------------------------------------


class TestPusherRobustness:
    def test_disconnect_requeues_in_flight_messages(self):
        fleet = make_fleet(1)
        vin = fleet.vins[0]
        fleet.run(1 * SECOND)  # ECM dials in
        pusher = fleet.server.pusher
        assert pusher.is_connected(vin)
        deployment = fleet.deploy(APP)
        assert deployment.ok
        pushed = deployment.result(vin).pushed_messages
        # Sever the link while the packages are still in flight.
        requeued = pusher.disconnect(vin)
        assert requeued == pushed
        assert pusher.pending_for(vin) == pushed
        assert not pusher.is_connected(vin)
        # The vehicle redials; the outbox flushes; the install completes.
        fleet.sim.run_for(1 * SECOND)
        assert fleet.vehicle(vin).redial()
        elapsed = deployment.wait(30 * SECOND)
        assert elapsed > 0 and deployment.all_active
        assert pusher.pending_for(vin) == 0

    def test_outbox_cap_drops_oldest_and_counts(self):
        pusher = Pusher(
            NetworkFabric(Simulator()), "cap-test:1", outbox_limit=3
        )
        for index in range(5):
            pusher.push("VIN-X", bytes([index]))
        assert pusher.pending_for("VIN-X") == 3
        assert pusher.dropped_messages == 2

    def test_push_to_dead_endpoint_requeues(self):
        fleet = make_fleet(1)
        vin = fleet.vins[0]
        fleet.run(1 * SECOND)
        pusher = fleet.server.pusher
        # The vehicle side closes the link under the server's feet.
        pusher._connections[vin].close()
        pusher.push(vin, b"\x00")
        assert pusher.pending_for(vin) == 1
        assert not pusher.is_connected(vin)

    def test_backlog_flushes_in_push_order_on_redial(self):
        sim = Simulator()
        fabric = NetworkFabric(sim)
        pusher = Pusher(fabric, "flush-test:1")
        received = []
        for index in range(5):
            pusher.push("VIN-X", bytes([index]) * 100)
        assert pusher.pending_for("VIN-X") == 5
        fabric.connect(
            "flush-test:1",
            client_name="VIN-X",
            on_connected=lambda end: end.on_receive(received.append),
        )
        sim.run_for(1 * SECOND)  # handshake + flush
        assert received == [bytes([index]) * 100 for index in range(5)]
        assert pusher.pending_for("VIN-X") == 0
        assert pusher.outbox_bytes == 0

    def test_flush_onto_closed_endpoint_requeues_everything(self):
        class DeadEndpoint:
            closed = True

            def on_receive(self, callback):
                pass

        pusher = Pusher(NetworkFabric(Simulator()), "dead-test:1")
        payloads = [b"a" * 60, b"b" * 40]
        for raw in payloads:
            pusher.push("VIN-X", raw)
        pusher._on_connect(DeadEndpoint(), "VIN-X")
        assert pusher.pushed == 0  # nothing was delivered on a dead link
        assert pusher.pending_for("VIN-X") == len(payloads)
        assert pusher.outbox_bytes == sum(map(len, payloads))
        assert not pusher.is_connected("VIN-X")


# -- installation_progress fix (satellite) -------------------------------------


class TestInstallProgress:
    def test_nack_counts_as_failed_not_pending(self):
        fleet = make_fleet(1)
        vin = fleet.vins[0]
        fleet.run(1 * SECOND)
        deployments = fleet.server.api.deployments
        events = []
        fleet.api.telemetry.subscribe(events.append, ("deploy",))
        result = deployments.deploy(fleet.user_id, vin, APP)
        assert result.ok
        installed = fleet.server.db.installation(vin, APP)
        record = installed.plugins[0]
        nack = msg.AckMessage(
            record.plugin_name, record.swc_name,
            msg.MessageType.INSTALL, msg.AckStatus.BAD_PACKAGE, "boom",
        ).encode()
        fleet.server.pusher.inject_upstream(vin, nack)
        progress = deployments.installation_progress(vin, APP)
        assert progress.failed == 1
        assert progress.acked == 0
        assert progress.pending == progress.total - 1
        status = deployments.installation_status(vin, APP)
        assert status is InstallStatus.FAILED
        # The resolution was published on the bus, not polled.
        assert [
            (e.name, e.vin, InstallStatus(e.data["status"])) for e in events
        ] == [("install_resolved", vin, InstallStatus.FAILED)]

    def test_stale_nack_cannot_demote_active_install(self):
        # A vehicle acks an identical package delivered again OK, so a
        # retry racing a delayed original is not NACKed; the guard is
        # for a NACK that arrives anyway (an injected one here) after
        # the install completed: it must not flip a healthy record to
        # FAILED.
        fleet = make_fleet(1)
        vin = fleet.vins[0]
        deployment = fleet.deploy(APP)
        deployment.wait(30 * SECOND)
        assert deployment.all_active
        deployments = fleet.server.api.deployments
        installed = fleet.server.db.installation(vin, APP)
        record = installed.plugins[0]
        assert record.acked
        stale = msg.AckMessage(
            record.plugin_name, record.swc_name,
            msg.MessageType.INSTALL, msg.AckStatus.LIFECYCLE_ERROR,
            "already installed",
        ).encode()
        fleet.server.pusher.inject_upstream(vin, stale)
        status = deployments.installation_status(vin, APP)
        assert status is InstallStatus.ACTIVE
        progress = deployments.installation_progress(vin, APP)
        assert progress.failed == 0 and progress.acked == progress.total
