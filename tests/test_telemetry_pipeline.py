"""Telemetry pipeline tests: bus, metrics registry, soak policy.

Unit coverage for :mod:`repro.telemetry` plus the hypothesis property
tests the bounded bus is designed around:

* a ring buffer never retains more than its capacity;
* ``published == retained + dropped`` holds per category at all times
  (drop counters exactly account for evicted events);
* retained events preserve FIFO publish order.

Also pins the vacuous-pass guards shared by :class:`HealthPolicy` and
:class:`SoakPolicy`.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import HealthPolicy
from repro.errors import ConfigurationError
from repro.telemetry import (
    MetricsRegistry,
    SoakMonitor,
    SoakPolicy,
    TelemetryBus,
    TelemetryEvent,
    VehicleBaseline,
    WindowedHistogram,
)

# -- bus unit tests ------------------------------------------------------------


class TestTelemetryBus:
    def test_publish_retain_and_query(self):
        bus = TelemetryBus()
        bus.publish("diag", "report", 10, vin="VIN-1", traps=0)
        bus.publish("diag", "report", 20, vin="VIN-2", traps=3)
        bus.publish("deploy", "install_resolved", 30, vin="VIN-1")
        assert bus.published() == 3
        assert bus.published("diag") == 2
        assert bus.retained("deploy") == 1
        assert [e.vin for e in bus.events("diag")] == ["VIN-1", "VIN-2"]
        assert [e.time_us for e in bus.events(vin="VIN-1")] == [30, 10]
        assert bus.events("diag", vin="VIN-2")[0].data["traps"] == 3
        assert bus.categories() == ["deploy", "diag"]

    def test_ring_eviction_counts_drops(self):
        bus = TelemetryBus(default_capacity=2)
        for i in range(5):
            bus.publish("diag", "report", i)
        assert bus.retained("diag") == 2
        assert bus.dropped("diag") == 3
        assert bus.published("diag") == 5
        # Oldest evicted first: the survivors are the two newest.
        assert [e.time_us for e in bus.events("diag")] == [3, 4]

    def test_per_category_capacities_are_independent(self):
        bus = TelemetryBus(default_capacity=8, capacities={"diag": 1})
        for i in range(4):
            bus.publish("diag", "report", i)
            bus.publish("campaign", "tick", i)
        assert bus.retained("diag") == 1 and bus.dropped("diag") == 3
        assert bus.retained("campaign") == 4 and bus.dropped("campaign") == 0

    def test_zero_capacity_is_pure_tap_through(self):
        bus = TelemetryBus(capacities={"noise": 0})
        seen = []
        bus.subscribe(seen.append, categories=("noise",))
        bus.publish("noise", "blip", 1)
        assert bus.retained("noise") == 0
        assert bus.dropped("noise") == 1
        assert len(seen) == 1  # taps see events the ring never keeps

    def test_taps_filter_and_unsubscribe(self):
        bus = TelemetryBus()
        diag_only, everything = [], []
        callback = bus.subscribe(diag_only.append, categories=("diag",))
        bus.subscribe(everything.append)
        bus.publish("diag", "report", 1)
        bus.publish("deploy", "pushed", 2)
        bus.unsubscribe(callback)
        bus.publish("diag", "report", 3)
        assert [e.time_us for e in diag_only] == [1]
        assert [e.time_us for e in everything] == [1, 2, 3]

    def test_shrinking_capacity_evicts_and_counts(self):
        bus = TelemetryBus(default_capacity=4)
        for i in range(4):
            bus.publish("diag", "report", i)
        bus.set_capacity("diag", 2)
        assert bus.retained("diag") == 2
        assert bus.dropped("diag") == 2
        assert [e.time_us for e in bus.events("diag")] == [2, 3]
        bus.publish("diag", "report", 9)
        assert bus.retained("diag") == 2  # new capacity enforced

    def test_snapshot_is_json_ready_and_accounts_exactly(self):
        bus = TelemetryBus(default_capacity=2)
        for i in range(3):
            bus.publish("diag", "report", i)
        snapshot = json.loads(json.dumps(bus.snapshot()))
        assert snapshot["diag"] == {
            "published": 3, "retained": 2, "dropped": 1, "capacity": 2,
        }

    def test_event_to_dict_sorts_data_keys(self):
        event = TelemetryEvent(5, "diag", "report", "VIN-1", {"b": 2, "a": 1})
        assert list(event.to_dict()["data"]) == ["a", "b"]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            TelemetryBus(default_capacity=-1)
        with pytest.raises(ValueError):
            TelemetryBus(capacities={"diag": -2})
        with pytest.raises(ValueError):
            TelemetryBus().set_capacity("diag", -1)


# -- bus property tests --------------------------------------------------------

#: One publish (category, payload) or one capacity override.
_publishes = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 999)),
    max_size=200,
)


class TestBusProperties:
    @given(
        capacity=st.integers(0, 8),
        publishes=_publishes,
    )
    @settings(max_examples=120)
    def test_never_exceeds_capacity_and_drops_account_exactly(
        self, capacity, publishes
    ):
        bus = TelemetryBus(default_capacity=capacity)
        for category, payload in publishes:
            bus.publish(category, "event", payload)
            # Invariants hold after EVERY publish, not just at the end.
            for cat in bus.categories():
                assert bus.retained(cat) <= capacity
                assert bus.published(cat) == (
                    bus.retained(cat) + bus.dropped(cat)
                )
        assert bus.published() == bus.retained() + bus.dropped()

    @given(publishes=_publishes, capacity=st.integers(1, 8))
    @settings(max_examples=120)
    def test_fifo_order_preserved(self, publishes, capacity):
        bus = TelemetryBus(default_capacity=capacity)
        for index, (category, _) in enumerate(publishes):
            bus.publish(category, "event", index)
        for category in bus.categories():
            times = [e.time_us for e in bus.events(category)]
            # Retained events are the most recent publishes to that
            # category, in publish order.
            expected = [
                i for i, (cat, _) in enumerate(publishes) if cat == category
            ][-capacity:]
            assert times == expected

    @given(
        publishes=_publishes,
        capacity=st.integers(0, 8),
        shrink_to=st.integers(0, 8),
    )
    @settings(max_examples=80)
    def test_invariants_survive_capacity_changes(
        self, publishes, capacity, shrink_to
    ):
        bus = TelemetryBus(default_capacity=capacity)
        half = len(publishes) // 2
        for category, payload in publishes[:half]:
            bus.publish(category, "event", payload)
        for category in list(bus.categories()):
            bus.set_capacity(category, shrink_to)
        for category, payload in publishes[half:]:
            bus.publish(category, "event", payload)
        for category in bus.categories():
            assert bus.retained(category) <= max(capacity, shrink_to)
            assert bus.published(category) == (
                bus.retained(category) + bus.dropped(category)
            )


# -- metrics registry ----------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("installs")
        registry.inc("installs", 2)
        registry.set_gauge("outbox_bytes", 4096)
        for value in (10, 20, 30, 40):
            registry.observe("latency", value)
        assert registry.counter_value("installs") == 3
        assert registry.counter_value("never") == 0
        assert registry.gauge_value("outbox_bytes") == 4096
        assert registry.gauge_value("missing") is None
        assert registry.samples("latency") == [10, 20, 30, 40]
        summary = registry.summary()
        assert summary["installs"] == 3
        assert summary["latency.count"] == 4
        assert summary["latency.mean"] == 25
        assert dict(iter(registry))["installs"] == 3

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("x", -1)

    def test_histogram_sample_ring_is_bounded(self):
        hist = WindowedHistogram("lat", max_samples=4)
        for value in range(10):
            hist.observe(value)
        assert hist.count == 4
        assert hist.observed == 10
        assert hist.values() == [6, 7, 8, 9]

    def test_histogram_time_window_prunes(self):
        hist = WindowedHistogram("lat", window_us=100)
        hist.observe(1, time_us=0)
        hist.observe(2, time_us=50)
        hist.observe(3, time_us=200)  # 0 and 50 now out of window
        assert hist.values() == [3]
        assert hist.observed == 3

    def test_quantiles_are_nearest_rank(self):
        hist = WindowedHistogram("lat")
        for value in (5, 1, 3, 2, 4):
            hist.observe(value)
        assert hist.quantile(0.0) == 1
        assert hist.quantile(0.5) == 3
        assert hist.quantile(1.0) == 5
        assert hist.quantile(0.95) == 5
        assert WindowedHistogram("empty").quantile(0.5) is None

    def test_snapshot_is_deterministic_json(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        registry.observe("lat", 7)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["histograms"]["lat"]["count"] == 1


# -- soak policy ---------------------------------------------------------------


def _monitor(*reports):
    """Build a monitor over the VINs mentioned and feed it reports."""
    monitor = SoakMonitor({vin for vin, *_ in reports})
    for vin, traps, activations, memory in reports:
        monitor.observe(vin, "swc", traps, activations, memory)
    return monitor


class TestSoakPolicy:
    def test_clean_window_passes(self):
        policy = SoakPolicy(max_trap_delta=0, min_samples=1)
        baseline = {"VIN-1": VehicleBaseline("VIN-1", traps=2)}
        verdict = policy.evaluate(baseline, _monitor(("VIN-1", 2, 50, 4)))
        assert verdict.passed and verdict.checked == 1

    def test_trap_growth_breaches(self):
        policy = SoakPolicy(max_trap_delta=1)
        baseline = {"VIN-1": VehicleBaseline("VIN-1", traps=2)}
        verdict = policy.evaluate(baseline, _monitor(("VIN-1", 9, 50, 4)))
        assert not verdict.passed
        assert verdict.anomalies[0][0] == "VIN-1"
        assert "trap delta 7" in verdict.anomalies[0][1]

    def test_memory_growth_breaches_only_when_enabled(self):
        baseline = {"VIN-1": VehicleBaseline("VIN-1", memory_used_blocks=4)}
        grown = _monitor(("VIN-1", 0, 5, 20))
        assert SoakPolicy().evaluate(baseline, grown).passed
        policy = SoakPolicy(max_memory_growth_blocks=10)
        verdict = policy.evaluate(baseline, grown)
        assert not verdict.passed
        assert "memory growth 16 blocks" in verdict.anomalies[0][1]

    def test_silent_vehicle_is_anomalous(self):
        policy = SoakPolicy(min_samples=1)
        monitor = SoakMonitor(["VIN-1", "VIN-2"])
        monitor.observe("VIN-1", "swc", 0, 10, 4)
        verdict = policy.evaluate({}, monitor)
        assert not verdict.passed
        assert verdict.anomalies[0][0] == "VIN-2"
        assert "insufficient telemetry" in verdict.anomalies[0][1]

    def test_anomalous_fraction_tolerance(self):
        policy = SoakPolicy(max_anomalous_fraction=0.5)
        monitor = SoakMonitor(["VIN-1", "VIN-2"])
        monitor.observe("VIN-1", "swc", 9, 10, 4)  # anomalous
        monitor.observe("VIN-2", "swc", 0, 10, 4)  # clean
        verdict = policy.evaluate({}, monitor)
        assert len(verdict.anomalies) == 1 and verdict.passed

    def test_multi_swc_totals_are_summed(self):
        monitor = SoakMonitor(["VIN-1"])
        monitor.observe("VIN-1", "swc-a", 1, 10, 4)
        monitor.observe("VIN-1", "swc-b", 2, 20, 8)
        monitor.observe("VIN-1", "swc-a", 3, 30, 4, fuel_used=100)
        # Latest report per SW-C wins; fuel rides as the fourth total.
        assert monitor.totals("VIN-1") == (5, 50, 12, 100)
        assert monitor.samples("VIN-1") == 3

    def test_unmonitored_vins_ignored(self):
        monitor = SoakMonitor(["VIN-1"])
        assert not monitor.observe("VIN-9", "swc", 0, 0, 0)
        assert monitor.total_samples == 0

    def test_zero_vehicles_pass_vacuously(self):
        # Mirrors HealthPolicy.breaches on an empty wave: nothing to
        # divide by, nothing to measure — and no ZeroDivisionError.
        verdict = SoakPolicy().evaluate({}, SoakMonitor([]))
        assert verdict.passed and verdict.checked == 0

    def test_health_policy_empty_wave_regression(self):
        # Regression pin: the health gate must stay division-safe when a
        # wave attempted zero vehicles.
        assert HealthPolicy().breaches(0, 0, 0, 0) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SoakPolicy(window_us=0)
        with pytest.raises(ConfigurationError):
            SoakPolicy(sample_interval_us=0)
        with pytest.raises(ConfigurationError):
            SoakPolicy(window_us=10, sample_interval_us=20)
        with pytest.raises(ConfigurationError):
            SoakPolicy(max_trap_delta=-1)
        with pytest.raises(ConfigurationError):
            SoakPolicy(max_memory_growth_blocks=-1)
        with pytest.raises(ConfigurationError):
            SoakPolicy(max_anomalous_fraction=1.5)
        with pytest.raises(ConfigurationError):
            SoakPolicy(min_samples=-1)

    def test_round_trips_through_dict(self):
        policy = SoakPolicy(
            window_us=3_000_000,
            sample_interval_us=250_000,
            max_trap_delta=2,
            max_memory_growth_blocks=32,
            max_anomalous_fraction=0.25,
            min_samples=3,
        )
        assert SoakPolicy.from_dict(policy.to_dict()) == policy
        data = json.loads(json.dumps(policy.to_dict()))
        assert SoakPolicy.from_dict(data) == policy
        # Old payloads without the optional memory bound still load.
        trimmed = dict(policy.to_dict())
        del trimmed["max_memory_growth_blocks"]
        assert SoakPolicy.from_dict(trimmed).max_memory_growth_blocks is None
