"""Unit tests for bus tracing, sample summaries and seeded randomness."""

import pytest

from repro.sim import SeededStream, StreamFactory
from repro.sim.random import derive_seed
from repro.telemetry import TelemetryBus
from repro.telemetry.metrics import summarize


class TestTracer:
    def test_emit_and_count(self):
        tracer = TelemetryBus()
        tracer.publish("rte", "write", 10, port="p1")
        tracer.publish("rte", "write", 20, port="p2")
        tracer.publish("rte", "read", 30, port="p1")
        assert tracer.published("rte") == 3
        assert len(tracer.events("rte", "write")) == 2

    def test_select_filters_by_data(self):
        tracer = TelemetryBus()
        tracer.publish("rte", "write", 10, port="p1")
        tracer.publish("rte", "write", 20, port="p2")
        events = tracer.events("rte", "write", port="p2")
        assert len(events) == 1
        assert events[0].time_us == 20
        assert tracer.events("rte", "write", port="p3") == []

    def test_disabled_tracer_counts_but_stores_nothing(self):
        tracer = TelemetryBus(default_capacity=0)
        tracer.publish("can", "tx_start", 10, can_id=5)
        assert tracer.published("can") == 1
        assert tracer.events() == []

    def test_clear(self):
        tracer = TelemetryBus()
        tracer.publish("a", "b", 10)
        tracer.clear()
        assert tracer.published("a") == 0
        assert tracer.events() == []


class TestSummarize:
    def test_basic_statistics(self):
        stats = summarize([50, 10, 40, 20, 30])
        assert stats == {
            "count": 5, "min": 10, "mean": 30, "p50": 30, "p95": 50,
            "max": 50,
        }

    def test_p95_near_top(self):
        stats = summarize(range(1, 101))
        assert stats["p95"] >= 95

    def test_single_sample(self):
        stats = summarize([42])
        assert stats["p50"] == stats["p95"] == 42

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSeededStream:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_streams_reproducible(self):
        a = SeededStream(7, "chan")
        b = SeededStream(7, "chan")
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_streams_isolated_by_path(self):
        a = SeededStream(7, "chan1")
        b = SeededStream(7, "chan2")
        assert [a.randint(0, 10**9) for _ in range(5)] != [
            b.randint(0, 10**9) for _ in range(5)
        ]

    def test_jitter_never_negative(self):
        stream = SeededStream(0, "j")
        assert all(stream.jitter(5, 100) >= 0 for _ in range(200))

    def test_jitter_zero_spread_returns_base(self):
        stream = SeededStream(0, "j")
        assert stream.jitter(50, 0) == 50

    def test_chance_extremes(self):
        stream = SeededStream(0, "c")
        assert stream.chance(0.0) is False
        assert stream.chance(1.0) is True

    def test_chance_distribution_sane(self):
        stream = SeededStream(0, "c2")
        hits = sum(stream.chance(0.3) for _ in range(5000))
        assert 1200 < hits < 1800

    def test_factory_caches_streams(self):
        factory = StreamFactory(3)
        assert factory.stream("x") is factory.stream("x")
