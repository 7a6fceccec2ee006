"""Unit tests for tracing, metrics, and seeded randomness."""

import pytest

from repro.sim import LatencyStats, SeededStream, StreamFactory, Tracer
from repro.sim.random import derive_seed


class TestTracer:
    def test_emit_and_count(self):
        tracer = Tracer()
        tracer.emit(10, "rte", "write", port="p1")
        tracer.emit(20, "rte", "write", port="p2")
        tracer.emit(30, "rte", "read", port="p1")
        assert tracer.count("rte") == 3
        assert tracer.count("rte", "write") == 2

    def test_select_filters_by_data(self):
        tracer = Tracer()
        tracer.emit(10, "rte", "write", port="p1")
        tracer.emit(20, "rte", "write", port="p2")
        points = tracer.select("rte", "write", port="p2")
        assert len(points) == 1
        assert points[0].time == 20

    def test_disabled_tracer_counts_but_stores_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.emit(10, "can", "tx_start", can_id=5)
        assert tracer.count("can", "tx_start") == 1
        assert tracer.points == []

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(10, "a", "b")
        tracer.clear()
        assert tracer.count("a") == 0
        assert tracer.points == []

    def test_pair_latencies_fifo_matching(self):
        tracer = Tracer()
        tracer.emit(100, "net", "send", msg=1)
        tracer.emit(150, "net", "send", msg=2)
        tracer.emit(300, "net", "deliver", msg=1)
        tracer.emit(500, "net", "deliver", msg=2)
        lats = tracer.pair_latencies(
            ("net", "send"), ("net", "deliver"), key="msg"
        )
        assert lats == [200, 350]

    def test_pair_latencies_unmatched_end_ignored(self):
        tracer = Tracer()
        tracer.emit(300, "net", "deliver", msg=9)
        assert tracer.pair_latencies(
            ("net", "send"), ("net", "deliver"), key="msg"
        ) == []


class TestLatencyStats:
    def test_basic_statistics(self):
        stats = LatencyStats.from_samples([10, 20, 30, 40, 50])
        assert stats.count == 5
        assert stats.minimum == 10
        assert stats.maximum == 50
        assert stats.mean == 30
        assert stats.median == 30

    def test_p95_near_top(self):
        stats = LatencyStats.from_samples(range(1, 101))
        assert stats.p95 >= 95

    def test_single_sample(self):
        stats = LatencyStats.from_samples([42])
        assert stats.stdev == 0.0
        assert stats.p95 == 42

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats.from_samples([])

    def test_as_row_keys(self):
        row = LatencyStats.from_samples([1, 2, 3]).as_row()
        assert set(row) == {"n", "min_us", "mean_us", "median_us", "p95_us", "max_us"}


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

    def test_expovariate_nonnegative(self):
        stream = SeededStream(0, "e")
        assert all(stream.expovariate_us(1000) >= 0 for _ in range(100))

    def test_expovariate_zero_mean(self):
        assert SeededStream(0, "e").expovariate_us(0) == 0

    def test_shuffle_does_not_mutate(self):
        stream = SeededStream(0, "s")
        items = [1, 2, 3, 4, 5]
        out = stream.shuffle(items)
        assert items == [1, 2, 3, 4, 5]
        assert sorted(out) == items

    def test_factory_caches_streams(self):
        factory = StreamFactory(3)
        assert factory.stream("x") is factory.stream("x")
