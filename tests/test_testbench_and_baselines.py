"""Tests for the plug-in test bench, the reflash baseline, analysis."""

import pytest

from repro.analysis import format_table, speedup, us_to_ms
from repro.baselines import (
    ReflashCampaign,
    ReflashParameters,
    ota_reflash_time_us,
    workshop_reflash_time_us,
)
from repro.core import PluginTestBench
from repro.network.channel import ChannelProfile
from repro.sim import SECOND
from tests.helpers import ECHO_SOURCE, FORWARD_SOURCE, RUNAWAY_SOURCE, TICKER_SOURCE


class TestPluginTestBench:
    def test_forward_plugin(self):
        bench = PluginTestBench.from_source(FORWARD_SOURCE)
        bench.message(0, 99)
        assert bench.report.writes_on(1) == [99]

    def test_echo_increments(self):
        bench = PluginTestBench.from_source(ECHO_SOURCE)
        bench.init()
        bench.message(0, 41)
        assert bench.report.writes_on(1) == [42]

    def test_timer_driven_plugin(self):
        bench = PluginTestBench.from_source(TICKER_SOURCE)
        for __ in range(4):
            bench.timer()
        assert bench.report.writes_on(0) == [1, 2, 3, 4]

    def test_missing_entry_is_noop(self):
        bench = PluginTestBench.from_source(FORWARD_SOURCE)
        assert bench.init() is False  # FORWARD has no on_init
        assert bench.report.activations == 0

    def test_runaway_traps_recorded(self):
        bench = PluginTestBench.from_source(
            RUNAWAY_SOURCE, fuel_per_activation=200
        )
        assert bench.message(0, 1) is False
        assert bench.report.traps == 1
        assert "fuel" in bench.report.trap_messages[0]

    def test_queue_and_recv(self):
        source = """
        .entry on_timer
            RECV 0
            WRPORT 1
            HALT
        """
        bench = PluginTestBench.from_source(source)
        bench.queue_value(0, 7)
        bench.queue_value(0, 8)
        bench.timer()
        bench.timer()
        bench.timer()  # queue empty -> RECV yields 0
        assert bench.report.writes_on(1) == [7, 8, 0]

    def test_set_port_feeds_rdport(self):
        source = """
        .entry on_timer
            RDPORT 0
            WRPORT 1
            HALT
        """
        bench = PluginTestBench.from_source(source)
        bench.timer()
        bench.set_port(0, 42)
        bench.timer()
        assert bench.report.writes_on(1) == [0, 42]

    def test_time_instruction(self):
        source = """
        .entry on_timer
            TIME
            WRPORT 0
            HALT
        """
        bench = PluginTestBench.from_source(source)
        bench.timer()
        bench.advance_time(500)
        bench.timer()
        assert bench.report.writes_on(0) == [0, 500]

    def test_run_script_convenience(self):
        bench = PluginTestBench.from_source(FORWARD_SOURCE)
        report = bench.run_script([(0, 1), (0, 2), (0, 3)])
        assert report.writes_on(1) == [1, 2, 3]

    def test_from_bytes_matches_from_source(self):
        from repro.vm.loader import compile_plugin

        raw = compile_plugin(FORWARD_SOURCE).raw
        bench = PluginTestBench.from_bytes(raw)
        bench.message(0, 5)
        assert bench.report.writes_on(1) == [5]

    def test_fuel_accounting(self):
        bench = PluginTestBench.from_source(FORWARD_SOURCE)
        bench.message(0, 1)
        assert bench.report.fuel_used > 0


class TestReflashBaseline:
    def test_ota_time_components(self):
        params = ReflashParameters(
            image_size=1024 * 1024,
            flash_rate=1024 * 1024,  # 1 s flashing
            reboot_us=2 * SECOND,
            channel=ChannelProfile(latency_us=0, bytes_per_us=1.0),
            download_efficiency=1.0,
        )
        # download ~1.05 s (1 MiB at 1 B/us) + 1 s flash + 2 s reboot
        total = ota_reflash_time_us(params)
        assert 3.9 * SECOND < total < 4.3 * SECOND

    def test_bigger_image_takes_longer(self):
        small = ota_reflash_time_us(ReflashParameters(image_size=1 << 20))
        big = ota_reflash_time_us(ReflashParameters(image_size=8 << 20))
        assert big > 4 * small

    def test_workshop_dominated_by_visit(self):
        params = ReflashParameters()
        total = workshop_reflash_time_us(params)
        assert total > 23 * 3600 * SECOND

    def test_zero_bandwidth_channel_means_no_download_term(self):
        params = ReflashParameters(
            channel=ChannelProfile(latency_us=100, bytes_per_us=0.0)
        )
        total = ota_reflash_time_us(params)
        flashing = params.image_size / params.flash_rate * SECOND
        assert total == pytest.approx(
            200 + flashing + params.reboot_us, rel=0.01
        )

    def test_campaign_parallelism(self):
        campaign = ReflashCampaign(ReflashParameters(), ecus_per_vehicle=2)
        per_vehicle = campaign.vehicle_time_us()
        assert campaign.fleet_time_us(100) == per_vehicle  # fully parallel
        assert campaign.fleet_time_us(100, parallelism=10) == 10 * per_vehicle
        assert campaign.fleet_time_us(5, parallelism=10) == per_vehicle


class TestAnalysis:
    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"], [["a", 1], ["long-name", 22]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert all(len(l) == len(lines[2]) for l in lines[2:])

    def test_float_rendering(self):
        out = format_table(["x"], [[3.14159], [123.456]])
        assert "3.14" in out
        assert "123" in out

    def test_us_to_ms(self):
        assert us_to_ms(1500) == 1.5

    def test_speedup(self):
        assert speedup(100, 10) == 10
        assert speedup(100, 0) == float("inf")
