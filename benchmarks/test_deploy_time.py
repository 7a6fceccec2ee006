"""DEPLOY — dynamic plug-in installation vs classical reflash.

Quantifies the paper's headline motivation: dynamic installation
"would drastically decrease the time to market ... and even allow
feature upgrades in already produced vehicles".  The harness measures
the simulated end-to-end deployment time of the remote-control APP to
fleets of increasing size and compares against the full-ECU-reflash
baseline (OTA and workshop variants).

Paper-expected shape: plug-in installation moves kilobytes and
completes in sub-second per vehicle; a reflash moves megabytes plus a
reboot (tens of seconds OTA, a day via workshop) — a multiple-order-of-
magnitude gap that widens with image size.
"""

from repro.analysis import print_table, speedup
from repro.baselines import (
    ReflashParameters,
    ota_reflash_time_us,
    workshop_reflash_time_us,
)
from repro.fes.example_platform import PHONE_ADDRESS, make_remote_control_app
from repro.fes.fleet import build_fleet
from repro.sim import SECOND


def deploy_fleet(size, seed=0):
    """Simulated time until the APP is ACTIVE on every vehicle."""
    fleet = build_fleet(size, seed=seed)
    fleet.server.api.store.upload(
        make_remote_control_app(PHONE_ADDRESS)
    ).unwrap()
    fleet.boot()
    fleet.sim.run_for(1 * SECOND)  # ECMs connect
    campaign = fleet.deploy("remote-control")
    assert campaign.ok  # every VIN accepted, not just the survivors
    elapsed = campaign.wait(120 * SECOND)
    assert campaign.all_active
    assert elapsed > 0
    return elapsed, fleet


def test_deploy_dynamic_vs_reflash(benchmark):
    rows = []
    dynamic_times = {}
    for size in (1, 4, 16):
        elapsed, __ = deploy_fleet(size)
        dynamic_times[size] = elapsed
        rows.append([size, f"{elapsed / 1000:.0f} ms"])
    print_table(
        ["fleet size", "dynamic deploy (all ACTIVE)"],
        rows,
        title="DEPLOY: dynamic plug-in installation time (simulated)",
    )

    reflash_rows = []
    for image_mb in (1, 2, 8):
        params = ReflashParameters(image_size=image_mb * 1024 * 1024)
        ota = ota_reflash_time_us(params)
        workshop = workshop_reflash_time_us(params)
        dyn = dynamic_times[1]
        reflash_rows.append(
            [
                image_mb,
                f"{ota / SECOND:.1f} s",
                f"{workshop / SECOND / 3600:.1f} h",
                f"{speedup(ota, dyn):.0f}x",
            ]
        )
    print_table(
        ["image MB", "OTA reflash", "workshop reflash",
         "dynamic speedup vs OTA"],
        reflash_rows,
        title="DEPLOY: reflash baseline comparison (1 vehicle)",
    )
    # Shape assertions: who wins and by how much.
    ota_2mb = ota_reflash_time_us(ReflashParameters())
    assert dynamic_times[1] < ota_2mb / 10, (
        "dynamic install must beat OTA reflash by >10x"
    )
    # Fleet deployment parallelises: 16 vehicles take far less than
    # 16x one vehicle.
    assert dynamic_times[16] < 4 * dynamic_times[1]

    benchmark.pedantic(
        lambda: deploy_fleet(2, seed=9), rounds=3, iterations=1
    )


def test_deploy_scales_with_package_size(benchmark):
    """Install time grows with binary size (CAN transfer dominated)."""
    from repro.server.models import PluginDescriptor

    rows = []
    times = []
    for pad_kb in (0, 4, 16):
        fleet = build_fleet(1, seed=pad_kb)
        app = make_remote_control_app(PHONE_ADDRESS)
        if pad_kb:
            # Pad the OP binary with a trailing comment section the
            # container ignores... containers are CRC'd, so instead
            # rebuild with a larger memory hint + padded source.
            padded = _padded_app(pad_kb)
        else:
            padded = app
        fleet.server.api.store.upload(padded).unwrap()
        fleet.boot()
        fleet.sim.run_for(1 * SECOND)
        campaign = fleet.deploy(padded.name)
        assert campaign.ok
        elapsed = campaign.wait(300 * SECOND)
        assert campaign.all_active
        assert elapsed > 0
        times.append(elapsed)
        size = padded.total_binary_size()
        rows.append([pad_kb, size, f"{elapsed / 1000:.0f} ms"])
    print_table(
        ["padding KB", "total binary bytes", "install time"],
        rows,
        title="DEPLOY: install time vs package size (simulated)",
    )
    assert times[-1] > times[0]  # bigger package, longer install

    benchmark(lambda: _padded_app(4).total_binary_size())


def _padded_app(pad_kb):
    """The remote-control APP with an artificially large OP binary."""
    from repro.fes.example_platform import OP_SOURCE
    from repro.server.models import PluginDescriptor
    from repro.vm.loader import compile_plugin

    app = make_remote_control_app(PHONE_ADDRESS)
    # Pad with NOP sleds: still a valid, CRC'd container.
    nops = "\n".join(["    NOP"] * (pad_kb * 1024))
    padded_source = OP_SOURCE + f"\n.entry padding\n{nops}\n    HALT\n"
    padded = PluginDescriptor(
        "OP",
        compile_plugin(padded_source, mem_hint=8).raw,
        app.plugins["OP"].port_names,
    )
    app.plugins["OP"] = padded
    return app
