"""Orchestration: repeats in fresh processes, checks, metrics, output.

Each repeat of a workload runs in its own worker process
(:mod:`bench.worker`), which collects garbage before timing, so no
repeat inherits heap or cache state from the one before.  The portal
workload instead runs rounds, each against a freshly started server
process, with the load generated from this process (:mod:`bench.portal`).

The shared host's speed drifts, so every timed phase is probed with a
fixed reference event loop while it runs (:class:`bench.workloads.Phase`),
and its host time is reported scaled by :data:`REFERENCE_S` over the
mean probe time: as if taken on a host that runs the probe at
:data:`REFERENCE_RATE`.  The portal's request latencies are the
exception: they are taken as measured, at a fixed offered rate.

End-to-end metrics always come from untraced repeats.  A trace run does
one untraced and one traced repeat of the workload and reports the
per-layer metrics: span self time, calls and share per layer, named
counters, and the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from bench.portal import make_plan, run_load
from bench.trace import LAYERS
from bench.workloads import PROBE_STEPS, reference_probe_s

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

#: Probe events per second on the nominal host, and one probe's time
#: there.  Scaled times read as if taken on that host.
REFERENCE_RATE = 1_000_000
REFERENCE_S = PROBE_STEPS / REFERENCE_RATE

#: The seed used when ``--seed`` is not given (bench/README.md names
#: the held-out seed).
DEFAULT_SEED = 1

WORKLOADS = ("rollout-full", "rollout-stat", "plugin-dataplane", "portal-mixed")

#: Workload sizes of a benchmark run.  The portal's ``rate`` is an
#: assumption, not measured traffic (bench/README.md shows how the
#: layer shares move with it).
SIZES = {
    "rollout-full": {"vehicles": 100, "wave": 10},
    "rollout-stat": {"vehicles": 10_000, "full_vehicles": 10},
    "plugin-dataplane": {"samples": 12_000},
    "portal-mixed": {"vehicles": 2_000, "full_vehicles": 10, "rate": 50.0,
                     "rounds": 3},
}

#: Toy sizes for the smoke test; ``load_s`` fixes the portal load time.
TOY_SIZES = {
    "rollout-full": {"vehicles": 20, "wave": 10},
    "rollout-stat": {"vehicles": 20, "full_vehicles": 2},
    "plugin-dataplane": {"samples": 200},
    "portal-mixed": {"vehicles": 200, "full_vehicles": 2, "rate": 20.0,
                     "rounds": 1, "load_s": 3.0},
}

#: Untraced repeats of a rollout or dataplane run, at least; more run
#: until their measured time reaches ``--seconds``.
MIN_REPEATS = 3
MAX_REPEATS = 50
WORKER_TIMEOUT_S = 170

#: Layers that must record calls in a traced repeat of each workload.
_STACK = ("sim", "autosar.os", "autosar.rte", "autosar.bsw", "can",
          "core.pirte")
_CONTROL = ("core.codec", "network", "api", "server.contextgen",
            "server.services", "server.pusher", "telemetry")
ACTIVE_LAYERS = {
    "rollout-full": _STACK + _CONTROL + ("vm.verify", "campaign"),
    "rollout-stat": _STACK + _CONTROL + ("vm.verify", "campaign", "fes"),
    "plugin-dataplane": _STACK + ("vm", "vm.verify"),
    "portal-mixed": _STACK + _CONTROL + ("fes", "server.gateway"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Named per-layer counters and their units, besides the per-layer
#: ``self_s``/``calls``/``share`` triples.
COUNTER_UNITS = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.speed": "s/s",
    "campaign.sim_time_s": "s",
    "vm.activations": "count",
    "vm.fuel": "count",
    "vm.traps": "count",
    "can.frames": "count",
    "core.pirte.dropped": "count",
    "network.messages": "count",
    "network.bytes": "B",
    "server.pusher.pushed": "count",
    "server.pusher.dropped": "count",
    "server.services.install_ack_ratio": "ratio",
    "gateway.pump_wait_ms.p50": "ms",
    "gateway.pump_wait_ms.p95": "ms",
    "gateway.handler_ms.p50": "ms",
    "gateway.encode_ms.p50": "ms",
    "gateway.read_p50_ms": "ms",
    "gateway.write_p50_ms": "ms",
    "gateway.request_p95_ms": "ms",
    "gateway.request_p99_ms": "ms",
    "gateway.queue_depth.max": "count",
    "gateway.generator_late_ms.max": "ms",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.share"] = "ratio"
    units.update(COUNTER_UNITS)
    return units


class BenchError(RuntimeError):
    """A worker or server process failed; no result can be reported."""


# -- host record -----------------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_score() -> float:
    """Reference probe events per second when the run starts."""
    return 100 * PROBE_STEPS / reference_probe_s(100 * PROBE_STEPS)


def host_record() -> dict:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "calibration_probe_events_per_s": calibration_score(),
    }


# -- processes -------------------------------------------------------------------


def _worker_command(workload: str, seed: int, params: dict, trace: bool):
    spec = {"workload": workload, "seed": seed, "params": params,
            "trace": trace}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return [sys.executable, "-m", "bench.worker", json.dumps(spec)], env


def run_repeat(workload: str, seed: int, params: dict, trace: bool) -> dict:
    """One repeat in a fresh worker process."""
    command, env = _worker_command(workload, seed, params, trace)
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker timed out") from None
    if done.returncode != 0:
        raise BenchError(
            f"{workload} worker exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_portal_round(seed: int, params: dict, load_s: float, trace: bool,
                     round_index: int) -> dict:
    """Start a server process, load it, check it, stop it."""
    command, env = _worker_command("portal-mixed", seed, params, trace)
    server = subprocess.Popen(
        command, cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        ready = server.stdout.readline()
        if not ready:
            raise BenchError("portal server exited before it was ready")
        ready = json.loads(ready)
        try:
            plan = make_plan(
                f"{seed}/{round_index}", int(params["rate"] * load_s),
                ready["vins"],
            )
        except ValueError as error:  # more load than the fleet can take
            raise BenchError(f"portal-mixed: {error}") from None
        load = run_load(ready["url"], plan, params["rate"])
        out, __ = server.communicate("stop\n", timeout=WORKER_TIMEOUT_S)
        if server.returncode != 0:
            raise BenchError(f"portal server exited {server.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        raise BenchError("portal server did not stop") from None
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    result.update(load)
    ok = [latency for __, latency in load["latencies"]]
    result["ops"] = len(ok)
    result["failed"] = load["attempted"] - len(ok) + load["inactive"]
    result["errors"] = load["failures"]
    return result


# -- statistics ------------------------------------------------------------------


def _quantile(samples, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def _scaled_s(repeats: list[dict]) -> float:
    """The measured phase's time per repeat on the nominal host.

    Host time over probe time, both summed over the repeats, so a repeat
    weighs by its length, times the nominal probe time.
    """
    return (
        sum(r["wall_s"] for r in repeats) / sum(r["ref_s"] for r in repeats)
        * REFERENCE_S
    )


def _latency_ms(workload: str, repeats: list[dict]) -> float:
    if workload == "portal-mixed":
        return _quantile(
            [ms for r in repeats for __, ms in r["latencies"]], 0.5
        )
    return _scaled_s(repeats) * 1000


def end_to_end(workload: str, repeats: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of a set of untraced repeats."""
    ops = sum(r["ops"] for r in repeats)
    if workload == "portal-mixed":
        throughput = ops / sum(r["load_s"] for r in repeats)
    else:
        throughput = ops / len(repeats) / _scaled_s(repeats)
    return {
        "setup_s": statistics.median(
            r["build_s"] / r["build_ref_s"] * REFERENCE_S for r in repeats
        ),
        "latency_ms": _latency_ms(workload, repeats),
        "throughput_per_s": throughput,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in repeats),
    }


def per_layer(workload: str, plain: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics from one untraced and one traced repeat."""
    values: dict[str, float] = {}
    for layer in LAYERS:
        entry = traced["layers"][layer]
        values[f"{layer}.self_s"] = entry["self_s"]
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.share"] = entry["share"]
    counters = traced["counters"]
    samples = traced.get("samples", {})
    latencies = plain.get("latencies", [])
    requests = [ms for __, ms in latencies]
    wall = plain["wall_s"]
    values.update({
        "sim.events": traced["sim_events"],
        "sim.events_per_s": plain["sim_events"] / wall,
        "sim.speed": plain["sim_time_s"] / wall,
        "campaign.sim_time_s": counters.get("campaign.sim_time_s", 0.0),
        "gateway.pump_wait_ms.p50": _quantile(
            samples.get("gateway.pump_wait_ms"), 0.5),
        "gateway.pump_wait_ms.p95": _quantile(
            samples.get("gateway.pump_wait_ms"), 0.95),
        "gateway.handler_ms.p50": _quantile(
            samples.get("gateway.handler_ms"), 0.5),
        "gateway.encode_ms.p50": _quantile(
            samples.get("gateway.encode_ms"), 0.5),
        "gateway.read_p50_ms": _quantile(
            [ms for kind, ms in latencies if kind == "read"], 0.5),
        "gateway.write_p50_ms": _quantile(
            [ms for kind, ms in latencies if kind == "write"], 0.5),
        "gateway.request_p95_ms": _quantile(requests, 0.95),
        "gateway.request_p99_ms": _quantile(requests, 0.99),
        "gateway.generator_late_ms.max": plain.get("late_ms", 0.0),
        # Host time: the traced repeat is not probed (see Phase).
        "trace.overhead": (
            _latency_ms(workload, [traced]) / _latency_ms(workload, [plain])
            if workload == "portal-mixed" else traced["wall_s"] / wall
        ),
    })
    for name in COUNTER_UNITS:
        if name not in values:
            values[name] = counters.get(name, 0)
    return values


# -- one workload ----------------------------------------------------------------


def _check_replay(workload: str, repeats: list[dict]) -> list[str]:
    """Every repeat (traced ones too) must replay the same simulation."""
    if workload == "portal-mixed":
        return []  # wall-clock driven: the request plan, not the replay, is fixed
    seen = {(r["sim_events"], r["digest"]) for r in repeats}
    if len(seen) > 1:
        return [f"repeats diverged: (sim.events, digest) took {len(seen)} values"]
    return []


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 params: dict | None = None) -> dict:
    """Run one workload; returns checks, metrics and raw repeats."""
    params = dict(params or SIZES[workload])
    repeats: list[dict] = []
    traced = None
    if workload == "portal-mixed":
        rounds = 1 if trace else params["rounds"]
        load_s = params.get("load_s", seconds / rounds)
        for index in range(rounds):
            repeats.append(run_portal_round(seed, params, load_s, False, index))
        if trace:
            traced = run_portal_round(seed, params, load_s, True, 0)
    else:
        repeats.append(run_repeat(workload, seed, params, False))
        while not trace and len(repeats) < MAX_REPEATS and (
            len(repeats) < MIN_REPEATS
            or sum(r["wall_s"] for r in repeats) < seconds
        ):
            repeats.append(run_repeat(workload, seed, params, False))
        if trace:
            traced = run_repeat(workload, seed, params, True)

    everything = repeats + ([traced] if traced else [])
    errors = [error for r in everything for error in r["errors"]]
    errors += _check_replay(workload, everything)
    if traced is not None:
        idle = [layer for layer in ACTIVE_LAYERS[workload]
                if traced["layers"][layer]["calls"] == 0]
        if idle:
            errors.append(
                f"traced run recorded no calls in active layers {idle}"
            )
        metrics = per_layer(workload, repeats[0], traced)
        units = per_layer_units()
    else:
        metrics = end_to_end(workload, repeats)
        units = END_TO_END_UNITS
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": sum(r["failed"] for r in repeats),
        "errors": errors,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
        "repeats": repeats,
        "traced": traced,
    }


def result_line(result: dict) -> str:
    """The one-line JSON summary the benchmark ends with."""
    return json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    })


def render(result: dict) -> str:
    """Human-readable metric table (and layer table for traced runs)."""
    lines = [
        f"== {result['workload']} seed={result['seed']} "
        f"repeats={len(result['repeats'])} "
        f"{'traced' if result['trace'] else 'untraced'}"
    ]
    metrics = result["metrics"]
    if result["trace"]:
        lines.append(f"{'layer':<20}{'self_s':>10}{'calls':>12}{'share':>8}")
        for layer in sorted(
            LAYERS, key=lambda name: -metrics[f"{name}.self_s"]["value"]
        ):
            lines.append(
                f"{layer:<20}{metrics[f'{layer}.self_s']['value']:>10.3f}"
                f"{metrics[f'{layer}.calls']['value']:>12}"
                f"{metrics[f'{layer}.share']['value']:>8.1%}"
            )
        names = list(COUNTER_UNITS)
    else:
        names = list(metrics)
    for name in names:
        lines.append(
            f"{name:<36}{metrics[name]['value']:>14.4f} {metrics[name]['unit']}"
        )
    for error in result["errors"]:
        lines.append(f"CHECK FAILED: {error}")
    return "\n".join(lines)


def save(result: dict, host: dict) -> None:
    """Write the full record to ``bench/out/``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if result["trace"] else ""
    path = OUT_DIR / f"{result['workload']}-seed{result['seed']}{suffix}.json"
    path.write_text(json.dumps({"host": host, **result}, indent=1) + "\n")
