#!/usr/bin/env python3
"""Gate CI on the benchmark result files a benchmark run writes.

Every ``BENCH_*.json`` the benchmark suites produce must exist at the
repo root, parse as JSON, and contain at least one non-empty section —
a benchmark that silently stopped writing its file should fail the
build, not upload an empty artifact.  The files are not tracked in git:
each run of ``benchmarks/`` rewrites them, so run it first.

On top of the structural checks, :data:`PERF_CEILINGS` turns this into
a perf guard: the wall-clock numbers the run recorded for the kernel's
flagship scenarios must stay under generous ceilings.  The ceilings catch an
order-of-magnitude regression (an accidental O(n^2) in the event loop,
tombstones piling up again), not host noise — the benchmark records
min-of-repeats and the ceilings sit ~2x above the expected value.

Usage: ``python scripts/check_bench.py [name ...]``; with no arguments,
checks the default set.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Benchmark files CI requires (kept in sync with the suites in
#: ``benchmarks/`` that call ``record_section``).
REQUIRED = (
    "BENCH_campaign.json",
    "BENCH_fleetapi.json",
    "BENCH_gateway.json",
    "BENCH_telemetry.json",
    "BENCH_verify.json",
)

#: (file, section, row-match, field, ceiling).  Rows are matched by
#: subset: every key in the match dict must equal the row's value.
#: A section holding a single dict is treated as one row.
PERF_CEILINGS = (
    # Full-fidelity staged rollout: 50 vehicles in waves of 10.  The
    # tuple-heap kernel runs this in ~0.7s; the pre-optimization
    # engine took ~2.2s.
    (
        "BENCH_campaign.json", "fleet_size_sweep",
        {"policy": "fixed-10", "fleet_size": 50}, "wall_s", 1.5,
    ),
    # Multi-fidelity scale: 10k statistical vehicles behind a
    # 10-vehicle full-simulation canary, one campaign.
    (
        "BENCH_campaign.json", "statistical_scale_sweep",
        {"fleet_size": 10_000}, "wall_s", 15.0,
    ),
    # 120 concurrent HTTP clients against one simulated fleet: the
    # worst-case query round-trip (worker thread -> command pump ->
    # sim thread -> response) stays well under 2s even on loaded CI
    # hosts; measured p95 is ~0.2s.
    (
        "BENCH_gateway.json", "concurrent_query_throughput",
        {}, "p95_ms", 2000.0,
    ),
    # Static verification of a ~3.6k-instruction plug-in (CFG build,
    # interval stack analysis to fixpoint, fuel DFS): measured ~35ms;
    # the ceiling guards against a quadratic fixpoint sneaking in.
    (
        "BENCH_verify.json", "verify_size_sweep",
        {"blocks": 512}, "wall_s", 0.5,
    ),
)

#: Structural invariants of BENCH_gateway.json beyond perf ceilings:
#: the concurrency floor the PR promises, and the stream broker's
#: exact-accounting contract (no event may vanish untracked).
GATEWAY_MIN_CLIENTS = 100


def check_gateway(name: str, data: dict) -> list[str]:
    """Gateway-specific invariant violations."""
    if name != "BENCH_gateway.json":
        return []
    problems = []
    query = data.get("concurrent_query_throughput")
    if not isinstance(query, dict):
        problems.append(f"{name}: missing concurrent_query_throughput")
    elif query.get("clients", 0) < GATEWAY_MIN_CLIENTS:
        problems.append(
            f"{name}: only {query.get('clients')} concurrent clients "
            f"(floor {GATEWAY_MIN_CLIENTS})"
        )
    fanout = data.get("event_stream_fanout")
    if not isinstance(fanout, dict):
        problems.append(f"{name}: missing event_stream_fanout")
    else:
        if fanout.get("unaccounted") != 0:
            problems.append(
                f"{name}: {fanout.get('unaccounted')} unaccounted stream "
                f"events (accounting invariant broken)"
            )
        for client in fanout.get("per_client", []):
            if client.get("unaccounted") != 0:
                problems.append(
                    f"{name}: stream client {client.get('client')} has "
                    f"unaccounted events"
                )
    return problems


def check_perf(name: str, data: dict) -> list[str]:
    """Ceiling violations for one parsed benchmark file."""
    problems = []
    for file_name, section, match, field, ceiling in PERF_CEILINGS:
        if file_name != name:
            continue
        rows = data.get(section)
        if isinstance(rows, dict):
            rows = [rows]
        if not isinstance(rows, list):
            problems.append(f"{name}: section {section!r} missing for perf gate")
            continue
        hits = [
            row for row in rows
            if all(row.get(key) == value for key, value in match.items())
        ]
        if not hits:
            problems.append(f"{name}: no {section} row matching {match}")
            continue
        for row in hits:
            value = row.get(field)
            if not isinstance(value, (int, float)):
                problems.append(f"{name}: {section} {match} lacks {field!r}")
            elif value > ceiling:
                problems.append(
                    f"{name}: {section} {match} {field}={value} exceeds "
                    f"ceiling {ceiling} (perf regression)"
                )
    return problems


def check(name: str) -> str | None:
    """Problem description for one file, or None when it is healthy."""
    path = ROOT / name
    if not path.exists():
        return f"{name}: missing (benchmark suite did not write it)"
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        return f"{name}: unparsable JSON ({error})"
    if not isinstance(data, dict) or not data:
        return f"{name}: expected a non-empty JSON object of sections"
    empty = [section for section, payload in data.items() if not payload]
    if empty:
        return f"{name}: empty sections {empty}"
    return None


def main(argv: list[str]) -> int:
    names = argv or list(REQUIRED)
    problems = [problem for name in names if (problem := check(name))]
    for name in names:
        if not any(problem.startswith(name) for problem in problems):
            data = json.loads((ROOT / name).read_text())
            problems.extend(check_perf(name, data))
            problems.extend(check_gateway(name, data))
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    for name in names:
        if not any(problem.startswith(name) for problem in problems):
            sections = list(json.loads((ROOT / name).read_text()))
            print(f"ok   {name}: sections {sections}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
