#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, with a verdict per metric.

Usage::

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W \\
        [--pairs 10] [--seed N] [--seconds S]

``PARENT`` and ``CHANGE`` are two checkouts of this repository.  Each
pair runs ``python3 -m bench --workload W --seed N --seconds S`` once
in each checkout, alternating which side goes first, and reads the JSON
line the run ends with.  The runs refuse to start unless ``bench/`` and
``BENCHMARK.json`` are byte-identical in both checkouts, so both sides
measure with the same benchmark code and settings.

For every end-to-end metric of ``BENCHMARK.json`` the script prints
each side's median and quartiles, how many pairs the change won (ties
count for neither side) and a verdict:

* ``gain``: the change won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the distance between
  the parent's quartiles;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's ``bound`` (a fraction of the parent's median);
* ``unresolved``: neither, but the run-to-run spread (quartile
  distance over median, on either side) is wider than the bound, and
  not every run of the change reads better than every parent run;
* ``unchanged``: none of the above.

After each run the script also reads the output digests of that run's
repeats from ``<checkout>/bench/out/<workload>-seed<N>.json``, and it
ends with one line saying in how many pairs both sides produced the
same single digest (``output digest: identical in 10/10 pairs``).  The
rollouts and the dataplane record digests; the portal does not.  The
line is informational: it does not change the exit status.

The exit status is 1 when any run is not ``correct`` or the change
fails a larger share of its attempted operations than the parent, and
0 otherwise; a verdict of ``worse`` is printed, not turned into a
failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Pairs the change must win, as a share of all pairs, for a gain.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _better(a: float, b: float, better: str) -> bool:
    """True when ``a`` reads better than ``b``."""
    return a < b if better == "lower" else a > b


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    return sum(_better(c, p, better) for p, c in zip(parent, change))


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``unchanged``; see above."""
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    if (
        wins(parent, change, better) >= WIN_SHARE * len(parent)
        and _better(c_median, p_median, better)
        and abs(c_median - p_median) > p_q3 - p_q1
    ):
        return "gain"
    worsening = (c_median - p_median) if better == "lower" else (
        p_median - c_median
    )
    if worsening > bound * abs(p_median):
        return "worse"
    spread = max(
        (p_q3 - p_q1) / abs(p_median) if p_median else 0.0,
        (c_q3 - c_q1) / abs(c_median) if c_median else 0.0,
    )
    all_better = all(
        _better(c, p, better) for c in change for p in parent
    )
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def _bench_files(checkout: Path) -> dict[str, bytes]:
    """``bench/`` sources and ``BENCHMARK.json``, by relative path."""
    files = {"BENCHMARK.json": (checkout / "BENCHMARK.json").read_bytes()}
    for path in sorted((checkout / "bench").rglob("*")):
        relative = path.relative_to(checkout)
        if (
            path.is_file()
            and relative.parts[:2] != ("bench", "out")
            and "__pycache__" not in relative.parts
        ):
            files[relative.as_posix()] = path.read_bytes()
    return files


def run_bench(
    checkout: Path, workload: str, seed: int, seconds: float
) -> dict:
    """One untraced benchmark run; its closing JSON line, parsed."""
    command = [
        sys.executable, "-m", "bench", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"bench_pairs: no result line from {checkout} "
            f"(exit {done.returncode}):\n{done.stderr}"
        ) from None
    return result


def run_digests(checkout: Path, workload: str, seed: int) -> list[str]:
    """Output digests of the repeats the last untraced run saved."""
    path = checkout / "bench" / "out" / f"{workload}-seed{seed}.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    return [r["digest"] for r in record.get("repeats", []) if "digest" in r]


def digest_summary(pairs: list[tuple[list[str], list[str]]]) -> str:
    """How many ``(parent, change)`` pairs share one output digest."""
    if not any(parent or change for parent, change in pairs):
        return "output digest: not recorded by this workload"
    identical = sum(
        1 for parent, change in pairs
        if len(set(parent)) == 1 and set(parent) == set(change)
    )
    return f"output digest: identical in {identical}/{len(pairs)} pairs"


def _row(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_pairs.py")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    parent_files = _bench_files(args.parent)
    change_files = _bench_files(args.change)
    if parent_files != change_files:
        differing = sorted(
            name for name in parent_files.keys() | change_files.keys()
            if parent_files.get(name) != change_files.get(name)
        )
        print(
            "bench_pairs: bench/ and BENCHMARK.json differ between the "
            f"checkouts: {', '.join(differing)}",
            file=sys.stderr,
        )
        return 2
    config = json.loads(parent_files["BENCHMARK.json"])
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    metrics = config["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    digests: dict[str, list[list[str]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            result = run_bench(checkout, args.workload, args.seed, seconds)
            runs[side].append(result)
            digests[side].append(
                run_digests(checkout, args.workload, args.seed)
            )
            values = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                for m in metrics
            )
            print(
                f"pair {pair + 1}/{args.pairs} {side:<6} "
                f"correct={result['correct']} failed={result['failed']}/"
                f"{result['attempted']} {values}",
                flush=True,
            )

    print(
        f"\n{args.workload} seed={args.seed} seconds={seconds:g} "
        f"pairs={args.pairs}: median [q1, q3]"
    )
    print(f"{'metric':<18}{'parent':>36}{'change':>36}{'wins':>8}  verdict")
    for metric in metrics:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        print(
            f"{name:<18}{_row(parent):>36}{_row(change):>36}"
            f"{wins(parent, change, metric['better']):>5}/{args.pairs:<2}  "
            f"{verdict(parent, change, metric['better'], metric['bound'])}"
        )
    print(digest_summary(list(zip(digests["parent"], digests["change"]))))

    status = 0
    if not all(r["correct"] for side in runs.values() for r in side):
        print("bench_pairs: a run was not correct", file=sys.stderr)
        status = 1
    shares = {
        side: sum(r["failed"] for r in side_runs)
        / max(1, sum(r["attempted"] for r in side_runs))
        for side, side_runs in runs.items()
    }
    if shares["change"] > shares["parent"]:
        print(
            f"bench_pairs: the change failed {shares['change']:.4%} of "
            f"attempts, the parent {shares['parent']:.4%}",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
