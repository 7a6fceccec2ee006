"""Command line: ``python3 -m bench [--workload W] [--seed N] [--seconds S] [--trace [0|1]]``.

Without ``--workload`` every workload runs in turn.  Each prints its
metric table, writes ``bench/out/<workload>-seed<N>[-trace].json`` and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (untraced) or the per-layer metrics (``--trace 1``).
The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument(
        "--workload", choices=[w["name"] for w in config["workloads"]],
        help="run one workload (default: all of them)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--seconds", type=float, default=config["run_seconds"],
        help="measured time per run (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run traced and report the per-layer metrics",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # A terminated run unwinds, so the worker and server processes it
    # started are killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401 - the workloads need the package
    except ImportError as error:
        print(f"bench: cannot import repro from src/: {error}", file=sys.stderr)
        return 2
    from bench import harness

    seed = harness.DEFAULT_SEED if args.seed is None else args.seed
    host = harness.host_record()
    workloads = [args.workload] if args.workload else list(harness.WORKLOADS)
    status = 0
    for workload in workloads:
        try:
            result = harness.run_workload(
                workload, seed, args.seconds, bool(args.trace)
            )
        except harness.BenchError as error:
            print(f"bench: {error}", file=sys.stderr)
            return 1
        harness.save(result, host)
        print(harness.render(result))
        print(harness.result_line(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
