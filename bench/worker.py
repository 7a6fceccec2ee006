"""Run one repeat of one workload in this (fresh) process.

Usage: ``python -m bench.worker '<json spec>'`` with the spec keys
``workload``, ``seed``, ``params`` and ``trace``.  The result is printed
as one JSON line on stdout.  With ``trace`` set, the span recorder is
installed before anything is built and its layer totals, counters and
samples ride along in the result.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    recorder = None
    if spec["trace"]:
        from bench import trace

        recorder = trace.Recorder()
        trace.install(recorder)
    from bench.workloads import BODIES, peak_rss_mb

    result, built = BODIES[spec["workload"]](
        spec["params"], spec["seed"], probe=not spec["trace"]
    )
    result["rss_mb"] = peak_rss_mb()
    if recorder is not None:
        result["layers"] = recorder.layers()
        result["counters"].update(recorder.counters)
        # ``built`` keeps the platform objects alive for this scan.
        result["counters"].update(trace.object_counters())
        result["samples"] = recorder.samples
    del built
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
