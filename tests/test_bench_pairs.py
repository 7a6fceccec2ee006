"""The paired-run verdicts of ``scripts/bench_pairs.py`` on fixed numbers."""

import json
from pathlib import Path

import scripts.bench_pairs as bench_pairs
from scripts.bench_pairs import (
    digest_summary, main, quartiles, run_digests, verdict, wins,
)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


def test_quartiles_of_ten_runs():
    assert quartiles(list(range(1, 11))) == (3.25, 5.5, 7.75)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_ties_count_for_neither_side():
    assert wins(PARENT, PARENT, "lower") == 0
    assert wins([1, 2, 3], [1, 1, 4], "lower") == 1
    assert wins([1, 2, 3], [1, 1, 4], "higher") == 1
    assert verdict(PARENT, PARENT, "lower", 0.25) == "unchanged"


def test_gain_in_either_direction():
    halved = [value / 2 for value in PARENT]
    assert verdict(PARENT, halved, "lower", 0.25) == "gain"
    assert verdict(halved, PARENT, "higher", 0.25) == "gain"
    # The same numbers read the other way are a worsening.
    assert verdict(PARENT, halved, "higher", 0.25) == "worse"


def test_gain_needs_nine_wins_in_ten():
    change = [50.0] * 8 + [150.0] * 2
    assert wins(PARENT, change, "lower") == 8
    assert verdict(PARENT, change, "lower", 0.25) == "unchanged"
    change = [50.0] * 9 + [150.0]
    assert verdict(PARENT, change, "lower", 0.25) == "gain"


def test_gain_needs_a_gap_wider_than_the_parent_quartiles():
    parent = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    slightly = [value - 5 for value in parent]
    assert wins(parent, slightly, "lower") == 10
    # Medians 100 and 95, parent quartiles 95 and 105: no gain.
    assert verdict(parent, slightly, "lower", 0.25) == "unchanged"
    clearly = [value - 11 for value in parent]
    assert verdict(parent, clearly, "lower", 0.25) == "gain"


def test_worse_only_beyond_the_bound():
    assert verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.25) == (
        "unchanged"
    )
    assert verdict(PARENT, [v * 1.3 for v in PARENT], "lower", 0.25) == "worse"
    assert verdict(PARENT, [v * 0.7 for v in PARENT], "higher", 0.25) == (
        "worse"
    )


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [50.0, 150.0, 100.0, 60.0, 140.0, 100.0, 70.0, 130.0, 100.0, 90.0]
    change = [value * 1.1 for value in reversed(parent)]
    assert verdict(parent, change, "lower", 0.25) == "unresolved"
    # Unless every run of the change reads better than every parent run.
    below = [value / 10 for value in parent]
    assert verdict(parent, below, "lower", 0.25) == "gain"


def test_refuses_checkouts_whose_benchmarks_differ(tmp_path, capsys):
    for side, body in (("parent", b"A = 1\n"), ("change", b"A = 2\n")):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "workloads.py").write_bytes(body)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({}))
    status = main([
        str(tmp_path / "parent"), str(tmp_path / "change"),
        "--workload", "plugin-dataplane",
    ])
    assert status == 2
    assert "bench/workloads.py" in capsys.readouterr().err


def _save_run(checkout, workload, seed, digests):
    out = checkout / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    repeats = [{"digest": digest} for digest in digests]
    (out / f"{workload}-seed{seed}.json").write_text(
        json.dumps({"repeats": repeats})
    )


def test_run_digests_reads_the_saved_repeats(tmp_path):
    assert run_digests(tmp_path, "rollout-full", 1) == []
    _save_run(tmp_path, "rollout-full", 1, ["aa", "aa", "aa"])
    assert run_digests(tmp_path, "rollout-full", 1) == ["aa", "aa", "aa"]
    assert run_digests(tmp_path, "rollout-full", 7919) == []
    # Portal repeats carry no digest.
    out = tmp_path / "bench" / "out" / "portal-mixed-seed1.json"
    out.write_text(json.dumps({"repeats": [{"wall_s": 1.0}]}))
    assert run_digests(tmp_path, "portal-mixed", 1) == []


def test_digest_summary():
    same, other = (["aa", "aa"], ["aa"]), (["aa"], ["bb"])
    assert digest_summary([same, same]) == (
        "output digest: identical in 2/2 pairs"
    )
    assert digest_summary([same, other, (["aa", "cc"], ["aa", "cc"])]) == (
        "output digest: identical in 1/3 pairs"
    )
    assert digest_summary([([], []), ([], [])]) == (
        "output digest: not recorded by this workload"
    )


def test_main_prints_output_identity(tmp_path, monkeypatch, capsys):
    config = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    digest = {"parent": "aa", "change": "aa"}
    for side in digest:
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_bytes(config.read_bytes())
    metrics = {
        m["name"]: {"value": 1.0}
        for m in json.loads(config.read_text())["end_to_end"]
    }

    def fake_run(checkout, workload, seed, seconds):
        _save_run(checkout, workload, seed, [digest[checkout.name]] * 3)
        return {"correct": True, "failed": 0, "attempted": 1,
                "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    args = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "rollout-full", "--pairs", "2"]
    assert main(args) == 0
    assert "output digest: identical in 2/2 pairs" in capsys.readouterr().out
    digest["change"] = "bb"
    assert main(args) == 0
    assert "output digest: identical in 0/2 pairs" in capsys.readouterr().out
