"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (not part of
the tier-1 suite: the last test runs the workloads).
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import compare
import layers
import metrics
import run

ROOT = Path(__file__).resolve().parents[2]


def record(started_at, completed_at, result=("ok", 1)):
    return SimpleNamespace(started_at=started_at, completed_at=completed_at,
                           result=result)


def test_every_source_file_has_a_layer():
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert len(sources) > 100
    for path in sources:
        assert layers.bucket_of(layers.module_path(str(path))) \
            in layers.BUCKETS
    assert layers.module_path("/usr/lib/python3/heapq.py") is None
    with pytest.raises(KeyError):
        layers.bucket_of("newpackage/thing")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    listed = {m["name"]: (m["unit"], m["better"], m["bound"])
              for m in spec["end_to_end"]}
    assert listed == {name: metrics.END_TO_END[name]
                      for name in metrics.BOUNDED}
    per_layer = [m["name"] for m in spec["per_layer"]]
    expected = [f"{b}.{kind}" for b in layers.BUCKETS
                for kind in ("self_share", "calls_per_commit")]
    expected += [f"{b}.{kind}" for b in layers.BOUNDARIES
                 for kind in ("incl_share", "calls_per_commit")]
    expected += ["crypto.sha256_per_commit", "crypto.digest.memo_hit_share",
                 "total.calls_per_commit", "trace.overhead_x",
                 *metrics.PER_LAYER_SIM]
    assert sorted(per_layer) == sorted(expected)
    assert len(per_layer) <= 128
    for metric in spec["per_layer"]:
        assert metric["unit"] == metrics.unit_of(metric["name"])


def test_failed_share_counts_errors_rejections_and_stuck_operations():
    per_client = {
        # 3 done (one error) + 1 outstanding for 100 ms: 1 failed of 4.
        "a": [record(0, 10), record(10, 20, ("err", "no-account")),
              record(20, 900)],
        # rejected + outstanding since 50 ms, stuck: 2 failed of 2.
        "b": [record(0, 50, ("rejected", "locked"))],
        # never completed anything: 1 failed of 1.
        "c": [],
    }
    assert metrics.failed_and_submitted(per_client, 1000.0, 500.0) == (4, 7)
    assert metrics.failed_and_submitted(per_client, 1000.0, 2000.0) == (2, 7)


def test_unavailable_ms_is_the_longest_gap_of_the_worst_zone():
    assert metrics.longest_gap_ms([150, 160, 400], 100, 500) == 240
    # Edges count: nothing after 160 until the window ends.
    assert metrics.longest_gap_ms([50, 150, 160, 600], 100, 500) == 340
    assert metrics.longest_gap_ms([], 100, 500) == 400
    per_client = {"z0c0": [record(0, 120), record(120, 480)],
                  "z0c1": [record(0, 300)],
                  "z1c0": [record(0, t) for t in range(100, 500, 10)]}
    home = {"z0c0": "z0", "z0c1": "z0", "z1c0": "z1"}
    assert metrics.unavailable_ms(per_client, home, 100, 500) == 180


def results(wall_s, halves_gap=0.01, tput=100.0, seed=7, **end_to_end):
    values = {"setup_s": 0.2, "wall_s": wall_s,
              "commits_per_wall_s": 1000.0 / wall_s, "peak_rss_mb": 50.0,
              "sim_tput_tps": tput, **end_to_end}
    return {"manifest": {"seed": seed}, "workloads": {"w": {
        "end_to_end": values, "counts": {"commits": 1000},
        "info": {"wall_s.halves_gap": halves_gap},
        "per_layer": {"sim.events.calls_per_commit": 3.5,
                      "sim.events.self_share": 0.1}}}}


def verdicts(base, new):
    return {metric: verdict
            for _w, metric, _a, _b, verdict in compare.compare(base, new)}


def test_compare_applies_bounds_and_exactness():
    same = verdicts(results(2.0), results(2.1))
    assert same["wall_s"] == compare.OK
    assert same["sim_tput_tps"] == compare.OK
    assert same["sim.events.calls_per_commit"] == compare.OK
    assert "sim.events.self_share" not in same
    slow = verdicts(results(2.0), results(2.6))
    assert slow["wall_s"] == compare.REGRESSION
    assert slow["commits_per_wall_s"] == compare.REGRESSION
    assert slow["peak_rss_mb"] == compare.OK
    moved = verdicts(results(2.0), results(2.0, tput=100.5))
    assert moved["sim_tput_tps"] == compare.MISMATCH
    other_seed = verdicts(results(2.0), results(2.0, tput=100.5, seed=8))
    assert other_seed["sim_tput_tps"] == compare.UNRESOLVED


def test_compare_reports_noisy_host_rows_as_unresolved_not_unchanged():
    noisy = verdicts(results(2.0, halves_gap=0.22), results(2.1))
    assert noisy["wall_s"] == compare.UNRESOLVED
    assert noisy["sim_tput_tps"] == compare.OK
    # One cycle (--quick) says nothing about the host's noise.
    assert verdicts(results(2.0, halves_gap=None),
                    results(2.0))["wall_s"] == compare.UNRESOLVED
    # A regression beyond the bound is still reported as one.
    assert verdicts(results(2.0, halves_gap=0.22),
                    results(2.6))["wall_s"] == compare.REGRESSION


def test_setup_regresses_only_beyond_bound_and_slack():
    assert verdicts(results(2.0), results(2.0, setup_s=0.24))["setup_s"] \
        == compare.OK
    assert verdicts(results(2.0), results(2.0, setup_s=0.26))["setup_s"] \
        == compare.REGRESSION


def test_wall_s_takes_each_slice_from_its_fastest_calibrated_cycle():
    ref = run.CALIBRATION_REFERENCE_S
    cycles = [{"slices": [(1.0, ref), (5.0, ref), (1.0, ref)]},
              {"slices": [(4.0, ref), (1.0, ref), (2.0, ref)]},
              # A cycle on a host running at half speed throughout.
              {"slices": [(2.0, 2 * ref), (4.0, 2 * ref), (1.0, 2 * ref)]}]
    assert run.slice_floor(cycles) == pytest.approx(1.0 + 1.0 + 0.5)
    # Halves: cycles 0 and 2 give 1 + 2 + 0.5, cycle 1 alone 4 + 1 + 2.
    assert run.halves_gap(cycles) == pytest.approx(7.0 / 3.5 - 1.0)
    assert run.halves_gap(cycles[:1]) is None


def test_quick_runs_repeat_exactly_and_layers_stay_apart(tmp_path):
    documents = []
    for name in ("a.json", "b.json"):
        subprocess.run([sys.executable, str(ROOT / "benchmarks/e2e/run.py"),
                        "--quick", "--out", str(tmp_path / name)],
                       check=True, timeout=600)
        documents.append(json.loads((tmp_path / name).read_text()))
    for workload in run.WORKLOAD_NAMES:
        first, second = (d["workloads"][workload] for d in documents)
        assert first["counts"] == second["counts"]
        for metric, value in first["end_to_end"].items():
            if metric not in metrics.HOST_CLOCK:
                assert second["end_to_end"][metric] == value
        layer = first["per_layer"]
        shares = [v for k, v in layer.items() if k.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)
        assert layer["other.self_share"] < 0.1
        reads = layer["reads.engine.calls_per_commit"]
        assert (reads > 0) == (workload == "read-heavy")
        sync = layer["core.sync_protocol.calls_per_commit"]
        assert (sync > 1) == (workload in ("mobile-mix", "migrate-heavy"))
    # Call counts of the traced cycles are exact too.
    rows = compare.compare(*documents)
    assert any(r[1].endswith("calls_per_commit") for r in rows)
    assert not [r for r in rows if r[4] == compare.MISMATCH]
