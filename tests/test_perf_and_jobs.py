"""Tests for the wall-clock perf suite and the --jobs fan-out.

The parallel runner's whole contract is *no observable effect*: a grid
or campaign run with ``jobs=N`` must produce byte-identical output to a
serial run. The perf suite's contract is a stable document shape plus a
ratio-band regression gate.
"""

import json

from repro.bench.parallel import grid_rows, point_row, run_grid
from repro.bench.perf import check_perf, perf_json, perf_report
from repro.bench.runner import PointSpec, run_point
from repro.chaos.report import report_json
from repro.chaos.runner import run_campaign
from repro.chaos.scenario import FaultAction, Scenario
from repro.cli import build_parser


# ----------------------------------------------------------------------
# Perf suite
# ----------------------------------------------------------------------

def test_perf_report_shape_and_json_stability():
    report = perf_report(repeat=1, names=("sim_events",))
    assert report["format"] == "repro-perf"
    assert set(report["benches"]) == {"sim_events"}
    bench = report["benches"]["sim_events"]
    assert bench["metric"] == "ops_per_sec"
    assert bench["value"] > 0
    assert bench["n"] > 0
    # The JSON form round-trips and is key-sorted.
    decoded = json.loads(perf_json(report))
    assert decoded == report


def _doc(**values):
    benches = {}
    for name, (metric, value) in values.items():
        benches[name] = {"metric": metric, "n": 1, "value": value,
                         "elapsed_ms": 1.0}
    return {"format": "repro-perf", "version": 1, "repeat": 1,
            "benches": benches}


def test_check_perf_ratio_band(tmp_path):
    baseline = tmp_path / "PERF_baseline.json"
    baseline.write_text(perf_json(_doc(
        digest=("ops_per_sec", 1000.0), run_point=("wall_ms", 100.0))))
    # Within the 2x band both directions: no problems.
    ok = _doc(digest=("ops_per_sec", 600.0), run_point=("wall_ms", 150.0))
    assert check_perf(baseline, ratio=2.0, current=ok) == []
    # Throughput collapsed and wall time exploded: both flagged.
    bad = _doc(digest=("ops_per_sec", 400.0), run_point=("wall_ms", 250.0))
    problems = check_perf(baseline, ratio=2.0, current=bad)
    assert len(problems) == 2
    assert any("digest" in p for p in problems)
    assert any("run_point" in p for p in problems)


def test_state_digest_bench_times_two_store_sizes():
    report = perf_report(repeat=1, names=("state_digest",))
    bench = report["benches"]["state_digest"]
    assert bench["metric"] == "ops_per_sec"
    assert bench["value"] > 0 and bench["value_1k"] > 0
    assert bench["size_ratio"] > 0


def test_check_perf_flags_cost_that_grows_with_input_size(tmp_path):
    baseline = tmp_path / "PERF_baseline.json"
    baseline.write_text(perf_json(_doc(
        state_digest=("ops_per_sec", 1000.0))))
    current = _doc(state_digest=("ops_per_sec", 1000.0))
    current["benches"]["state_digest"]["size_ratio"] = 1.1
    assert check_perf(baseline, ratio=2.0, current=current) == []
    # What a root that re-encodes the store reads at 20 000 vs 1 000 keys.
    current["benches"]["state_digest"]["size_ratio"] = 19.5
    assert check_perf(baseline, ratio=2.0, current=current) == [
        "state_digest: cost grows with input size "
        "(large/small 19.50, ratio 2)"]


def test_check_perf_reports_missing_baseline_bench(tmp_path):
    baseline = tmp_path / "PERF_baseline.json"
    baseline.write_text(perf_json(_doc(digest=("ops_per_sec", 1000.0))))
    current = _doc(digest=("ops_per_sec", 1000.0),
                   sim_events=("ops_per_sec", 5.0))
    problems = check_perf(baseline, ratio=2.0, current=current)
    assert problems == ["sim_events: missing from baseline "
                        "(run `repro perf-baseline` to refresh)"]


# ----------------------------------------------------------------------
# Parallel experiment grids
# ----------------------------------------------------------------------

_TINY = [PointSpec(protocol=protocol, num_zones=3, clients_per_zone=5,
                   warmup_ms=80.0, measure_ms=120.0, seed=3)
         for protocol in ("ziziphus", "flat-pbft")]


def test_run_grid_jobs_output_is_byte_identical():
    specs = _TINY + [_TINY[0]]  # duplicate: exercises the dedupe path
    serial = run_grid(specs, jobs=1)
    fanned = run_grid(specs, jobs=4)
    assert json.dumps(serial, sort_keys=True) \
        == json.dumps(fanned, sort_keys=True)
    assert len(serial) == len(specs)
    assert serial[0] == serial[2]


def test_run_grid_rows_match_direct_run_point():
    rows = run_grid([_TINY[0]], jobs=1)
    assert rows == [point_row(run_point(_TINY[0]))]


def test_grid_rows_rejects_unknown_figure():
    import pytest

    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError, match="unknown figure"):
        grid_rows("fig99")


# ----------------------------------------------------------------------
# Parallel chaos campaigns
# ----------------------------------------------------------------------

_TINY_CAMPAIGN = (
    Scenario(name="tiny-crash-recover",
             description="one backup crashes and recovers",
             budget="<=f", expect="safe", duration_ms=1_500.0,
             clients_per_zone=2,
             actions=(FaultAction(at_ms=300, kind="crash", node="z0n1"),
                      FaultAction(at_ms=600, kind="recover", node="z0n1"))),
    Scenario(name="tiny-over-budget",
             description="two z0 nodes crash for good",
             budget=">f", expect="violation", duration_ms=1_500.0,
             clients_per_zone=2,
             actions=(FaultAction(at_ms=300, kind="crash", node="z0n1"),
                      FaultAction(at_ms=400, kind="crash", node="z0n2"))),
)


def test_chaos_campaign_jobs_report_is_byte_identical(monkeypatch):
    import importlib

    # ``repro.chaos`` re-exports the ``campaign`` *function*, shadowing
    # the submodule attribute; resolve the module itself explicitly.
    campaign_module = importlib.import_module("repro.chaos.campaign")
    monkeypatch.setitem(campaign_module.CAMPAIGNS, "tiny", _TINY_CAMPAIGN)
    serial = report_json(run_campaign("tiny", seed=5, jobs=1))
    fanned = report_json(run_campaign("tiny", seed=5, jobs=2))
    assert serial == fanned
    decoded = json.loads(serial)
    assert [s["scenario"]["name"] for s in decoded["scenarios"]] \
        == ["tiny-crash-recover", "tiny-over-budget"]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_cli_parses_perf_and_jobs_flags():
    parser = build_parser()
    args = parser.parse_args(["bench", "--figure", "fig7", "--jobs", "4",
                              "--format", "json"])
    assert (args.figure, args.jobs, args.format) == ("fig7", 4, "json")
    args = parser.parse_args(["chaos", "--campaign", "smoke", "--jobs", "2"])
    assert args.jobs == 2
    args = parser.parse_args(["figure", "fig6", "--jobs", "3"])
    assert args.jobs == 3
    args = parser.parse_args(["perf-check", "--ratio", "3.0"])
    assert args.ratio == 3.0


def test_cli_parses_observability_flags():
    parser = build_parser()
    args = parser.parse_args(["trace", "--causal"])
    assert args.causal is True
    args = parser.parse_args(["chaos", "--flight-dir", "dumps"])
    assert args.flight_dir == "dumps"
    args = parser.parse_args(["perf", "--profile"])
    assert args.profile is True
    args = parser.parse_args(["critical-path", "causal.jsonl",
                              "--format", "json"])
    assert (args.trace, args.format) == ("causal.jsonl", "json")
    args = parser.parse_args(["obs-overhead", "--repeat", "2",
                              "--budget", "1.1"])
    assert (args.repeat, args.budget) == (2, 1.1)


def test_check_overhead_gates_on_injected_document():
    from repro.bench.perf import check_overhead, format_overhead
    within = {"format": "repro-obs-overhead", "version": 1, "repeat": 2,
              "base_ms": 100.0, "causal_ms": 103.0, "ratio": 1.03}
    assert check_overhead(budget=1.05, current=within) == []
    over = dict(within, causal_ms=120.0, ratio=1.2)
    problems = check_overhead(budget=1.05, current=over)
    assert len(problems) == 1
    assert "1.2" in problems[0]
    assert "1.0300x" in format_overhead(within)


# ----------------------------------------------------------------------
# Causal grids (fig-critical-path)
# ----------------------------------------------------------------------

_TINY_CAUSAL = [PointSpec(protocol="ziziphus", num_zones=3,
                          clients_per_zone=4, global_fraction=fraction,
                          warmup_ms=80.0, measure_ms=160.0, seed=3,
                          causal=True, record_trace=True, instrument=True,
                          sample_interval_ms=0.0)
                for fraction in (0.1, 0.5)]


def test_causal_grid_attr_columns_are_jobs_independent():
    serial = run_grid(_TINY_CAUSAL, jobs=1)
    fanned = run_grid(_TINY_CAUSAL, jobs=2)
    assert json.dumps(serial, sort_keys=True) \
        == json.dumps(fanned, sort_keys=True)
    assert all(row["attr.total_ms"] > 0 for row in serial)


def test_fig_critical_path_grid_is_registered_and_causal():
    from repro.bench.experiments import (FIGURE_SPECS,
                                         fig_critical_path_specs)
    assert "fig-critical-path" in FIGURE_SPECS
    specs = fig_critical_path_specs()
    assert specs and all(s.causal and s.record_trace for s in specs)
    assert {s.backend for s in specs} == {"default", "rotating"}


def test_cli_bench_json_is_jobs_independent():
    from repro.cli import _bench_rows_json
    rows = [{"protocol": "ziziphus", "tput": 1.0}]
    encoded = _bench_rows_json("fig4", rows)
    decoded = json.loads(encoded)
    assert decoded["format"] == "repro-bench-grid"
    assert decoded["figure"] == "fig4"
    assert "jobs" not in decoded
    assert decoded["rows"] == rows
