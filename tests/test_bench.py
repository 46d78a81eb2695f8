"""Tests for the benchmark harness (metrics, runner, report)."""

import pytest

from repro.bench.metrics import compute_metrics, percentile
from repro.bench.report import format_table
from repro.bench.runner import PointSpec, run_point
from repro.errors import ConfigurationError
from repro.pbft.client import CompletedRequest


def record(completed_at, latency, is_global=False):
    return CompletedRequest(timestamp=1, operation=("deposit", 1),
                            result=("ok", 1),
                            started_at=completed_at - latency,
                            completed_at=completed_at, is_global=is_global)


def test_metrics_window_and_percentiles():
    records = [record(50, 5)] + [record(100 + i, 10 + i) for i in range(10)]
    records.append(record(250, 99))  # outside the window
    metrics = compute_metrics(records, warmup_ms=100, end_ms=200)
    assert metrics.completed == 10
    assert metrics.throughput_tps == pytest.approx(10 / 0.1)
    assert metrics.latency_mean_ms == pytest.approx(14.5)
    # Linear interpolation: median of 10..19 sits between the ranks.
    assert metrics.latency_p50_ms == pytest.approx(14.5)
    assert metrics.latency_p99_ms == pytest.approx(18.91)


def test_percentile_linear_interpolation():
    # Regression: nearest-rank with banker's rounding returned values[0]
    # for the median of two samples; interpolation gives the midpoint.
    assert percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.25) == pytest.approx(1.75)
    assert percentile([10.0], 0.99) == 10.0
    assert percentile([], 0.5) == 0.0
    # Endpoints are exact, and out-of-range fractions clamp.
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 10.0
    assert percentile(values, 1.5) == 10.0
    assert percentile(values, -0.5) == 1.0


def test_metrics_split_local_global():
    records = [record(150, 10), record(160, 100, is_global=True)]
    metrics = compute_metrics(records, warmup_ms=100, end_ms=200)
    assert metrics.local_completed == 1
    assert metrics.global_completed == 1
    assert metrics.local_latency_ms == pytest.approx(10)
    assert metrics.global_latency_ms == pytest.approx(100)


def test_metrics_empty_window():
    metrics = compute_metrics([], warmup_ms=0, end_ms=100)
    assert metrics.completed == 0
    assert metrics.throughput_tps == 0
    assert metrics.latency_p95_ms == 0


def test_format_table():
    text = format_table([{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}], "T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert len(lines) == 5
    assert format_table([], "T").endswith("(no data)")


def test_format_table_unions_columns_across_rows():
    # A column appearing only in later rows (e.g. the monitor's "viol"
    # count) must still be rendered — and missing cells stay blank.
    text = format_table([{"a": 1}, {"a": 2, "viol": 3}])
    header, _, first, second = text.splitlines()
    assert "viol" in header
    assert "3" in second
    assert "3" not in first


@pytest.mark.parametrize("protocol", ["ziziphus", "flat-pbft", "two-level",
                                      "steward"])
def test_run_point_smoke(protocol):
    spec = PointSpec(protocol=protocol, num_zones=3, clients_per_zone=4,
                     global_fraction=0.2, warmup_ms=100, measure_ms=200)
    result = run_point(spec)
    assert result.metrics.completed > 0
    assert result.metrics.throughput_tps > 0
    row = result.row()
    assert row["protocol"] == protocol
    assert row["zones"] == 3


def test_run_point_unknown_protocol():
    with pytest.raises(ConfigurationError):
        run_point(PointSpec(protocol="nope"))


def test_backup_failures_injected():
    spec = PointSpec(protocol="ziziphus", num_zones=3, clients_per_zone=4,
                     global_fraction=0.1, backup_failures_per_zone=1,
                     warmup_ms=100, measure_ms=200)
    result = run_point(spec)
    # Liveness is preserved with one backup down per zone (f=1).
    assert result.metrics.completed > 0


def test_cluster_spec_builds_and_runs():
    spec = PointSpec(protocol="ziziphus", num_zones=4, num_clusters=2,
                     clients_per_zone=3,
                     global_fraction=0.2, cross_cluster_fraction=0.5,
                     warmup_ms=100, measure_ms=300)
    result = run_point(spec)
    assert result.metrics.completed > 0
