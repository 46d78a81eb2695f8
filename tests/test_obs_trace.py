"""End-to-end instrumentation: determinism, phase columns, sampling."""

import pytest

from repro.bench.runner import PointSpec, run_point
from repro.obs.export import chrome_trace, trace_jsonl

SPEC = PointSpec(protocol="ziziphus", num_zones=3, f=1, clients_per_zone=6,
                 global_fraction=0.2, warmup_ms=100, measure_ms=300, seed=7,
                 instrument=True, record_trace=True)


@pytest.fixture(scope="module")
def traced_result():
    return run_point(SPEC)


def test_same_seed_trace_is_byte_identical(traced_result):
    # The acceptance bar for the whole bus: two runs of the same seeded
    # experiment must export byte-identical JSONL.
    again = run_point(SPEC)
    assert trace_jsonl(traced_result.obs) == trace_jsonl(again.obs)


def test_different_seed_trace_differs(traced_result):
    from dataclasses import replace
    other = run_point(replace(SPEC, seed=8))
    assert trace_jsonl(traced_result.obs) != trace_jsonl(other.obs)


def test_phase_breakdown_columns_present(traced_result):
    # Fig. 4-style point: the metrics carry the per-phase latency split
    # (endorsement vs WAN phases vs CPU queueing vs local PBFT).
    breakdown = traced_result.metrics.phase_breakdown
    assert breakdown["endorse_ms"] > 0
    assert breakdown["wan_ms"] > 0
    assert breakdown["pbft_ms"] > 0
    assert breakdown["queue_ms"] >= 0
    # WAN phases dominate endorsement (cross-region RTTs vs LAN rounds).
    assert breakdown["wan_ms"] > breakdown["endorse_ms"]
    row = traced_result.metrics.row()
    for column in ("endorse_ms", "wan_ms", "queue_ms", "pbft_ms"):
        assert column in row


def test_uninstrumented_run_has_no_breakdown():
    from dataclasses import replace
    result = run_point(replace(SPEC, instrument=False, record_trace=False))
    # The always-on conformance monitor keeps a bus attached, but the
    # histogram/span tier stays off: no breakdown columns, no spans.
    assert result.obs is not None and not result.obs.metrics
    assert result.metrics.phase_breakdown == {}
    assert result.obs.histograms == {}
    assert result.obs.spans == []
    assert result.monitor is not None and result.monitor.clean
    result = run_point(replace(SPEC, instrument=False, record_trace=False,
                               monitor=False))
    assert result.obs is None
    assert result.metrics.violations is None


def test_protocol_spans_cover_expected_phases(traced_result):
    phases = {span.phase for span in traced_result.obs.spans}
    assert {"pbft", "endorse", "accept", "accepted", "commit",
            "global-txn", "migration-state", "migration-copy"} <= phases


def test_sampler_collected_node_samples(traced_result):
    obs = traced_result.obs
    assert obs.sampler.samples_taken > 0
    util = obs.histogram("node.utilization")
    depth = obs.histogram("node.queue_depth")
    assert util is not None and util.count > 0
    assert depth is not None and depth.count > 0
    assert 0.0 <= util.max <= 1.0
    samples = [e for e in obs.events if e.kind == "sample.node"]
    assert samples
    assert {"queue_depth", "utilization", "backlog_ms",
            "cpu_ms"} <= set(samples[0].fields)


def test_network_stats_view_reads_through_bus(traced_result):
    # NetworkStats is a view over the bus counters, not a second ledger.
    obs = traced_result.obs
    assert obs.value("net.sent") > 0
    assert obs.value("net.wan_sent") > 0
    assert obs.value("sim.events") > 0
    assert obs.type_counters["net.msg"]  # per-payload-type counts


def test_chrome_trace_threads_are_nodes(traced_result):
    doc = chrome_trace(traced_result.obs)
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M"}
    assert any(name.startswith("z0n") for name in names)


def test_trace_csv_round_trip(tmp_path, traced_result):
    from repro.bench.export import read_csv, write_csv
    path = write_csv(tmp_path / "point.csv", [traced_result])
    (row,) = read_csv(path)
    assert float(row["endorse_ms"]) > 0
    assert float(row["wan_ms"]) > 0
    assert float(row["pbft_ms"]) > 0


def test_cross_cluster_spans_recorded():
    from dataclasses import replace
    spec = replace(SPEC, num_zones=4, num_clusters=2,
                   clients_per_zone=3, cross_cluster_fraction=0.5,
                   measure_ms=400)
    result = run_point(spec)
    phases = {span.phase for span in result.obs.spans}
    assert "cross-cluster" in phases
    assert result.obs.value("cross.executed") > 0
