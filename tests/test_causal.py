"""Tests for causal tracing, critical-path attribution, and bounded telemetry.

The causal tier's contract has three legs (DESIGN.md §12):

1. **Zero perturbation** — stamping span contexts and emitting
   ``txn.*`` / ``trace.link`` events must not move a single simulated
   timestamp (contexts are digest-excluded, so signatures are
   unchanged).
2. **Complete DAG** — every traced-phase span joins a transaction; an
   orphan means the instrumentation regressed, and the analyzer + CLI
   gate on it.
3. **Determinism** — critical-path reports are byte-identical from the
   live bus and from JSONL, and across same-seed runs.

Plus the memory-bounded collectors: the histogram's bucket grid, the
event list and the flight recorder ring never grow.
"""

import json
import random

from repro.bench.runner import PointSpec, run_point
from repro.crypto.digest import digest
from repro.messages.base import decode_message, encode_message
from repro.messages.client import ClientRequest, MigrationRequest
from repro.messages.trace import SpanContext, trace_id
from repro.obs.bus import Instrumentation
from repro.obs.causal import (TRACED_PHASES, report_clean, report_from_jsonl,
                              report_from_obs, report_json)
from repro.obs.flight import FlightRecorder
from repro.obs.hist import Histogram

_CAUSAL = PointSpec(protocol="ziziphus", num_zones=3, clients_per_zone=5,
                    global_fraction=0.2, warmup_ms=100.0, measure_ms=250.0,
                    seed=7, causal=True, record_trace=True, instrument=True,
                    sample_interval_ms=0.0)

_cache: dict = {}


def _causal_result():
    result = _cache.get("causal")
    if result is None:
        result = _cache["causal"] = run_point(_CAUSAL)
    return result


# ----------------------------------------------------------------------
# Complete DAG: every committed transaction reconstructs, no orphans
# ----------------------------------------------------------------------

def test_causal_run_reconstructs_complete_dag():
    report = report_from_obs(_causal_result().obs)
    assert report["format"] == "repro-critical-path"
    assert report["traces"]["completed"] > 0
    assert report["spans"]["attached"] > 0
    assert report["spans"]["orphans"] == 0
    assert report["spans"]["untraced"] == 0  # no cross-cluster here
    assert report["orphan_examples"] == []
    assert report_clean(report)
    # Every hop is populated for every completed transaction.
    completed = report["traces"]["completed"]
    for hop in ("submit_ms", "consensus_ms", "reply_ms", "total_ms"):
        assert report["hops"][hop]["count"] == completed
    # Kinds cover both local and migration traffic at 20% global.
    assert set(report["kinds"]) >= {"local", "migration"}
    assert set(report["zones"]) == {"z0", "z1", "z2"}


def test_hop_attribution_is_internally_consistent():
    report = report_from_obs(_causal_result().obs)
    hops = report["hops"]
    # Hops partition end-to-end latency: means must sum to the total.
    total = hops["submit_ms"]["mean"] + hops["consensus_ms"]["mean"] \
        + hops["reply_ms"]["mean"]
    assert abs(total - hops["total_ms"]["mean"]) < 0.01
    assert hops["total_ms"]["p95"] >= hops["total_ms"]["p50"] > 0


def test_attr_columns_surface_in_bench_rows():
    row = _causal_result().row()
    assert row["attr.total_ms"] > 0
    assert {"attr.submit_ms", "attr.consensus_ms",
            "attr.reply_ms"} <= set(row)


# ----------------------------------------------------------------------
# Determinism: same seed, live-vs-JSONL, byte-identical reports
# ----------------------------------------------------------------------

def test_report_byte_identical_across_same_seed_runs():
    first = report_json(report_from_obs(_causal_result().obs))
    second = report_json(report_from_obs(run_point(_CAUSAL).obs))
    assert first == second


def test_report_from_jsonl_matches_live_bus(tmp_path):
    from repro.obs.export import write_trace_jsonl
    obs = _causal_result().obs
    path = tmp_path / "causal.jsonl"
    write_trace_jsonl(obs, path)
    assert report_json(report_from_jsonl(path)) \
        == report_json(report_from_obs(obs))


# ----------------------------------------------------------------------
# Zero perturbation: causal tier changes no simulated byte
# ----------------------------------------------------------------------

def test_causal_tier_does_not_perturb_simulation():
    from dataclasses import replace
    base = run_point(replace(_CAUSAL, causal=False))
    traced = _causal_result()
    base_row, traced_row = base.row(), traced.row()
    # The causal row is the base row plus attr.* columns — nothing else.
    assert {k: v for k, v in traced_row.items()
            if not k.startswith("attr.")} == base_row
    # The recorded event streams agree outside the three causal kinds.
    causal_kinds = {"txn.submit", "txn.reply", "trace.link"}
    strip = [e for e in traced.obs.events if e.kind not in causal_kinds]
    assert [(e.ts, e.kind, e.node) for e in strip] \
        == [(e.ts, e.kind, e.node) for e in base.obs.events]
    assert not [e for e in base.obs.events if e.kind in causal_kinds]


def test_span_context_is_digest_excluded():
    request = ClientRequest(operation=("get", "k"), timestamp=3, sender="c1")
    stamped = ClientRequest(operation=("get", "k"), timestamp=3, sender="c1",
                            ctx=SpanContext(trace_id="c1:3"))
    assert digest(request) == digest(stamped)
    assert request == stamped  # compare=False: protocol equality holds
    migration = MigrationRequest(operation=("move",), timestamp=1,
                                 sender="c2", source_zone="z0",
                                 dest_zone="z1")
    stamped = MigrationRequest(operation=("move",), timestamp=1,
                               sender="c2", source_zone="z0", dest_zone="z1",
                               ctx=SpanContext(trace_id="c2:1"))
    assert digest(migration) == digest(stamped)


def test_span_context_round_trips_through_codec():
    request = ClientRequest(operation=("get", "k"), timestamp=3, sender="c1",
                            ctx=SpanContext(trace_id="c1:3", parent="root"))
    decoded = decode_message(encode_message(request))
    assert decoded.ctx == SpanContext(trace_id="c1:3", parent="root")
    assert trace_id(decoded) == "c1:3"


def test_trace_id_is_a_pure_function_of_request_fields():
    request = MigrationRequest(operation=("move",), timestamp=9, sender="c7",
                               source_zone="z0", dest_zone="z2")
    assert trace_id(request) == "c7:9"
    # Derivable at any hop: independent of whether ctx was stamped.
    from dataclasses import replace
    assert trace_id(replace(request, ctx=SpanContext(trace_id="c7:9"))) \
        == trace_id(request)


# ----------------------------------------------------------------------
# Histogram percentile edge cases (exact, byte-compatible fast paths)
# ----------------------------------------------------------------------

def test_histogram_percentile_edge_cases():
    empty = Histogram()
    assert empty.percentile(0.5) == 0.0
    single = Histogram()
    single.record(3.7)
    for fraction in (0.0, 0.5, 0.95, 1.0):
        assert single.percentile(fraction) == 3.7
    duplicates = Histogram()
    for _ in range(100):
        duplicates.record(2.5)
    for fraction in (0.5, 0.95, 0.99):
        assert duplicates.percentile(fraction) == 2.5


# ----------------------------------------------------------------------
# Memory bounds: 10k-client-scale synthetic streams stay fixed-size
# ----------------------------------------------------------------------

def test_telemetry_memory_is_bounded_for_synthetic_10k_client_run():
    rng = random.Random(1)
    obs = Instrumentation(enabled=True, flight=256,
                          recording=True, max_events=1_000)
    # 10k clients x 20 observations each, streamed through one bus.
    for i in range(200_000):
        obs.observe("span.pbft", rng.uniform(0.1, 50.0))
        if i % 20 == 0:
            obs.emit(float(i), "net.send", node=f"c{i % 10_000}")
    hist = obs.histogram("span.pbft")
    assert isinstance(hist, Histogram)
    assert hist.count == 200_000
    # Fixed size: 26 geometric buckets, no per-sample storage.
    assert len(hist._buckets) == 26
    # The event list is ring-capped and the flight ring never grows.
    assert len(obs.events) <= 1_000
    assert obs.dropped_events > 0
    assert len(obs.flight) == 256
    assert obs.flight.total == 10_000


def test_flight_recorder_keeps_last_n_and_dumps_deterministically(tmp_path):
    ring = FlightRecorder(capacity=4)
    for i in range(10):
        ring.record(float(i), "net.send", f"z0n{i % 2}", {"seq": i})
    assert len(ring) == 4
    assert [e["seq"] for e in ring.snapshot()] == [6, 7, 8, 9]
    path = ring.dump_jsonl(tmp_path / "flight.jsonl", scenario="s", seed=1)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "repro-flight"
    assert header["overwritten"] == 6
    assert header["scenario"] == "s"
    assert len(lines) == 5
    # Byte-identical re-dump: the determinism contract of every export.
    again = ring.dump_jsonl(tmp_path / "flight2.jsonl", scenario="s", seed=1)
    assert again.read_text() == path.read_text()


# ----------------------------------------------------------------------
# Chaos integration: dumps only on divergence, report carries the path
# ----------------------------------------------------------------------

def test_chaos_divergence_dumps_flight_recorder(tmp_path):
    from repro.chaos.runner import run_scenario
    from repro.chaos.scenario import FaultAction, Scenario
    # Over-budget crashes are benign faults: the monitor stays clean, the
    # declared expectation ("violation") diverges, and the run fails.
    diverging = Scenario(name="tiny-expected-violation",
                         description="expects a violation that never happens",
                         budget=">f", expect="violation",
                         duration_ms=1_200.0, clients_per_zone=2,
                         actions=(FaultAction(at_ms=300, kind="crash",
                                              node="z0n1"),
                                  FaultAction(at_ms=400, kind="crash",
                                              node="z0n2")))
    result = run_scenario(diverging, seed=3, flight_dir=str(tmp_path))
    assert result.verdict == "fail"
    assert result.flight_dump is not None
    dump = tmp_path / "flight-tiny-expected-violation.jsonl"
    assert str(dump) == result.flight_dump
    header = json.loads(dump.read_text().splitlines()[0])
    assert header["format"] == "repro-flight"
    assert header["scenario"] == "tiny-expected-violation"
    assert result.as_dict()["flight_dump"] == result.flight_dump


def test_chaos_pass_never_references_a_flight_dump(tmp_path):
    from repro.chaos.runner import run_scenario
    from repro.chaos.scenario import FaultAction, Scenario
    passing = Scenario(name="tiny-safe", description="one crash within f",
                       budget="<=f", expect="safe", duration_ms=1_200.0,
                       clients_per_zone=2,
                       actions=(FaultAction(at_ms=300, kind="crash",
                                            node="z0n1"),))
    result = run_scenario(passing, seed=3, flight_dir=str(tmp_path))
    assert result.verdict == "pass"
    assert result.flight_dump is None
    assert "flight_dump" not in result.as_dict()
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Analyzer surface
# ----------------------------------------------------------------------

def test_traced_phases_cover_the_protocol_inventory():
    assert {"pbft", "endorse", "global-txn", "migration-copy",
            "commit"} <= set(TRACED_PHASES)
    assert "cross-cluster" not in TRACED_PHASES  # counted as untraced


def test_report_json_is_canonical():
    report = report_from_obs(_causal_result().obs)
    encoded = report_json(report)
    assert json.loads(encoded) == json.loads(
        json.dumps(report, sort_keys=True, default=str))
    assert "\n" not in encoded
