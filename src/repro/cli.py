"""Command-line interface.

Run single experiment points or whole paper figures from a shell::

    python -m repro point --protocol ziziphus --zones 3 --clients 50
    python -m repro compare --zones 3 --global-fraction 0.1
    python -m repro figure fig4
    python -m repro analyze-assignment --zones 10 --zone-size 4 --byzantine 8
    python -m repro trace --out trace.jsonl --chrome trace.json
    python -m repro lint --format json
    python -m repro chaos --campaign smoke --format json --out report.json

(Also installed as the ``repro`` console script.)
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.assignment import analyze_assignment
from repro.bench.report import format_table
from repro.bench.runner import PROTOCOLS, PointSpec, run_point
from repro.errors import ConfigurationError

__all__ = ["main", "build_parser"]

FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig-backends",
           "fig-critical-path", "fig-read-path")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ziziphus (ICDE 2023) reproduction harness")
    from repro import __version__
    from repro.consensus import backend_names
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="run one experiment point")
    point.add_argument("--protocol", choices=PROTOCOLS, default="ziziphus")
    _add_point_args(point)

    compare = sub.add_parser("compare",
                             help="run all four protocols on one workload")
    _add_point_args(compare)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    # Validated in main() (not via argparse choices) so an unknown name
    # gets a one-line hint listing the valid figures instead of usage spam.
    figure.add_argument("name", metavar="NAME",
                        help=f"one of: {', '.join(FIGURES)}")
    figure.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the grid (default 1; "
                             "results are identical for any value)")

    bench = sub.add_parser(
        "bench",
        help="run a figure's experiment grid, optionally in parallel, "
             "and emit the rows as a table or stable JSON")
    bench.add_argument("--figure", choices=FIGURES, default="fig4")
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1; output is "
                            "byte-identical for any value)")
    bench.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format (default: text)")
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="also write the JSON rows here")

    assignment = sub.add_parser(
        "analyze-assignment",
        help="probabilistic safety of random node-to-zone assignment")
    assignment.add_argument("--zones", type=int, default=10)
    assignment.add_argument("--zone-size", type=int, default=4)
    assignment.add_argument("--byzantine", type=int, default=10)

    trace = sub.add_parser(
        "trace",
        help="run an instrumented point and export its structured trace")
    trace.add_argument("--protocol", choices=PROTOCOLS, default="ziziphus")
    _add_point_args(trace)
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write the JSONL trace here")
    trace.add_argument("--chrome", default=None, metavar="PATH",
                       help="write a Chrome trace_event file here "
                            "(open in Perfetto / chrome://tracing)")
    trace.add_argument("--sample-interval-ms", type=float, default=25.0,
                       help="queue-depth/utilization sampling cadence "
                            "(0 disables)")
    trace.add_argument("--causal", action="store_true",
                       help="enable causal transaction tracing (trace ids, "
                            "txn.*/trace.link events) and print the "
                            "critical-path report")

    audit = sub.add_parser(
        "audit",
        help="replay an exported JSONL trace through the protocol "
             "conformance monitor and print a forensic report")
    audit.add_argument("trace", metavar="TRACE",
                       help="JSONL trace file (from `repro trace --out`)")
    audit.add_argument("--report", default=None, metavar="PATH",
                       help="also write the forensic report JSON here")
    audit.add_argument("--stall-timeout-ms", type=float, default=10_000.0,
                       help="liveness watchdog threshold")

    lint = sub.add_parser(
        "lint",
        help="run the determinism & protocol-safety static-analysis "
             "suite over the codebase")
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      metavar="PATH",
                      help="files or directories to lint "
                           "(default: src/repro)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (default: text)")

    taint = sub.add_parser(
        "taint",
        help="run the Byzantine taint analysis over the wire-message "
             "trust boundary and print the verify-before-trust report")
    taint.add_argument("paths", nargs="*", default=["src/repro"],
                       metavar="PATH",
                       help="files or directories to analyze "
                            "(default: src/repro)")
    taint.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="report format (default: text)")
    taint.add_argument("--dot", default=None, metavar="PATH",
                       help="also write the handler-flow graph "
                            "(Graphviz DOT) here")

    chaos = sub.add_parser(
        "chaos",
        help="run a deterministic adversarial campaign and print the "
             "resilience report")
    chaos.add_argument("--campaign", default="default", metavar="NAME",
                       help="campaign name (default: default; "
                            "see repro.chaos.campaign)")
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--zones", type=int, default=3)
    chaos.add_argument("--f", type=int, default=1)
    chaos.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format (default: text)")
    chaos.add_argument("--out", default=None, metavar="PATH",
                       help="also write the JSON resilience report here")
    chaos.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the campaign (default 1; "
                            "the report is byte-identical for any value)")
    chaos.add_argument("--backend", choices=backend_names(),
                       default="default",
                       help="consensus backend the campaign deploys "
                            "(default: default)")
    chaos.add_argument("--flight-dir", default=None, metavar="DIR",
                       help="directory where failing scenarios dump their "
                            "flight-recorder ring (flight-<name>.jsonl)")

    baseline = sub.add_parser(
        "bench-baseline",
        help="run the fixed-seed smoke subset and write the performance "
             "baseline (BENCH_baseline.json)")
    baseline.add_argument("--out", default="BENCH_baseline.json",
                          metavar="PATH")

    check = sub.add_parser(
        "bench-check",
        help="re-run the smoke subset and fail on regression vs the "
             "stored baseline")
    check.add_argument("--baseline", default="BENCH_baseline.json",
                       metavar="PATH")
    check.add_argument("--tolerance", type=float, default=0.25,
                       help="allowed relative regression (default 0.25)")

    perf = sub.add_parser(
        "perf",
        help="run the wall-clock microbenchmark suite (host speed of the "
             "reproduction itself, not simulated metrics)")
    perf.add_argument("--repeat", type=int, default=3,
                      help="samples per bench; best is kept (default 3)")
    perf.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (default: text)")
    perf.add_argument("--out", default=None, metavar="PATH",
                      help="also write the JSON perf document here")
    perf.add_argument("--profile", action="store_true",
                      help="additionally self-profile the run_point bench "
                           "shape's event loop (per-handler / per-message "
                           "wall-time attribution)")

    perf_baseline = sub.add_parser(
        "perf-baseline",
        help="run the perf suite and store the wall-clock baseline "
             "(PERF_baseline.json)")
    perf_baseline.add_argument("--out", default="PERF_baseline.json",
                               metavar="PATH")
    perf_baseline.add_argument("--repeat", type=int, default=3)

    perf_check = sub.add_parser(
        "perf-check",
        help="re-run the perf suite and fail on wall-clock regression "
             "beyond the ratio band vs the stored baseline")
    perf_check.add_argument("--baseline", default="PERF_baseline.json",
                            metavar="PATH")
    perf_check.add_argument("--ratio", type=float, default=2.0,
                            help="allowed slowdown factor (default 2.0; "
                                 "generous on purpose — CI hosts are noisy)")
    perf_check.add_argument("--repeat", type=int, default=3)

    critical = sub.add_parser(
        "critical-path",
        help="reconstruct per-transaction span DAGs from a causal trace "
             "and print the critical-path attribution report")
    critical.add_argument("trace", metavar="TRACE",
                          help="JSONL trace file from a causal run "
                               "(`repro trace --causal --out ...`)")
    critical.add_argument("--format", choices=("text", "json"),
                          default="text",
                          help="report format (default: text)")
    critical.add_argument("--out", default=None, metavar="PATH",
                          help="also write the JSON report here")

    overhead = sub.add_parser(
        "obs-overhead",
        help="measure the wall-time overhead of causal tracing on the "
             "run_point bench shape and gate it against a budget")
    overhead.add_argument("--repeat", type=int, default=3,
                          help="interleaved samples per side; best is "
                               "kept (default 3)")
    overhead.add_argument("--budget", type=float, default=1.05,
                          help="allowed causal-on/off wall-time ratio "
                               "(default 1.05)")
    overhead.add_argument("--format", choices=("text", "json"),
                          default="text",
                          help="report format (default: text)")
    overhead.add_argument("--out", default=None, metavar="PATH",
                          help="also write the JSON overhead document here")
    return parser


def _add_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--zones", type=int, default=3)
    parser.add_argument("--f", type=int, default=1)
    parser.add_argument("--clients", type=int, default=50,
                        help="clients per zone")
    parser.add_argument("--global-fraction", type=float, default=0.1)
    parser.add_argument("--read-fraction", type=float, default=0.0,
                        help="fraction of client actions issued as "
                             "certified reads (repro.reads; default 0 "
                             "keeps the workload write-only)")
    parser.add_argument("--clusters", type=int, default=1,
                        help="zone clusters (must divide --zones: every "
                             "cluster gets the same number of zones)")
    parser.add_argument("--cross-cluster-fraction", type=float, default=0.0)
    parser.add_argument("--warmup-ms", type=float, default=300.0)
    parser.add_argument("--measure-ms", type=float, default=500.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--failures-per-zone", type=int, default=0)
    from repro.consensus import backend_names
    parser.add_argument("--backend", choices=backend_names(),
                        default="default",
                        help="consensus backend (default: default; "
                             "see repro.consensus.registry)")


def _spec(args: argparse.Namespace, protocol: str) -> PointSpec:
    return PointSpec(protocol=protocol, num_zones=args.zones, f=args.f,
                     clients_per_zone=args.clients,
                     global_fraction=args.global_fraction,
                     read_fraction=args.read_fraction,
                     num_clusters=args.clusters,
                     cross_cluster_fraction=args.cross_cluster_fraction,
                     backup_failures_per_zone=args.failures_per_zone,
                     warmup_ms=args.warmup_ms, measure_ms=args.measure_ms,
                     seed=args.seed, backend=args.backend)


def _row(result) -> dict:
    from repro.bench.parallel import point_row

    return point_row(result)


def _bench_rows_json(figure: str, rows: list[dict]) -> str:
    """Stable JSON for a figure grid: independent of --jobs and host."""
    import json

    return json.dumps({"format": "repro-bench-grid", "version": 1,
                       "figure": figure, "rows": rows},
                      sort_keys=True, separators=(",", ":"))


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        # A system that cannot be stood up as asked (zones not divisible
        # by clusters, a backend on a fixed-engine baseline, ...).
        print(f"repro: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "point":
        result = run_point(_spec(args, args.protocol))
        print(format_table([_row(result)], title="experiment point"))
        return 0

    if args.command == "compare":
        rows = []
        for protocol in PROTOCOLS:
            print(f"running {protocol} ...", file=sys.stderr)
            rows.append(_row(run_point(_spec(args, protocol))))
        print(format_table(rows, title="protocol comparison"))
        return 0

    if args.command == "figure":
        if args.name not in FIGURES:
            print(f"repro figure: unknown figure {args.name!r}; "
                  f"valid names are: {', '.join(FIGURES)}", file=sys.stderr)
            return 2
        from repro.bench.parallel import grid_rows
        print(format_table(grid_rows(args.name, jobs=args.jobs),
                           title=args.name))
        if args.name == "fig-backends":
            from repro.bench.experiments import fig_backends_recovery_rows
            print()
            print(format_table(fig_backends_recovery_rows(),
                               title="fig-backends: failover recovery"))
        return 0

    if args.command == "bench":
        from pathlib import Path

        from repro.bench.parallel import grid_rows
        rows = grid_rows(args.figure, jobs=args.jobs)
        print(_bench_rows_json(args.figure, rows)
              if args.format == "json"
              else format_table(rows, title=args.figure))
        if args.out:
            Path(args.out).write_text(
                _bench_rows_json(args.figure, rows) + "\n")
            print(f"\nbench rows: {args.out}", file=sys.stderr)
        return 0

    if args.command == "audit":
        from pathlib import Path

        from repro.obs.monitor import MonitorConfig
        from repro.obs.report import audit_trace, format_report
        trace_path = Path(args.trace)
        if not trace_path.is_file():
            print(f"repro audit: trace file not found: {trace_path}",
                  file=sys.stderr)
            return 2
        monitor = audit_trace(
            trace_path,
            config=MonitorConfig(stall_timeout_ms=args.stall_timeout_ms))
        report = monitor.report()
        print(format_report(report))
        if args.report:
            Path(args.report).write_text(monitor.report_json() + "\n")
            print(f"\nforensic report: {args.report}", file=sys.stderr)
        return 0 if monitor.clean else 3

    if args.command == "lint":
        from repro.analysis.lint import LintError, run_lint
        try:
            result = run_lint(args.paths)
        except LintError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        print(result.to_json() if args.format == "json"
              else result.to_text())
        return result.exit_code

    if args.command == "taint":
        from pathlib import Path

        from repro.analysis.lint import LintError
        from repro.analysis.taint import handler_graph_dot, run_taint
        try:
            result = run_taint(args.paths)
            if args.dot:
                Path(args.dot).write_text(handler_graph_dot(args.paths))
                print(f"handler-flow graph: {args.dot}", file=sys.stderr)
        except LintError as exc:
            print(f"repro taint: {exc}", file=sys.stderr)
            return 2
        print(result.to_json() if args.format == "json"
              else result.to_text())
        # Unjustified suppressions gate the tree just like findings do:
        # every ``allow[taint-flow]`` must explain *why* the flow is safe.
        return 1 if (result.findings or result.unjustified) else 0

    if args.command == "chaos":
        from pathlib import Path

        from repro.chaos import format_report as chaos_format
        from repro.chaos import report_json, run_campaign
        from repro.chaos.campaign import campaign_names
        if args.campaign not in campaign_names():
            print(f"repro chaos: unknown campaign {args.campaign!r}; "
                  f"valid names are: {', '.join(campaign_names())}",
                  file=sys.stderr)
            return 2
        result = run_campaign(args.campaign, seed=args.seed,
                              num_zones=args.zones, f=args.f,
                              jobs=args.jobs, backend=args.backend,
                              flight_dir=args.flight_dir)
        dumps = [r.flight_dump for r in result.results
                 if r.flight_dump is not None]
        for dump in dumps:
            print(f"flight recorder dump: {dump}", file=sys.stderr)
        print(report_json(result) if args.format == "json"
              else chaos_format(result))
        if args.out:
            Path(args.out).write_text(report_json(result) + "\n")
            print(f"\nresilience report: {args.out}", file=sys.stderr)
        # Exit 4 on verdict divergence: a scenario's observed outcome
        # contradicted its declared expectation (CI fails on this).
        return 0 if result.passed else 4

    if args.command == "bench-baseline":
        from repro.bench.baseline import write_baseline
        path = write_baseline(args.out)
        print(f"baseline written: {path}")
        return 0

    if args.command == "bench-check":
        from pathlib import Path

        from repro.bench.baseline import check_baseline
        if not Path(args.baseline).is_file():
            print(f"repro bench-check: baseline not found: {args.baseline} "
                  "(run `repro bench-baseline` first)", file=sys.stderr)
            return 2
        problems = check_baseline(args.baseline, tolerance=args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("bench-check: all points within tolerance")
        return 0

    if args.command == "perf":
        from pathlib import Path

        from repro.bench.perf import format_perf, perf_json, perf_report
        report = perf_report(repeat=args.repeat)
        if args.profile:
            from repro.bench.perf import profile_report
            report["profile"] = profile_report()
        print(perf_json(report) if args.format == "json"
              else format_perf(report))
        if args.profile and args.format == "text":
            profile = report["profile"]
            rows = sorted(
                ({"message": key, **stats}
                 for key, stats in profile["messages"].items()),
                key=lambda row: (-row["wall_total_ms"], row["message"]))
            print()
            print(format_table(rows,
                               title="event-loop profile by message class "
                                     "(wall columns are host-dependent)"))
        if args.out:
            Path(args.out).write_text(perf_json(report) + "\n")
            print(f"\nperf document: {args.out}", file=sys.stderr)
        return 0

    if args.command == "perf-baseline":
        from repro.bench.perf import write_perf_baseline
        path = write_perf_baseline(args.out, repeat=args.repeat)
        print(f"perf baseline written: {path}")
        return 0

    if args.command == "perf-check":
        from pathlib import Path

        from repro.bench.perf import check_perf
        if not Path(args.baseline).is_file():
            print(f"repro perf-check: baseline not found: {args.baseline} "
                  "(run `repro perf-baseline` first)", file=sys.stderr)
            return 2
        problems = check_perf(args.baseline, ratio=args.ratio,
                              repeat=args.repeat)
        if problems:
            for problem in problems:
                print(f"PERF REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("perf-check: all benches within the ratio band")
        return 0

    if args.command == "trace":
        from dataclasses import replace

        from repro.obs.export import write_chrome_trace, write_trace_jsonl
        spec = replace(_spec(args, args.protocol), instrument=True,
                       record_trace=True, causal=args.causal,
                       sample_interval_ms=args.sample_interval_ms)
        result = run_point(spec)
        obs = result.obs
        print(format_table([_row(result)], title="instrumented point"))
        phase_rows = [{"phase": phase, **stats}
                      for phase, stats in obs.phase_stats().items()]
        if phase_rows:
            print()
            print(format_table(phase_rows, title="protocol phase spans (ms)"))
        if args.causal:
            from repro.obs.causal import format_report as causal_format
            from repro.obs.causal import report_from_obs
            print()
            print(causal_format(report_from_obs(obs)))
        if args.out:
            path = write_trace_jsonl(obs, args.out)
            print(f"\ntrace: {path} ({len(obs.events)} events, "
                  f"{len(obs.spans)} spans)", file=sys.stderr)
        if args.chrome:
            path = write_chrome_trace(obs, args.chrome)
            print(f"chrome trace: {path} "
                  "(open at https://ui.perfetto.dev)", file=sys.stderr)
        return 0

    if args.command == "critical-path":
        from pathlib import Path

        from repro.obs.causal import (format_report as causal_format,
                                      report_clean, report_from_jsonl,
                                      report_json)
        trace_path = Path(args.trace)
        if not trace_path.is_file():
            print(f"repro critical-path: trace file not found: "
                  f"{trace_path}", file=sys.stderr)
            return 2
        report = report_from_jsonl(trace_path)
        print(report_json(report) if args.format == "json"
              else causal_format(report))
        if args.out:
            Path(args.out).write_text(report_json(report) + "\n")
            print(f"\ncritical-path report: {args.out}", file=sys.stderr)
        # Exit 5 when any traced span could not be joined to a trace —
        # an incomplete DAG means the causal instrumentation regressed.
        return 0 if report_clean(report) else 5

    if args.command == "obs-overhead":
        from pathlib import Path

        from repro.bench.perf import (check_overhead, format_overhead,
                                      overhead_report)
        import json as _json
        document = overhead_report(repeat=args.repeat)
        print(_json.dumps(document, indent=2, sort_keys=True)
              if args.format == "json" else format_overhead(document))
        if args.out:
            Path(args.out).write_text(
                _json.dumps(document, indent=2, sort_keys=True) + "\n")
            print(f"\noverhead document: {args.out}", file=sys.stderr)
        problems = check_overhead(budget=args.budget, current=document)
        for problem in problems:
            print(f"OVERHEAD REGRESSION: {problem}", file=sys.stderr)
        return 1 if problems else 0

    if args.command == "analyze-assignment":
        analysis = analyze_assignment(zones=args.zones,
                                      zone_size=args.zone_size,
                                      byzantine=args.byzantine)
        print(format_table([{
            "nodes": analysis.population,
            "byzantine": analysis.byzantine,
            "zones": analysis.zones,
            "zone size": analysis.zone_size,
            "P[zone unsafe]": f"{analysis.per_zone_failure:.3g}",
            "P[deployment unsafe]": f"{analysis.deployment_failure:.3g}",
            "safety bits": f"{analysis.safety_bits():.1f}",
            "deterministic safe": analysis.deterministic_safe,
        }], title="random node-to-zone assignment (Proposition 5.3)"))
        return 0

    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
