"""Command-line interface.

Run single experiment points or whole paper figures from a shell::

    python -m repro point --protocol ziziphus --zones 3 --clients 50
    python -m repro compare --zones 3 --global-fraction 0.1
    python -m repro figure fig4 --jobs 4 --format json --out fig4.json
    python -m repro analyze-assignment --zones 10 --zone-size 4 --byzantine 8
    python -m repro trace --out trace.jsonl --chrome trace.json
    python -m repro lint --format json
    python -m repro chaos --campaign smoke --format json --out report.json

(Also installed as the ``repro`` console script.)

Every subcommand is one row of :data:`COMMANDS`: its help, its
arguments and a ``run(args)`` returning ``(text, json_text,
exit_code)``. :func:`main` is the one emitter: it refuses a missing
output directory, a missing input file or an unknown name before
anything runs, prints ``json_text`` under ``--format json`` and
``text`` otherwise, writes ``json_text`` to the row's output file with
a notice on stderr, and returns the exit code.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.assignment import analyze_assignment
from repro.analysis.lint import LintError
from repro.bench.experiments import FIGURE_SPECS
from repro.bench.parallel import grid_rows, point_row
from repro.bench.report import format_table
from repro.bench.runner import PROTOCOLS, PointSpec, run_point
from repro.chaos.campaign import campaign_names
from repro.errors import ConfigurationError
from repro.obs.export import canonical_json

__all__ = ["main", "build_parser", "COMMANDS", "Command", "figure_json"]

#: What a command's ``run`` returns: text, JSON text, exit code.
Outcome = tuple[str | None, str | None, int]


@dataclass(frozen=True)
class Command:
    """One subcommand: its help, its arguments and what it does."""

    help: str
    run: Callable[[argparse.Namespace], Outcome]
    args: Callable[[argparse.ArgumentParser], None] = lambda parser: None
    #: Offers ``--format text|json``.
    formats: bool = False
    #: Option that also writes the JSON text to a file, and the file's
    #: name in the stderr notice.
    out: str | None = None
    notice: str = ""
    #: Refuses the arguments before anything runs: returns the error
    #: line (after ``repro NAME:``), or None to go ahead.
    check: Callable[[argparse.Namespace], str | None] = lambda args: None


# ----------------------------------------------------------------------
# Arguments
# ----------------------------------------------------------------------

def _point_args(parser: argparse.ArgumentParser,
                protocol: bool = True) -> None:
    from repro.consensus import backend_names

    if protocol:
        parser.add_argument("--protocol", choices=PROTOCOLS,
                            default="ziziphus")
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
    parser.add_argument("--backend", choices=backend_names(),
                        default="default",
                        help="consensus backend (default: default; "
                             "see repro.consensus.registry)")


def _jobs_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help=f"worker processes for the {what} (default 1; "
                             "output is byte-identical for any value)")


def _figure_args(parser: argparse.ArgumentParser) -> None:
    # Checked by the row's ``check`` (not argparse choices) so an unknown
    # name gets a one-line hint listing the valid figures, not usage spam.
    parser.add_argument("name", metavar="NAME",
                        help=f"one of: {', '.join(FIGURE_SPECS)}")
    _jobs_arg(parser, "grid")


def _assignment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--zones", type=int, default=10)
    parser.add_argument("--zone-size", type=int, default=4)
    parser.add_argument("--byzantine", type=int, default=10)


def _trace_args(parser: argparse.ArgumentParser) -> None:
    _point_args(parser)
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSONL trace here")
    parser.add_argument("--chrome", default=None, metavar="PATH",
                        help="write a Chrome trace_event file here "
                             "(open in Perfetto / chrome://tracing)")
    parser.add_argument("--sample-interval-ms", type=float, default=25.0,
                        help="queue-depth/utilization sampling cadence "
                             "(0 disables)")
    parser.add_argument("--causal", action="store_true",
                        help="enable causal transaction tracing (trace "
                             "ids, txn.*/trace.link events) and print the "
                             "critical-path report")


def _audit_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", metavar="TRACE",
                        help="JSONL trace file (from `repro trace --out`)")
    parser.add_argument("--stall-timeout-ms", type=float, default=10_000.0,
                        help="liveness watchdog threshold")


def _paths_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        metavar="PATH",
                        help="files or directories to analyze "
                             "(default: src/repro)")


def _taint_args(parser: argparse.ArgumentParser) -> None:
    _paths_arg(parser)
    parser.add_argument("--dot", default=None, metavar="PATH",
                        help="also write the handler-flow graph "
                             "(Graphviz DOT) here")


def _chaos_args(parser: argparse.ArgumentParser) -> None:
    from repro.consensus import backend_names

    parser.add_argument("--campaign", default="default", metavar="NAME",
                        help="campaign name (default: default; "
                             "see repro.chaos.campaign)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--zones", type=int, default=3)
    parser.add_argument("--f", type=int, default=1)
    _jobs_arg(parser, "campaign")
    parser.add_argument("--backend", choices=backend_names(),
                        default="default",
                        help="consensus backend the campaign deploys "
                             "(default: default)")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="directory where failing scenarios dump their "
                             "flight-recorder ring (flight-<name>.jsonl)")


def _baseline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="BENCH_baseline.json",
                        metavar="PATH")


def _check_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--baseline", default="BENCH_baseline.json",
                        metavar="PATH")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative regression (default 0.25)")


def _critical_path_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", metavar="TRACE",
                        help="JSONL trace file from a causal run "
                             "(`repro trace --causal --out ...`)")


def _overhead_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--repeat", type=int, default=3,
                        help="interleaved samples per side; best is "
                             "kept (default 3)")
    parser.add_argument("--budget", type=float, default=1.05,
                        help="allowed causal-on/off wall-time ratio "
                             "(default 1.05)")


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

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


def figure_json(figure: str, rows: list[dict]) -> str:
    """Stable JSON for a figure grid: independent of --jobs and host."""
    return canonical_json({"format": "repro-bench-grid", "version": 1,
                           "figure": figure, "rows": rows})


def _point(args: argparse.Namespace) -> Outcome:
    row = point_row(run_point(_spec(args, args.protocol)))
    return format_table([row], title="experiment point"), None, 0


def _compare(args: argparse.Namespace) -> Outcome:
    rows = []
    for protocol in PROTOCOLS:
        print(f"running {protocol} ...", file=sys.stderr)
        rows.append(point_row(run_point(_spec(args, protocol))))
    return format_table(rows, title="protocol comparison"), None, 0


def _figure(args: argparse.Namespace) -> Outcome:
    rows = grid_rows(args.name, jobs=args.jobs)
    text = format_table(rows, title=args.name)
    if args.name == "fig-backends" and args.format == "text":
        from repro.bench.experiments import fig_backends_recovery_rows
        text += "\n\n" + format_table(fig_backends_recovery_rows(),
                                      title="fig-backends: failover recovery")
    return text, figure_json(args.name, rows), 0


def _assignment(args: argparse.Namespace) -> Outcome:
    analysis = analyze_assignment(zones=args.zones,
                                  zone_size=args.zone_size,
                                  byzantine=args.byzantine)
    return format_table([{
        "nodes": analysis.population,
        "byzantine": analysis.byzantine,
        "zones": analysis.zones,
        "zone size": analysis.zone_size,
        "P[zone unsafe]": f"{analysis.per_zone_failure:.3g}",
        "P[deployment unsafe]": f"{analysis.deployment_failure:.3g}",
        "safety bits": f"{analysis.safety_bits():.1f}",
        "deterministic safe": analysis.deterministic_safe,
    }], title="random node-to-zone assignment (Proposition 5.3)"), None, 0


def _trace(args: argparse.Namespace) -> Outcome:
    from dataclasses import replace

    from repro.obs.export import write_chrome_trace, write_trace_jsonl
    spec = replace(_spec(args, args.protocol), instrument=True,
                   record_trace=True, causal=args.causal,
                   sample_interval_ms=args.sample_interval_ms)
    result = run_point(spec)
    obs = result.obs
    parts = [format_table([point_row(result)], title="instrumented point")]
    phase_rows = [{"phase": phase, **stats}
                  for phase, stats in obs.phase_stats().items()]
    if phase_rows:
        parts.append(format_table(phase_rows,
                                  title="protocol phase spans (ms)"))
    if args.causal:
        from repro.obs.causal import format_report, report_from_obs
        parts.append(format_report(report_from_obs(obs)))
    if args.out:
        path = write_trace_jsonl(obs, args.out)
        print(f"\ntrace: {path} ({len(obs.events)} events, "
              f"{len(obs.spans)} spans)", file=sys.stderr)
    if args.chrome:
        path = write_chrome_trace(obs, args.chrome)
        print(f"chrome trace: {path} (open at https://ui.perfetto.dev)",
              file=sys.stderr)
    return "\n\n".join(parts), None, 0


def _audit(args: argparse.Namespace) -> Outcome:
    from repro.obs.monitor import MonitorConfig
    from repro.obs.report import audit_trace, format_report
    monitor = audit_trace(
        args.trace,
        config=MonitorConfig(stall_timeout_ms=args.stall_timeout_ms))
    return (format_report(monitor.report()), monitor.report_json(),
            0 if monitor.clean else 3)


def _lint(args: argparse.Namespace) -> Outcome:
    from repro.analysis.lint import run_lint
    result = run_lint(args.paths)
    return result.to_text(), result.to_json(), result.exit_code


def _taint(args: argparse.Namespace) -> Outcome:
    from repro.analysis.taint import handler_graph_dot, run_taint
    result = run_taint(args.paths)
    if args.dot:
        Path(args.dot).write_text(handler_graph_dot(args.paths))
        print(f"handler-flow graph: {args.dot}", file=sys.stderr)
    # Unjustified suppressions gate the tree just like findings do:
    # every ``allow[taint-flow]`` must explain *why* the flow is safe.
    return (result.to_text(), result.to_json(),
            1 if (result.findings or result.unjustified) else 0)


def _chaos(args: argparse.Namespace) -> Outcome:
    from repro.chaos import format_report, report_json, run_campaign
    result = run_campaign(args.campaign, seed=args.seed,
                          num_zones=args.zones, f=args.f, jobs=args.jobs,
                          backend=args.backend, flight_dir=args.flight_dir)
    for scenario in result.results:
        if scenario.flight_dump is not None:
            print(f"flight recorder dump: {scenario.flight_dump}",
                  file=sys.stderr)
    # Exit 4 on verdict divergence: a scenario's observed outcome
    # contradicted its declared expectation (CI fails on this).
    return format_report(result), report_json(result), \
        0 if result.passed else 4


def _bench_baseline(args: argparse.Namespace) -> Outcome:
    from repro.bench.baseline import write_baseline
    return f"baseline written: {write_baseline(args.out)}", None, 0


def _bench_check(args: argparse.Namespace) -> Outcome:
    from repro.bench.baseline import check_baseline
    problems = check_baseline(args.baseline, tolerance=args.tolerance)
    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    if problems:
        return None, None, 1
    return "bench-check: all points within tolerance", None, 0


def _critical_path(args: argparse.Namespace) -> Outcome:
    from repro.obs.causal import (format_report, report_clean,
                                  report_from_jsonl, report_json)
    report = report_from_jsonl(args.trace)
    # Exit 5 when any traced span could not be joined to a trace —
    # an incomplete DAG means the causal instrumentation regressed.
    return format_report(report), report_json(report), \
        0 if report_clean(report) else 5


def _obs_overhead(args: argparse.Namespace) -> Outcome:
    import json

    from repro.bench.perf import (check_overhead, format_overhead,
                                  overhead_report)
    document = overhead_report(repeat=args.repeat)
    problems = check_overhead(budget=args.budget, current=document)
    for problem in problems:
        print(f"OVERHEAD REGRESSION: {problem}", file=sys.stderr)
    return (format_overhead(document),
            json.dumps(document, indent=2, sort_keys=True),
            1 if problems else 0)


# ----------------------------------------------------------------------
# The table and its emitter
# ----------------------------------------------------------------------

def _file_exists(option: str, message: str):
    """Refuse a missing input file, named as typed (``{arg}``) or
    normalised (``{path}``)."""
    def check(args: argparse.Namespace) -> str | None:
        arg = getattr(args, option)
        return None if Path(arg).is_file() else (
            message.format(arg=arg, path=Path(arg)))
    return check


def _known(option: str, what: str, names: Callable[[], Sequence[str]]):
    """Refuse an unknown name with a one-line hint, not usage spam."""
    def check(args: argparse.Namespace) -> str | None:
        name, valid = getattr(args, option), names()
        return None if name in valid else (
            f"unknown {what} {name!r}; valid names are: {', '.join(valid)}")
    return check


_TRACE_MISSING = _file_exists("trace", "trace file not found: {path}")

#: Subcommand name -> row, in ``--help`` order.
COMMANDS: dict[str, Command] = {
    "point": Command("run one experiment point", _point, _point_args),
    "compare": Command("run all four protocols on one workload", _compare,
                       lambda parser: _point_args(parser, protocol=False)),
    "figure": Command(
        "regenerate one paper figure's experiment grid, optionally in "
        "parallel, as a table or stable JSON", _figure, _figure_args,
        formats=True, out="out", notice="figure rows",
        check=_known("name", "figure", lambda: FIGURE_SPECS)),
    "analyze-assignment": Command(
        "probabilistic safety of random node-to-zone assignment",
        _assignment, _assignment_args),
    "trace": Command(
        "run an instrumented point and export its structured trace",
        _trace, _trace_args),
    "audit": Command(
        "replay an exported JSONL trace through the protocol conformance "
        "monitor and print a forensic report", _audit, _audit_args,
        out="report", notice="forensic report", check=_TRACE_MISSING),
    "lint": Command(
        "run the determinism & protocol-safety static-analysis suite over "
        "the codebase", _lint, _paths_arg, formats=True),
    "taint": Command(
        "run the Byzantine taint analysis over the wire-message trust "
        "boundary and print the verify-before-trust report", _taint,
        _taint_args, formats=True),
    "chaos": Command(
        "run a deterministic adversarial campaign and print the "
        "resilience report", _chaos, _chaos_args, formats=True, out="out",
        notice="resilience report",
        check=_known("campaign", "campaign", campaign_names)),
    "bench-baseline": Command(
        "run the fixed-seed smoke subset and write the performance "
        "baseline (BENCH_baseline.json)", _bench_baseline, _baseline_args),
    "bench-check": Command(
        "re-run the smoke subset and fail on regression vs the stored "
        "baseline", _bench_check, _check_args,
        check=_file_exists("baseline", "baseline not found: {arg} "
                           "(run `repro bench-baseline` first)")),
    "critical-path": Command(
        "reconstruct per-transaction span DAGs from a causal trace and "
        "print the critical-path attribution report", _critical_path,
        _critical_path_args, formats=True, out="out",
        notice="critical-path report", check=_TRACE_MISSING),
    "obs-overhead": Command(
        "measure the wall-time overhead of causal tracing on the "
        "run_point bench shape and gate it against a budget",
        _obs_overhead, _overhead_args, formats=True, out="out",
        notice="overhead document"),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ziziphus (ICDE 2023) reproduction harness")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        child = sub.add_parser(name, help=command.help)
        command.args(child)
        if command.formats:
            child.add_argument("--format", choices=("text", "json"),
                               default="text",
                               help="report format (default: text)")
        if command.out:
            child.add_argument(f"--{command.out}", default=None,
                               metavar="PATH",
                               help=f"also write the JSON {command.notice} "
                                    "here")
    return parser


#: Options naming a file a command writes (``--flight-dir`` names the
#: directory its dumps go into).
_OUTPUT_FILES = ("out", "chrome", "report", "dot")


def _missing_output_dir(args: argparse.Namespace):
    """The first directory the command would write into that does not
    exist (None if all do), so a bad path fails before a long run."""
    dirs = [Path(path).parent for name in _OUTPUT_FILES
            if (path := getattr(args, name, None))]
    if getattr(args, "flight_dir", None):
        dirs.append(Path(args.flight_dir))
    return next((d for d in dirs if not d.is_dir()), None)


def _refuse(line: str) -> int:
    print(line, file=sys.stderr)
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    missing = _missing_output_dir(args)
    if missing is not None:
        return _refuse(f"repro: output directory does not exist: {missing}")
    refused = command.check(args)
    if refused is not None:
        return _refuse(f"repro {args.command}: {refused}")
    try:
        text, json_text, code = command.run(args)
    except ConfigurationError as exc:
        # A system that cannot be stood up as asked (zones not divisible
        # by clusters, a backend on a fixed-engine baseline, ...).
        return _refuse(f"repro: {exc}")
    except LintError as exc:
        return _refuse(f"repro {args.command}: {exc}")
    shown = json_text if getattr(args, "format", "text") == "json" else text
    if shown is not None:
        print(shown)
    out = getattr(args, command.out) if command.out else None
    if out:
        Path(out).write_text(json_text + "\n")
        print(f"\n{command.notice}: {out}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
