"""The repo's benchmark: four workloads, two clocks, one command.

Full run (what a person types; writes one results JSON)::

    python benchmarks/e2e/run.py [--seed 7] [--repeats 3] [--workload NAME]
                                 [--no-trace] [--quick] [--out FILE]

One measured run of one workload (what BENCHMARK.json's driver calls; the
last line of output is one JSON object)::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S
                                 --trace 0|1

Both go through the same path: every cycle of a workload runs
``cycle.py`` in a fresh process, and ``summarize`` turns the cycles of a
workload into its metrics. README.md explains every name printed here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOAD_NAMES = ("mobile-mix", "migrate-heavy", "read-heavy", "failover")
#: Measured window of every workload under ``--quick`` (smoke only).
QUICK_MEASURE_MS = 150.0
#: A run never rests on fewer cycles than this, whatever ``--seconds``.
MIN_CYCLES = 3
#: Full mode adds cycles (up to this many) until ``wall_s`` comes out
#: within ``STEADY`` of itself on two disjoint halves of the cycles.
MAX_CYCLES = 7
STEADY = 0.03
FULL_MODE_REPEATS = 3
#: What ``cycle.calibrate()`` takes on the 2.1 GHz Xeon that defined the
#: benchmark, when quiet. Only a scale: it makes calibrated host time
#: read in that box's seconds.
CALIBRATION_REFERENCE_S = 0.0005


def child(script: str, *args: str) -> dict:
    """Run one of this directory's scripts in a fresh interpreter with
    the repo's sources importable and a fixed hash seed; return the JSON
    object on the last line of its output."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(HERE / script), *args],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{script} {' '.join(args)} failed "
                         f"(exit {done.returncode})")
    return json.loads(done.stdout.splitlines()[-1])


def run_cycle(name: str, seed: int, quick: bool, profile: bool) -> dict:
    args = ["--workload", name, "--seed", str(seed)]
    if quick:
        args += ["--measure-ms", str(QUICK_MEASURE_MS)]
    if profile:
        args.append("--profile")
    return child("cycle.py", *args)


def calibrated(seconds: float, calibration_s: float) -> float:
    """Host seconds as they would read on a host where ``calibrate()``
    takes ``CALIBRATION_REFERENCE_S``."""
    return CALIBRATION_REFERENCE_S * seconds / calibration_s


def slice_floor(cycles: list[dict]) -> float:
    """``wall_s``: the sum over slices of the fastest calibrated time any
    cycle took for that slice. Every cycle of a seed does the same work
    in the same slice, and a shared host only ever adds time."""
    columns = zip(*(cycle["slices"] for cycle in cycles))
    return sum(min(calibrated(*slice) for slice in column)
               for column in columns)


def halves_gap(cycles: list[dict]) -> float | None:
    """How far apart ``wall_s`` comes out on two disjoint halves of the
    cycles, as a share of the smaller: what is still host noise in it.
    None when there is one cycle and so no telling."""
    if len(cycles) < 2:
        return None
    halves = slice_floor(cycles[0::2]), slice_floor(cycles[1::2])
    return max(halves) / min(halves) - 1.0


def raw_total(cycle: dict) -> float:
    """Host seconds of a cycle's run as the clock read them."""
    return sum(seconds for seconds, _calibration in cycle["slices"])


def steady(cycles: list[dict]) -> bool:
    gap = halves_gap(cycles)
    return gap is not None and gap <= STEADY


def summarize(cycles: list[dict]) -> dict:
    """Metrics of one workload from its cycles (all of one seed)."""
    sim = cycles[0]["sim"]
    problems = [p for cycle in cycles for p in cycle["problems"]]
    if any(cycle["sim"] != sim for cycle in cycles):
        problems.append("simulated metrics or counts differ between cycles")
    totals = [raw_total(cycle) for cycle in cycles]
    wall_s = slice_floor(cycles)
    end_to_end = {
        "setup_s": statistics.median(calibrated(*c["setup"])
                                     for c in cycles),
        "wall_s": wall_s,
        "commits_per_wall_s": sim["commits"] / wall_s,
        "peak_rss_mb": min(c["peak_rss_mb"] for c in cycles),
    }
    end_to_end.update((name, sim[name]) for name in metrics.END_TO_END
                      if name in sim)
    return {
        "end_to_end": end_to_end,
        "info": {
            "cycles": len(cycles),
            "wall_s.halves_gap": halves_gap(cycles),
            "wall_raw_s.min": min(totals),
            "wall_raw_s.median": statistics.median(totals),
            "wall_raw_s.max": max(totals),
            "latency_samples": sim["window_commits"],
        },
        "counts": {name: value for name, value in sim.items()
                   if name not in metrics.END_TO_END},
        "problems": sorted(set(problems)),
    }


def traced(name: str, seed: int, quick: bool,
           untraced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one workload from one profiled cycle, and
    what is wrong with it. ``untraced`` is a cycle of the same run
    without the profiler, to compare against."""
    cycle = run_cycle(name, seed, quick, profile=True)
    problems = cycle["problems"]
    if cycle["sim"] != untraced["sim"]:
        problems.append("profiling changed the simulated run")
    layers = cycle["layers"]
    layers["trace.overhead_x"] = raw_total(cycle) / raw_total(untraced)
    return layers, problems


def manifest(args, cycles_used: dict[str, int], load_start) -> dict:
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {
        "git_commit": git.stdout.strip() if git.returncode == 0 else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "seed": args.seed,
        "PYTHONHASHSEED": "0",
        "quick": args.quick,
        "cycles_used": cycles_used,
    }


def print_metrics(name: str, result: dict) -> None:
    print(f"== {name}")
    for metric, value in result["end_to_end"].items():
        unit = metrics.END_TO_END[metric][0]
        print(f"  {metric:<28}{value:>16.6g} {unit}")
    for metric, value in result["info"].items():
        print(f"  {metric:<28}{value!s:>16.12}")
    for group in ("counts", "per_layer"):
        for metric, value in result.get(group, {}).items():
            print(f"  {metric:<52}{value:>16.6g} "
                  f"{metrics.unit_of(metric)}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def full_run(args) -> int:
    """Every workload (or one), cycles round-robin so that a noisy
    minute is spread over all of them; never two at once."""
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    load_start = os.getloadavg()
    cycles: dict[str, list[dict]] = {name: [] for name in names}
    repeats = 1 if args.quick else args.repeats
    for _ in range(repeats):
        for name in names:
            cycles[name].append(run_cycle(name, args.seed, args.quick, False))
    for name in names:
        while not args.quick and len(cycles[name]) < MAX_CYCLES \
                and not steady(cycles[name]):
            cycles[name].append(run_cycle(name, args.seed, False, False))
    results = {name: summarize(cycles[name]) for name in names}
    if not args.no_trace:
        for name in names:
            typical = sorted(cycles[name], key=raw_total)
            layers, problems = traced(name, args.seed, args.quick,
                                      typical[len(typical) // 2])
            results[name]["per_layer"] = layers
            results[name]["problems"] += problems
    document = {
        "format": "repro-e2e-bench", "version": 1,
        "manifest": manifest(args, {n: len(c) for n, c in cycles.items()},
                             load_start),
        "workloads": results,
    }
    if not args.no_trace:
        document["micro"] = child("micro.py", "--repeats", str(repeats))
    for name in names:
        print_metrics(name, results[name])
    for metric, value in document.get("micro", {}).items():
        print(f"  {metric:<52}{value:>16.6g} 1/s")
    out = Path(args.out)
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    failed = [n for n in names if results[n]["problems"]]
    return 1 if failed else 0


def one_run(args) -> int:
    """The BENCHMARK.json contract: measure one workload for about
    ``--seconds`` and print one JSON object as the last line."""
    started = time.perf_counter()
    cycles = [run_cycle(args.workload, args.seed, False, False)]
    sim = cycles[0]["sim"]
    if args.trace:
        values, problems = traced(args.workload, args.seed, False, cycles[0])
        values.update((name, sim[name]) for name in metrics.PER_LAYER_SIM)
    else:
        while len(cycles) < MIN_CYCLES \
                or time.perf_counter() - started < args.seconds:
            cycles.append(run_cycle(args.workload, args.seed, False, False))
        summary = summarize(cycles)
        problems = summary["problems"]
        values = {name: summary["end_to_end"][name]
                  for name in metrics.BOUNDED}
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sim["submitted"],
        "failed": sim["failed"],
        "metrics": {name: {"value": value,
                           "unit": metrics.unit_of(name)}
                    for name, value in values.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=FULL_MODE_REPEATS)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default="e2e_results.json")
    parser.add_argument("--seconds", type=float,
                        help="measure one workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        return full_run(args)
    if args.workload is None:
        parser.error("--seconds needs --workload")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
