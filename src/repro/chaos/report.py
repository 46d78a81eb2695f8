"""Resilience-report emitters (text table + canonical JSON).

The JSON form is the machine-readable artifact CI uploads: its encoding
is canonical (sorted keys, compact separators, pre-rounded floats), so
one ``(campaign, seed)`` pair always produces byte-identical bytes —
the determinism contract the chaos tests and the CI job both pin.
"""

from __future__ import annotations

from repro.bench.report import format_table
from repro.chaos.runner import CampaignResult, ScenarioResult
from repro.obs.export import canonical_json

__all__ = ["resilience_report", "report_json", "format_report"]


def _scenario_row(result: ScenarioResult) -> dict:
    recovery = result.recovery_max_ms
    return {
        "scenario": result.scenario.name,
        "budget": result.scenario.budget,
        "expect": result.scenario.expect,
        "observed": result.observed,
        "verdict": result.verdict.upper(),
        "viol": sum(result.violation_kinds.values()),
        "recovery_ms": round(recovery, 1) if recovery is not None else "-",
        "tput_ratio": round(result.twin.throughput_ratio, 2),
        "completed": result.metrics.completed,
    }


def resilience_report(result: CampaignResult) -> dict:
    """Structured resilience report for one campaign run.

    The ``backend`` key appears only for non-default consensus backends
    so default-backend reports stay byte-identical across releases.
    """
    report = {
        "format": "repro-resilience-report",
        "version": 1,
        "campaign": result.name,
        "seed": result.seed,
        "num_zones": result.num_zones,
        "f": result.f,
        "verdict": "PASS" if result.passed else "FAIL",
        "summary": {
            "scenarios": len(result.results),
            "passed": sum(r.passed for r in result.results),
            "failed": len(result.failures),
            "safe_expected": sum(r.scenario.expect == "safe"
                                 for r in result.results),
            "violation_expected": sum(r.scenario.expect == "violation"
                                      for r in result.results),
        },
        "scenarios": [r.as_dict() for r in result.results],
    }
    if result.backend != "default":
        report["backend"] = result.backend
    return report


def report_json(result: CampaignResult) -> str:
    """Canonical JSON encoding (byte-stable for a fixed seed)."""
    return canonical_json(resilience_report(result))


def format_report(result: CampaignResult) -> str:
    """Aligned text report: one row per scenario plus a verdict line."""
    suffix = "" if result.backend == "default" \
        else f", backend={result.backend}"
    title = (f"resilience campaign '{result.name}' "
             f"(seed {result.seed}, {result.num_zones} zones, "
             f"f={result.f}{suffix})")
    lines = [format_table([_scenario_row(r) for r in result.results],
                          title=title)]
    for failure in result.failures:
        for reason in failure.reasons:
            lines.append(f"FAIL {failure.scenario.name}: {reason}")
    summary = resilience_report(result)["summary"]
    lines.append(f"verdict: {'PASS' if result.passed else 'FAIL'} "
                 f"({summary['passed']}/{summary['scenarios']} scenarios)")
    return "\n".join(lines)
