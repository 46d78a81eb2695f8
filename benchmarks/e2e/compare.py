"""Compare two results files of ``run.py``: ``compare.py A.json B.json``.

A is the base, B the candidate. One row per (workload, metric) with both
values and B/A. Host-clock metrics are held to their bounds; everything
the seeded simulation produces (``sim_*``, ``failed_share``, every count,
every layer's ``calls_per_commit``) must be identical when both files used
the same seed. Exits 1 on a regression or a mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import metrics

OK, UNRESOLVED, REGRESSION, MISMATCH = "ok", "unresolved", "REGRESSION", \
    "MISMATCH"
#: Set-up is a fifth of a second: it has regressed only when it is worse
#: by its bound and by this many seconds.
SETUP_SLACK_S = 0.05


def judge(metric: str, base, new, noise: float, same_seed: bool) -> str:
    """Verdict on one metric of one workload."""
    if metric not in metrics.HOST_CLOCK:
        if not same_seed:
            return UNRESOLVED
        return OK if base == new else MISMATCH
    _unit, better, bound = metrics.END_TO_END[metric]
    worse = new / base - 1.0 if better == "lower" else 1.0 - new / base
    if worse > bound and not (metric == "setup_s"
                              and new - base <= SETUP_SLACK_S):
        return REGRESSION
    # A change within the bound counts as unchanged only if the host
    # was steadier than the bound.
    return UNRESOLVED if noise > bound else OK


def compare(base: dict, new: dict) -> list[tuple]:
    """Rows ``(workload, metric, base, new, verdict)``."""
    same_seed = base["manifest"]["seed"] == new["manifest"]["seed"]
    rows = []
    for name, a in base["workloads"].items():
        b = new["workloads"].get(name)
        if b is None:
            rows.append((name, "*", None, None, MISMATCH))
            continue
        gaps = [w["info"]["wall_s.halves_gap"] for w in (a, b)]
        noise = float("inf") if None in gaps else max(gaps)
        # Calls of the repo's own functions repeat exactly. The total,
        # which counts builtins too, does not quite: one traced cycle in
        # eight of `failover` counted 0.03 % more.
        calls = {metric: value
                 for metric, value in a.get("per_layer", {}).items()
                 if metric.endswith("calls_per_commit")
                 and metric != "total.calls_per_commit"}
        theirs = {**b["end_to_end"], **b["counts"], **b.get("per_layer", {})}
        for metric, value in {**a["end_to_end"], **a["counts"],
                              **calls}.items():
            if metric in theirs:
                rows.append((name, metric, value, theirs[metric], judge(
                    metric, value, theirs[metric], noise, same_seed)))
    return rows


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in paths)
    rows = compare(base, new)
    print(f"{'workload':<14}{'metric':<44}{'A (base)':>14}{'B':>14}"
          f"{'B/A':>9}  verdict")
    for workload, metric, a, b, verdict in rows:
        ratio = f"{b / a:9.4f}" if a and b is not None else f"{'-':>9}"
        print(f"{workload:<14}{metric:<44}{a!s:>14.12}{b!s:>14.12}"
              f"{ratio}  {verdict}")
    bad = [r for r in rows if r[4] in (REGRESSION, MISMATCH)]
    print(f"{len(rows)} rows, {len(bad)} regressions or mismatches, "
          f"{sum(1 for r in rows if r[4] == UNRESOLVED)} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
