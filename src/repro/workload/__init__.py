"""Workload generation and closed-loop driving."""

from repro.workload.driver import ClosedLoopDriver
from repro.workload.generator import WorkloadGenerator, WorkloadMix

__all__ = [
    "ClosedLoopDriver",
    "WorkloadGenerator",
    "WorkloadMix",
]
