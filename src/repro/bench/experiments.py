"""Figure experiment definitions (paper §VII).

One spec factory per figure returns its experiment grid (specs only, no
runs); ``run_point`` / ``parallel.run_grid`` run them. Figures 4 and 5
share one grid. Scales are laptop-sized (see EXPERIMENTS.md); the
sweeps' *structure* matches the paper:

- Fig 4/5: protocols × {3,5,7} zones × {10,30,50}% global × client sweep.
- Fig 6:   one backup failure per zone, peak-load point per protocol.
- Fig 7:   zone size f = 1..5 (4..16 nodes/zone), 3 zones.
- Fig 8:   zone clusters 1..N (3 zones each), six ``.xG(.yC)`` workloads.
"""

from __future__ import annotations

from repro.bench.runner import PointSpec
from repro.errors import ConfigurationError

__all__ = [
    "CLIENT_SWEEP",
    "GLOBAL_FRACTIONS",
    "ZONE_COUNTS",
    "fig4_fig5_specs",
    "fig6_specs",
    "fig7_specs",
    "fig8_specs",
    "fig_backends_specs",
    "fig_backends_recovery_rows",
    "fig_critical_path_specs",
    "fig_read_path_specs",
    "FIGURE_SPECS",
    "figure_specs",
]

#: Clients per zone (paper: 10..500; scaled to the DES).
CLIENT_SWEEP = (10, 50, 120)
#: Workloads: 10/30/50% global transactions.
GLOBAL_FRACTIONS = (0.1, 0.3, 0.5)
#: Zone counts of Figure 4 (a)/(b)/(c).
ZONE_COUNTS = (3, 5, 7)
#: Protocols compared in Figures 4-7.
FIG4_PROTOCOLS = ("ziziphus", "two-level", "steward", "flat-pbft")


def fig4_fig5_specs(zone_counts=ZONE_COUNTS,
                    global_fractions=GLOBAL_FRACTIONS,
                    client_sweep=CLIENT_SWEEP,
                    protocols=FIG4_PROTOCOLS) -> list[PointSpec]:
    """Experiment grid behind Figures 4 and 5 (specs only, no runs)."""
    return [PointSpec(protocol=protocol, num_zones=num_zones,
                      clients_per_zone=clients, global_fraction=fraction)
            for num_zones in zone_counts
            for fraction in global_fractions
            for protocol in protocols
            for clients in client_sweep]


def fig6_specs(zone_counts=ZONE_COUNTS,
               protocols=FIG4_PROTOCOLS,
               clients_per_zone: int = 120,
               global_fraction: float = 0.1) -> list[PointSpec]:
    """Experiment grid behind Figure 6 (specs only, no runs)."""
    return [PointSpec(protocol=protocol, num_zones=num_zones,
                      clients_per_zone=clients_per_zone,
                      global_fraction=global_fraction,
                      backup_failures_per_zone=1)
            for num_zones in zone_counts
            for protocol in protocols]


def fig7_specs(f_values=(1, 2, 3, 4, 5),
               protocols=("ziziphus", "two-level", "flat-pbft"),
               clients_per_zone: int = 50,
               global_fraction: float = 0.1) -> list[PointSpec]:
    """Experiment grid behind Figure 7 (specs only, no runs)."""
    return [PointSpec(protocol=protocol, num_zones=3, f=f,
                      clients_per_zone=clients_per_zone,
                      global_fraction=global_fraction)
            for f in f_values
            for protocol in protocols]


def fig8_specs(cluster_counts=(1, 2, 4, 6),
               workloads=((0.1, 0.1), (0.1, 0.5), (0.3, 0.1),
                          (0.3, 0.5), (0.5, 0.1), (0.5, 0.5)),
               clients_per_zone: int = 30) -> list[PointSpec]:
    """Experiment grid behind Figure 8 (specs only, no runs)."""
    return [PointSpec(
                protocol="ziziphus", num_zones=3 * clusters,
                num_clusters=clusters,
                clients_per_zone=clients_per_zone,
                global_fraction=global_fraction,
                cross_cluster_fraction=cross_fraction if clusters > 1 else 0.0)
            for clusters in cluster_counts
            for global_fraction, cross_fraction in workloads]


def fig_backends_specs(backends=("default", "rotating", "syncbft"),
                       global_fractions=(0.1, 0.5),
                       client_sweep=(10, 50),
                       num_zones: int = 3) -> list[PointSpec]:
    """Experiment grid of the backend-comparison figure (specs only).

    Sweeps the registered consensus backends over Ziziphus deployments;
    the companion failover-recovery table comes from the chaos layer
    (``run_campaign("failover", backend=...)``), not from this grid.
    """
    return [PointSpec(protocol="ziziphus", num_zones=num_zones,
                      clients_per_zone=clients, global_fraction=fraction,
                      backend=backend)
            for backend in backends
            for fraction in global_fractions
            for clients in client_sweep]


def fig_backends_recovery_rows(backends=("default", "rotating", "syncbft"),
                               seed: int = 1) -> list[dict]:
    """Second panel of the backend figure: post-failover recovery.

    Runs the failover campaign's ``initiator-crash`` scenario under each
    backend and reports the worst probed-zone recovery latency — the
    number the rotating-initiator backend exists to improve.
    """
    from repro.chaos import CAMPAIGNS, run_scenario
    scenario = next(s for s in CAMPAIGNS["failover"]
                    if s.name == "initiator-crash")
    rows = []
    for backend in backends:
        result = run_scenario(scenario, seed=seed, backend=backend)
        recovery = result.recovery_max_ms
        rows.append({"backend": backend, "scenario": scenario.name,
                     "verdict": result.verdict,
                     "recovery_ms": (round(recovery, 2)
                                     if recovery is not None else None)})
    return rows


def fig_critical_path_specs(backends=("default", "rotating"),
                            global_fractions=(0.1, 0.5),
                            clients: int = 20,
                            num_zones: int = 3) -> list[PointSpec]:
    """Experiment grid of the critical-path attribution figure.

    Causal-traced points whose ``attr.*`` columns split end-to-end
    latency into submit / consensus / reply hops per backend and
    workload mix (see :mod:`repro.obs.causal`). Sampling is off so the
    trace carries only protocol signal.
    """
    return [PointSpec(protocol="ziziphus", num_zones=num_zones,
                      clients_per_zone=clients, global_fraction=fraction,
                      backend=backend, causal=True, record_trace=True,
                      instrument=True, sample_interval_ms=0.0)
            for backend in backends
            for fraction in global_fractions]


def fig_read_path_specs(backends=("default", "rotating", "syncbft"),
                        read_fractions=(0.95, 0.5),
                        clients: int = 20,
                        zone_counts=(3, 5)) -> list[PointSpec]:
    """Experiment grid of the certified-read figure (repro.reads).

    Read-heavy (95/5) and mixed (50/50) workloads per backend and zone
    count; the ``read_*`` metric columns show the consensus-free fast
    path against the transactional baseline, and the conformance
    monitor's ``viol`` column certifies the runs stayed safe.
    """
    return [PointSpec(protocol="ziziphus", num_zones=num_zones,
                      clients_per_zone=clients,
                      read_fraction=read_fraction, backend=backend)
            for backend in backends
            for read_fraction in read_fractions
            for num_zones in zone_counts]


#: Figure name -> spec-grid factory, the parallel runner's entry table.
FIGURE_SPECS = {
    "fig4": fig4_fig5_specs,
    "fig5": fig4_fig5_specs,
    "fig6": fig6_specs,
    "fig7": fig7_specs,
    "fig8": fig8_specs,
    "fig-backends": fig_backends_specs,
    "fig-critical-path": fig_critical_path_specs,
    "fig-read-path": fig_read_path_specs,
}


def figure_specs(name: str) -> list[PointSpec]:
    """The experiment grid of one named paper figure."""
    try:
        factory = FIGURE_SPECS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure {name!r}; valid names are: "
            + ", ".join(FIGURE_SPECS)) from None
    return factory()
