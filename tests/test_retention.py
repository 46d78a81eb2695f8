"""The retention budget: what a run keeps per completed operation.

A node keeps whole what is in flight and lets finished work go
(DESIGN.md §10; tests/test_late_messages.py pins what a late message
still gets). This file pins the effect on one small all-migration run:
GC-tracked objects retained per operation completed between T and 2T,
how many deadlines the run cancelled and what the event heap's cancelled
entries still reference, and how many
endorsement instances there are per completed operation and how many of
them are still whole at the end. Run as a script it prints what CI
shows in the job summary.
"""

import gc

from repro.core.deployment import ZiziphusConfig, build_ziziphus
from repro.core.migration_protocol import MigrationConfig
from repro.core.sync_protocol import SyncConfig
from repro.pbft.replica import PBFTConfig
from repro.sim.events import EventHandle
from repro.workload.driver import ClosedLoopDriver
from repro.workload.generator import WorkloadMix

#: Simulated ms per half of the budget run (the count is taken at T and 2T).
HALF_MS = 300.0
#: GC-tracked objects a node set keeps per operation completed in the
#: second half, all of them migrations: ~137 on CPython 3.11 since
#: Algorithm 2 runs per group (~160 on 3.11-3.13, ~164 on 3.10 when it
#: ran per migration); 257 / 273 while every endorsement instance,
#: cancelled timer and ballot vote table lived as long as the run. A
#: ceiling, not an equality: what is kept per object is the
#: interpreter's business.
OBJECTS_PER_OPERATION_CEILING = 200
#: Endorsement instances still whole at the end: the ballots in flight.
WHOLE_INSTANCES_CEILING = 0.10
#: Endorsement instances a node set holds per completed operation: 7.9
#: since Algorithm 2 runs once per (ballot, source, destination) group,
#: 12.6 while it ran once per migration (741 and 1 173 in all).
INSTANCES_PER_OPERATION_CEILING = 10


def budget_run():
    """Three zones of four, ten clients each, every request a migration,
    on the benchmark's timers (no deadline fires inside the window, so
    every watch is live in the heap at the end, unless its instance
    completed and disarmed it). Returns the deployment, the objects
    retained per operation of the second half and the deadlines the run
    cancelled."""
    config = ZiziphusConfig(
        num_zones=3, f=1, seed=7, use_threshold_signatures=True,
        pbft=PBFTConfig(batch_size=16, batch_timeout_ms=1.0,
                        request_timeout_ms=8_000.0,
                        view_change_timeout_ms=8_000.0,
                        checkpoint_period=512, water_mark_window=4096),
        sync=SyncConfig(stable_leader=True, checkpoint_on_migration=False,
                        global_batch_size=24, global_batch_timeout_ms=10.0,
                        commit_timeout_ms=8_000.0, phase_timeout_ms=8_000.0,
                        watch_timeout_ms=8_000.0),
        migration=MigrationConfig(state_timeout_ms=8_000.0,
                                  watch_timeout_ms=8_000.0))
    deployment = build_ziziphus(config)
    driver = ClosedLoopDriver(deployment, WorkloadMix(global_fraction=1.0),
                              clients_per_zone=10, seed=7)
    driver.start()
    counts = []
    # Cancelled entries leave the heap as it compacts, so the probe that
    # they hold nothing counts the cancellations as they happen.
    cancellations = 0
    cancel = EventHandle.cancel

    def counted(handle):
        nonlocal cancellations
        cancellations += handle.fn is not None
        cancel(handle)

    EventHandle.cancel = counted
    try:
        for end_ms in (HALF_MS, 2 * HALF_MS):
            deployment.sim.run(until=end_ms)
            gc.collect()
            counts.append((len(gc.get_objects()), len(driver.records)))
    finally:
        EventHandle.cancel = cancel
    (objects_t, done_t), (objects_2t, done_2t) = counts
    assert done_2t - done_t >= 50
    return (deployment, (objects_2t - objects_t) / (done_2t - done_t),
            cancellations)


def cancelled_entries(sim):
    """``(cancelled, holding)``: heap entries whose deadline was
    cancelled, and those of them that still reference a callback or
    arguments, in the entry or on the handle (compaction has dropped the
    rest of what the run cancelled)."""
    cancelled = holding = 0
    for _time, _seq, fn, args, handle in sim._heap:
        if handle is not None and handle.cancelled:
            cancelled += 1
            holding += not (fn is None and args is None
                            and handle.fn is None and handle.args is None)
    return cancelled, holding


def whole_instances(deployment):
    """``(instances, whole)`` over every node's endorsement manager."""
    states = [state for node in deployment.nodes.values()
              for state in node.endorsement._instances.values()]
    return len(states), sum(state.payload is not None for state in states)


def operations(deployment):
    """Operations the run's clients completed."""
    return sum(len(client.completed) for client in deployment.clients.values())


def test_a_run_keeps_what_is_in_flight_not_what_it_has_done():
    deployment, per_operation, cancellations = budget_run()
    assert per_operation <= OBJECTS_PER_OPERATION_CEILING
    _, holding = cancelled_entries(deployment.sim)
    assert cancellations > 100 and holding == 0
    instances, whole = whole_instances(deployment)
    assert instances <= INSTANCES_PER_OPERATION_CEILING * operations(deployment)
    assert whole <= WHOLE_INSTANCES_CEILING * instances


if __name__ == "__main__":
    # What CI prints: the measured retention beside its ceilings.
    deployment, per_operation, cancellations = budget_run()
    cancelled, holding = cancelled_entries(deployment.sim)
    instances, whole = whole_instances(deployment)
    print(f"{per_operation:.1f} objects per operation "
          f"(ceiling {OBJECTS_PER_OPERATION_CEILING}), "
          f"{cancellations} deadlines cancelled, {holding} of the "
          f"{cancelled} cancelled heap entries left hold a "
          f"callback, {whole} of {instances} endorsement instances whole "
          f"(ceiling {WHOLE_INSTANCES_CEILING:.0%}), "
          f"{instances / operations(deployment):.1f} instances per "
          f"operation (ceiling {INSTANCES_PER_OPERATION_CEILING})")
