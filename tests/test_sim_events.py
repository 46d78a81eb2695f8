"""Unit tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.events import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(9.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    fired = []
    for name in "abc":
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == ["a", "b", "c"]


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert sim.events_processed == 0


def test_run_until_advances_clock_without_executing_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "late")
    executed = sim.run(until=5.0)
    assert executed == 0
    assert sim.now == 5.0
    assert fired == []
    sim.run()
    assert fired == ["late"]


def test_run_until_with_no_events_advances_clock():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_events_scheduled_during_execution_run():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()


def test_pending_counts_live_events_only():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending == 5
    handles[0].cancel()
    handles[3].cancel()
    assert sim.pending == 3
    # Idempotent cancel must not double-count.
    handles[0].cancel()
    assert sim.pending == 3
    sim.run()
    assert sim.pending == 0
    assert sim.events_processed == 3


def test_cancel_after_fire_is_a_noop_for_accounting():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    sim.run(max_events=1)
    assert fired == ["x"]
    # The event already executed; cancelling its handle must neither
    # resurrect it nor skew the live-event count.
    handle.cancel()
    assert sim.pending == 1
    sim.run()
    assert fired == ["x", "y"]
    assert sim.pending == 0


def test_a_deadline_that_is_over_holds_nothing():
    """Cancelled or fired, a handle — and the heap entry that may outlive
    the cancellation by seconds — references neither callback nor
    arguments."""
    import weakref

    class Argument:
        pass

    sim = Simulator()
    cancelled_arg, fired_arg = Argument(), Argument()
    refs = [weakref.ref(cancelled_arg), weakref.ref(fired_arg)]
    cancelled = sim.schedule(50.0, lambda arg: None, cancelled_arg)
    fired = sim.schedule(1.0, lambda arg: None, fired_arg)
    del cancelled_arg, fired_arg
    cancelled.cancel()
    # The cancelled entry is still in the heap, 50 ms from its time.
    assert sim.heap_size == 2 and refs[0]() is None
    assert all(entry[2:4] == (None, None) for entry in sim._heap)
    assert sim.run(until=10.0) == 1
    assert refs[1]() is None
    for handle in (cancelled, fired):
        assert handle.fn is None and handle.args is None


def test_mostly_cancelled_heap_compacts_without_reordering():
    sim = Simulator()
    fired = []
    keep = [sim.schedule(1000.0 + i, fired.append, i) for i in range(10)]
    doomed = [sim.schedule(10.0 + i, fired.append, -1)
              for i in range(Simulator.COMPACT_MIN_HEAP * 2)]
    assert sim.heap_size == len(keep) + len(doomed)
    for handle in doomed:
        handle.cancel()
    # Compaction kicked in: the raw heap shrank well below the churn
    # (it stops once the heap is small enough for lazy pops to win,
    # so a few cancelled stragglers may legitimately remain).
    assert sim.heap_size < Simulator.COMPACT_MIN_HEAP
    assert sim.pending == len(keep)
    sim.run()
    assert fired == list(range(10))


def test_small_heaps_skip_compaction():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(8)]
    for handle in handles:
        handle.cancel()
    # Below COMPACT_MIN_HEAP the cancelled entries stay for lazy popping.
    assert sim.heap_size == 8
    assert sim.pending == 0
    assert sim.run() == 0


def test_compaction_during_run_keeps_order():
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(500.0 + i, fired.append, -1)
              for i in range(Simulator.COMPACT_MIN_HEAP * 2)]

    def cancel_all():
        for handle in doomed:
            handle.cancel()

    sim.schedule(1.0, cancel_all)
    sim.schedule(2.0, fired.append, "after")
    sim.schedule(600.0, fired.append, "last")
    sim.run()
    assert fired == ["after", "last"]
    assert sim.pending == 0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_property_execution_is_sorted_by_time(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


def test_run_until_in_the_past_never_rewinds_the_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(20.0, fired.append, "late")
    sim.run(until=15.0)
    assert sim.now == 15.0
    # A later event is still queued; an earlier horizon must not move
    # the clock back (an event scheduled "now" would then land before
    # events that already fired).
    assert sim.run(until=5.0) == 0
    assert sim.now == 15.0
    sim.schedule(0.0, fired.append, "now")
    sim.run()
    assert fired == ["early", "now", "late"]


class _ReferenceLoop:
    """The event loop as a sorted list: the order ``Simulator`` must keep."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.entries = []            # [time, seq, label, child_delay, state]
        self.fired = []
        self.processed = 0

    def push(self, time, label, child_delay=None):
        entry = [time, self.seq, label, child_delay, "live"]
        self.seq += 1
        self.entries.append(entry)
        self.entries.sort(key=lambda e: (e[0], e[1]))
        return entry

    def cancel(self, entry):
        if entry[4] != "live":
            return
        entry[4] = "cancelled"
        dead = sum(1 for e in self.entries if e[4] == "cancelled")
        if dead * 2 > len(self.entries) >= Simulator.COMPACT_MIN_HEAP:
            self.entries = [e for e in self.entries if e[4] == "live"]

    def run(self, until=None, max_events=None):
        executed = 0
        while self.entries:
            if max_events is not None and executed >= max_events:
                self.processed += executed
                return executed
            entry = self.entries[0]
            if entry[4] == "cancelled":
                self.entries.pop(0)
                continue
            if until is not None and entry[0] > until:
                break
            self.entries.pop(0)
            entry[4] = "fired"
            self.now = entry[0]
            self.fired.append(entry[2])
            if entry[3] is not None:
                self.push(self.now + entry[3], -entry[2])
            executed += 1
        self.processed += executed
        if until is not None and until > self.now:
            self.now = until
        return executed

    @property
    def pending(self):
        return sum(1 for e in self.entries if e[4] == "live")


@pytest.mark.parametrize("seed", range(6))
def test_event_order_matches_sorted_list_reference(seed):
    """Random schedule / at / post / cancel / run sequences fire in the
    reference's order; handle-free and handle-carrying events pushed for
    the same instant fire in push order."""
    import random

    rng = random.Random(seed)
    sim, ref = Simulator(), _ReferenceLoop()
    fired = []
    handles = []                      # (EventHandle, reference entry)
    compactions = 0

    def fire(label, child_delay):
        fired.append(label)
        if child_delay is not None:
            sim.post(sim.now + child_delay, fire, (-label, None))

    for label in range(1, 1500):
        # Now and then most timers die at once, as when a view change ends.
        op = 0.6 if label % 300 == 0 else rng.random()
        if op < 0.55:
            # Few distinct delays, so that equal times are the rule.
            # and some far enough out to pile up in the heap.
            delay = rng.choice((0.0, 0.5, 1.0, 1.0, 2.0, 7.5, 900.0, 900.0))
            child = rng.choice((None, None, 0.0, 1.0))
            entry = ref.push(ref.now + delay, label, child)
            how = rng.randrange(3)
            if how == 0:
                sim.post(sim.now + delay, fire, (label, child))
            elif how == 1:
                handles.append(
                    (sim.schedule(delay, fire, label, child), entry))
            else:
                handles.append(
                    (sim.at(sim.now + delay, fire, label, child), entry))
        elif op < 0.85 and handles:
            # Any handle: live, cancelled before, or fired already.
            burst = len(handles) * 3 // 4 if label % 300 == 0 else 1
            for handle, entry in rng.sample(handles, burst):
                before = sim.heap_size
                handle.cancel()
                ref.cancel(entry)
                compactions += sim.heap_size < before
                assert handle.cancelled == (entry[4] == "cancelled")
                assert handle.time == entry[0]
        elif op < 0.92:
            until = sim.now + rng.choice((-3.0, 0.0, 0.5, 1.0, 4.0))
            assert sim.run(until=until) == ref.run(until=until)
        elif op < 0.98:
            budget = rng.randrange(4)
            assert sim.run(max_events=budget) == ref.run(max_events=budget)
        else:
            assert sim.step() == (ref.run(max_events=1) == 1)
        assert fired == ref.fired
        assert (sim.now, sim.pending, sim.heap_size, sim.events_processed) \
            == (ref.now, ref.pending, len(ref.entries), ref.processed)
    sim.run()
    ref.run()
    assert fired == ref.fired and sim.pending == 0
    # The sequence held enough cancellations to compact the heap.
    assert len(handles) > Simulator.COMPACT_MIN_HEAP and compactions > 0
