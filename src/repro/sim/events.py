"""Discrete-event simulator core.

The whole reproduction runs on a deterministic discrete-event simulation
(DES): every node, client, and network link is driven by callbacks scheduled
on a single :class:`Simulator`. Simulated time is a float in *milliseconds*.

Determinism is guaranteed by (a) a strictly ordered event heap that breaks
time ties with a monotonically increasing sequence number, and (b) all
randomness flowing through seeded generators (see :mod:`repro.sim.rng`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError
from repro.obs.bus import Instrumentation

__all__ = ["EventHandle", "Simulator"]


class EventHandle:
    """A scheduled event that can be cancelled (e.g. a timer).

    Only :meth:`Simulator.at` / :meth:`Simulator.schedule` make one; an
    event nobody will cancel is pushed without (:meth:`Simulator.post`).

    The callback and its arguments live here, not in the heap entry, and
    leave as the event fires or is cancelled: a deadline that is over
    holds nothing, however long its entry (or a reference to the handle)
    stays around.
    """

    __slots__ = ("time", "cancelled", "fn", "args", "_sim")

    def __init__(self, time: float, sim: "Simulator",
                 fn: Callable[..., None], args: tuple) -> None:
        #: Simulated time at which the event fires.
        self.time = time
        #: Whether :meth:`cancel` stopped the event before it fired.
        self.cancelled = False
        #: ``fn(*args)`` is the event; ``None`` once fired or cancelled.
        self.fn = fn
        self.args = args
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once,
        and a no-op on an event that already fired (so the simulator's
        live-event accounting never counts an off-heap event).

        Timers cancel constantly under chaos churn, so cancelled entries
        can come to dominate the heap and tax every push/pop. Once more
        than half the heap is cancelled (and it is big enough to
        matter), the live entries are re-heapified in place. The (time,
        seq) total order is untouched, so the pop sequence — and with it
        every trace — is byte-identical.
        """
        if self.fn is None:
            return
        self.cancelled = True
        self.fn = self.args = None
        sim = self._sim
        sim._cancelled += 1
        heap = sim._heap
        if sim._cancelled * 2 > len(heap) >= sim.COMPACT_MIN_HEAP:
            # In place, so that a `run()` loop holding a reference to the
            # heap list observes the compaction.
            heap[:] = [entry for entry in heap
                       if entry[4] is None or not entry[4].cancelled]
            heapq.heapify(heap)
            sim._cancelled = 0


class Simulator:
    """A deterministic discrete-event scheduler.

    Example::

        sim = Simulator()
        sim.schedule(5.0, print, "fires at t=5ms")
        sim.run()
    """

    #: Heaps below this size skip compaction entirely: rebuilding a tiny
    #: heap costs more than lazily popping its cancelled entries.
    COMPACT_MIN_HEAP = 64

    def __init__(self) -> None:
        #: Current simulated time in milliseconds. Read it; only the
        #: event loop writes it, and never backwards.
        self.now = 0.0
        self._seq = 0
        # Heap of (time, seq, fn, args, None) for a posted event and
        # (time, seq, None, None, handle) for a cancellable one; seq
        # breaks ties so the tuple comparison never reaches the callable.
        self._heap: list[tuple] = []
        self._events_processed = 0
        self._cancelled = 0
        #: The instrumentation bus: a sink-less default that the network
        #: and every process share until Instrumentation.attach swaps it.
        self.obs = Instrumentation()
        #: Optional self-profiler (repro.obs.profiler.SimProfiler). When
        #: set, handler invocations route through ``profiler.call`` so
        #: wall time can be attributed per handler; the profiler lives
        #: outside the sim scope because this module must stay free of
        #: wall clocks.
        self.profiler = None

    @property
    def events_processed(self) -> int:
        """Total events executed so far (diagnostics)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of *live* events still scheduled (cancelled excluded)."""
        return len(self._heap) - self._cancelled

    @property
    def heap_size(self) -> int:
        """Raw heap length, cancelled entries included (diagnostics)."""
        return len(self._heap)

    def post(self, time: float, fn: Callable[..., None] | None,
             args: tuple | None = (),
             handle: EventHandle | None = None) -> None:
        """Push ``fn(*args)`` to run at absolute simulated ``time``.

        Every event enters the heap here. Called directly it allocates
        no handle: the message hop's own pushes (network -> ``deliver``
        -> ``_dispatch``) are never cancelled. :meth:`at` passes the
        ``handle`` it returns, which carries the callback instead.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, fn, args, handle))
        self._seq += 1

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.at(self.now + delay, fn, *args)

    def at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute simulated ``time``."""
        handle = EventHandle(time, self, fn, args)
        self.post(time, None, None, handle)
        return handle

    def step(self) -> bool:
        """Execute the next pending event. Returns False if none remain."""
        return self.run(max_events=1) == 1

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events in order.

        Args:
            until: stop once the next event would fire after this time
                (the clock is advanced to ``until``, never moved back).
            max_events: stop after executing this many events.

        Returns:
            The number of events executed by this call.

        The instrumentation counter ``sim.events`` is flushed once per
        :meth:`run` call (with the executed delta) rather than bumped
        per event — the per-event hot loop pays one integer add instead
        of a Counter update, and nothing reads the counter mid-run.
        """
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        profiler = self.profiler
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    return executed
                time, _, fn, args, handle = heap[0]
                if handle is not None and handle.cancelled:
                    pop(heap)
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    break
                pop(heap)
                if handle is not None:
                    fn, args = handle.fn, handle.args
                    handle.fn = handle.args = None
                self.now = time
                if profiler is None:
                    fn(*args)
                else:
                    profiler.call(fn, args, time)
                executed += 1
        finally:
            self._events_processed += executed
            if executed:
                self.obs.count("sim.events", executed)
        if until is not None and until > self.now:
            self.now = until
        return executed
