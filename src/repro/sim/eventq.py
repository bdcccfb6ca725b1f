"""The event queue at the heart of the simulator.

Events are scheduled at an absolute tick and fire in (tick, priority,
insertion-order) order, mirroring gem5's deterministic event queue.  An
:class:`Event` subclass overrides :meth:`Event.process`;
:class:`CallbackEvent` wraps a plain callable for one-off work.

:class:`EventQueue` is a lean binary heap of ``(when, priority, seq,
event)`` tuples with lazy squashing.  :class:`ReferenceEventQueue` is
the plain heap it was derived from, kept as the executable
specification of dispatch order that the property tests compare
against.
"""

import heapq
from typing import Callable, List, Optional, Tuple


class Event:
    """A schedulable unit of work.

    Subclasses override :meth:`process`.  An event instance may be
    scheduled at most once at a time; it can be rescheduled after it has
    fired or been descheduled.  Priorities follow gem5's convention:
    lower numeric priority fires first within a tick.

    Hot-path components keep a small pool of recycled Event subclasses
    with mutable payload slots instead of allocating a closure-wrapped
    :class:`CallbackEvent` per packet.  The recycling contract: an event
    may be reused as soon as ``scheduled`` is False — i.e. after it has
    fired or been descheduled — because a squashed queue entry is dead
    for good (the event no longer points at it), so a recycled event can
    never fire a stale payload even when rescheduled at the same tick.
    """

    # Common gem5-style priorities.  Most events use DEFAULT_PRI; the
    # others exist so that, e.g., statistics dumps observe a consistent
    # state within a tick.
    MINIMUM_PRI = -100
    DEFAULT_PRI = 0
    SIM_EXIT_PRI = 98
    MAXIMUM_PRI = 100

    # Events are created per TLP/DMA step in the hot loops; slots keep
    # them dict-free.  Subclasses that add state must declare their own
    # __slots__ to stay that way (plain subclasses still work — they
    # just regain a __dict__).
    __slots__ = ("priority", "name", "_entry")

    def __init__(self, priority: int = DEFAULT_PRI, name: str = ""):
        self.priority = priority
        self.name = name or type(self).__name__
        # The live ``(when, priority, seq, event)`` queue entry for this
        # event (it carries the fire tick, so no separate copy is kept);
        # None while the event is idle.
        self._entry: Optional[tuple] = None

    # -- scheduling state -------------------------------------------------
    @property
    def scheduled(self) -> bool:
        """True while the event sits in an event queue."""
        return self._entry is not None

    @property
    def when(self) -> Optional[int]:
        """Tick at which the event will fire, or None if unscheduled."""
        entry = self._entry
        return entry[0] if entry is not None else None

    # -- behaviour ---------------------------------------------------------
    def process(self) -> None:
        """The event's work; runs at its scheduled tick."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} @ {self.when}>"


class CallbackEvent(Event):
    """An event that invokes an arbitrary callable when it fires."""

    __slots__ = ("_callback",)

    def __init__(
        self,
        callback: Callable[[], None],
        priority: int = Event.DEFAULT_PRI,
        name: str = "",
    ):
        super().__init__(priority, name or getattr(callback, "__name__", "callback"))
        self._callback = callback

    def process(self) -> None:
        """Invoke the wrapped callable."""
        self._callback()


class _QueueBase:
    """What both queues share beyond how they store entries: the clock
    and counters, the convenience schedulers, the checkpoint scalars,
    and single-stepping.  A queue provides ``schedule``/``deschedule``,
    ``run`` and ``_drop_squashed_head`` over its ``_heap``."""

    def __init__(self, name: str = "eventq"):
        self.name = name
        # Set by the owning Simulator; a bare queue is untraced and
        # unchecked.
        self.tracer = None
        self.checker = None
        self.curtick: int = 0
        # Insertion sequence for (tick, priority, seq) ordering.  A plain
        # int rather than itertools.count() so a checkpoint can record it
        # without consuming a value (see :mod:`repro.sim.checkpoint`).
        self._next_seq = 0
        self._stop_requested = False
        # Number of events processed since construction; handy both for
        # statistics and for runaway-simulation guards in tests.
        self.events_processed: int = 0
        self._heap: list = []

    def schedule_after(self, event: Event, delay: int) -> Event:
        """Schedule ``event`` to fire ``delay`` ticks from now."""
        return self.schedule(event, self.curtick + delay)

    def schedule_callback(
        self, delay: int, callback: Callable[[], None], name: str = ""
    ) -> CallbackEvent:
        """Convenience: schedule a plain callable ``delay`` ticks from now."""
        event = CallbackEvent(callback, name=name)
        self.schedule_after(event, delay)
        return event

    def reschedule(self, event: Event, when: int) -> Event:
        """Move an event to a new tick, scheduling it if it was idle."""
        if event._entry is not None:
            self.deschedule(event)
        return self.schedule(event, when)

    def state_dict(self) -> dict:
        """Scalar scheduler state for a checkpoint (no events).

        Pending events are captured separately via ``live_entries``
        because they need callback reconstruction, not raw copying.
        """
        return {
            "curtick": self.curtick,
            "next_seq": self._next_seq,
            "events_processed": self.events_processed,
        }

    def next_tick(self) -> Optional[int]:
        """Tick of the next live event, or None if the queue is empty."""
        self._drop_squashed_head()
        return self._heap[0][0] if self._heap else None

    def service_one(self) -> bool:
        """Pop and process the next live event.  Returns False when empty.

        ``run`` inlines this for speed; keep the two in sync.
        """
        self._drop_squashed_head()
        if not self._heap:
            return False
        when, __, __, event = heapq.heappop(self._heap)
        self.curtick = when
        event._entry = None
        self.events_processed += 1
        trc = self.tracer
        if trc is not None and trc.enabled:
            trc.emit(when, "eventq", self.name, "dispatch",
                     name=event.name, pri=event.priority)
        ck = self.checker
        if ck is not None and ck.enabled:
            ck.on_dispatch(when, event)
        event.process()
        return True

    def stop(self) -> None:
        """Ask a ``run`` in progress to stop after the current event."""
        self._stop_requested = True

    def _check_until(self, until: Optional[int]) -> None:
        """A run may stop at the current tick, never before it: the
        clock must not move backwards under events already dispatched."""
        if until is not None and until < self.curtick:
            raise ValueError(
                f"cannot run until tick {until}: the clock is already at "
                f"tick {self.curtick}")

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} "
                f"tick={self.curtick} pending={len(self)}>")


class EventQueue(_QueueBase):
    """A deterministic priority queue of :class:`Event` objects.

    The queue tracks the current simulated time (:attr:`curtick`).  Time
    only advances by servicing events; :meth:`run` drains the queue until
    it is empty, a tick limit is reached, or :meth:`stop` is called.

    Internally it is one binary heap of ``(when, priority, seq, event)``
    tuples.  :meth:`deschedule` is lazy: it only clears the event's
    ``_entry``, and an entry whose event no longer points at it is
    squashed — skipped when it reaches the top, never fired.  Squashed
    entries are counted, which makes :meth:`__len__` / :meth:`empty`
    O(1), and compacted out once they outnumber live events, so
    replay/ACK-timer churn cannot bloat the heap.  The heap list object
    is never replaced (compaction rewrites it in place), so the drain
    loop can hold it across model code.
    """

    #: Compaction is skipped below this many squashed entries — tiny
    #: queues aren't worth rebuilding even when mostly dead.
    COMPACT_MIN_SQUASHED = 64

    def __init__(self, name: str = "eventq"):
        super().__init__(name)
        #: Squashed entries still physically in the heap.
        self._squashed = 0

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, when: int) -> Event:
        """Schedule ``event`` to fire at absolute tick ``when``."""
        if when < self.curtick:
            raise ValueError(
                f"cannot schedule {event!r} at {when} in the past "
                f"(curtick={self.curtick})"
            )
        if event._entry is not None:
            raise RuntimeError(f"{event!r} is already scheduled")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = (when, event.priority, seq, event)
        event._entry = entry
        heapq.heappush(self._heap, entry)
        return event

    def deschedule(self, event: Event) -> None:
        """Remove a scheduled event (lazily: its entry is squashed)."""
        if event._entry is None:
            raise RuntimeError(f"{event!r} is not scheduled")
        event._entry = None
        squashed = self._squashed = self._squashed + 1
        # Replay/ACK-timer churn deschedules far more than it fires;
        # once dead entries outnumber live ones, rebuild the heap.
        if (squashed > self.COMPACT_MIN_SQUASHED
                and squashed > len(self._heap) - squashed):
            heap = self._heap
            heap[:] = [e for e in heap if e[3]._entry is e]
            heapq.heapify(heap)
            self._squashed = 0

    # -- checkpointing -----------------------------------------------------
    def live_entries(self) -> List[tuple]:
        """Every live (non-squashed) entry.

        Entries are the queue's internal ``(when, priority, seq, event)``
        tuples, returned in no particular order — callers that need the
        dispatch order sort by the ``(when, priority, seq)`` prefix.
        Used by :mod:`repro.sim.checkpoint` to describe pending events.
        """
        return [e for e in self._heap if e[3]._entry is e]

    def load_state_dict(self, state: dict,
                        entries: "List[Tuple[int, int, int, Event]]") -> None:
        """Rebuild the queue from checkpointed state plus live entries.

        Args:
            state: a :meth:`state_dict` document (curtick, next_seq,
                events_processed).
            entries: ``(when, priority, seq, event)`` tuples with the
                event objects already reconstructed.  The exact
                ``(when, priority, seq)`` triples are preserved, so the
                dispatch order after restore is byte-identical to an
                uncheckpointed continuation — including ties that new
                post-restore schedules (whose seq continues from
                ``next_seq``) can never win retroactively.

        The queue's previous contents are discarded; callers are
        expected to restore into a freshly built (empty) queue.
        """
        self.curtick = state["curtick"]
        self._next_seq = state["next_seq"]
        self.events_processed = state["events_processed"]
        self._stop_requested = False
        heap = self._heap
        heap.clear()
        self._squashed = 0
        for when, priority, seq, event in entries:
            if event._entry is not None:
                raise RuntimeError(
                    f"cannot restore {event!r}: it is already scheduled")
            entry = (when, priority, seq, event)
            event._entry = entry
            heap.append(entry)
        heapq.heapify(heap)

    # -- execution ---------------------------------------------------------
    def _drop_squashed_head(self) -> None:
        heap = self._heap
        while heap and heap[0][3]._entry is not heap[0]:
            heapq.heappop(heap)
            self._squashed -= 1

    def empty(self) -> bool:
        """True if no live (non-squashed) events remain."""
        return len(self._heap) == self._squashed

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Service events until the queue drains or a limit is hit.

        Args:
            until: stop once the next event would fire after this tick.
                The clock is advanced to ``until`` when the limit stops
                the run before the queue drains.  Must not be before
                :attr:`curtick` (ValueError).
            max_events: stop after servicing this many events (guard
                against runaway simulations in tests).

        Returns:
            The current tick when the run stopped.
        """
        self._check_until(until)
        self._stop_requested = False
        # service_one() inlined: this loop runs millions of times per
        # benchmark.  Both limits fold into always-comparable locals
        # (None -> +inf / a countdown that never reaches zero), the
        # tracer and checker are hoisted (the Simulator never replaces
        # them, only their `enabled` flags flip), and events_processed
        # is flushed once on exit.
        heap = self._heap
        pop = heapq.heappop
        trc = self.tracer
        ck = self.checker
        until_t = float("inf") if until is None else until
        remaining = -1 if max_events is None else max_events
        serviced = 0
        try:
            while heap and not self._stop_requested:
                entry = heap[0]
                event = entry[3]
                if event._entry is not entry:
                    pop(heap)
                    self._squashed -= 1
                    continue
                when = entry[0]
                if when > until_t:
                    self.curtick = until
                    break
                if remaining == serviced:
                    break
                pop(heap)
                self.curtick = when
                event._entry = None
                serviced += 1
                if trc is not None and trc.enabled:
                    trc.emit(when, "eventq", self.name, "dispatch",
                             name=event.name, pri=event.priority)
                if ck is not None and ck.enabled:
                    ck.on_dispatch(when, event)
                event.process()
        finally:
            self.events_processed += serviced
        return self.curtick

    def __len__(self) -> int:
        return len(self._heap) - self._squashed


class ReferenceEventQueue(_QueueBase):
    """The original pure-binary-heap event queue, kept as a reference.

    This is the executable specification of dispatch order — ``(tick,
    priority, insertion-seq)`` with lazy squashing — that
    :class:`EventQueue` must match entry for entry.  Its entries are
    ``[when, priority, seq, event]`` lists squashed by clearing the
    event slot, and it keeps no counts.  The property tests in
    ``tests/sim/test_eventq_hybrid.py`` and
    ``tests/property/test_checkpoint_properties.py`` drive it beside
    :class:`EventQueue` with identical randomized
    schedule/deschedule/reschedule workloads and assert the dispatch
    sequences are identical.  It keeps the full Simulator-facing
    surface (tracer/checker hooks, the checkpoint protocol), so a test
    can stand it in for the real queue anywhere.
    """

    def schedule(self, event: Event, when: int) -> Event:
        """Schedule ``event`` to fire at absolute tick ``when``."""
        if when < self.curtick:
            raise ValueError(
                f"cannot schedule {event!r} at {when} in the past "
                f"(curtick={self.curtick})"
            )
        if event.scheduled:
            raise RuntimeError(f"{event!r} is already scheduled")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [when, event.priority, seq, event]
        event._entry = entry
        heapq.heappush(self._heap, entry)
        return event

    # -- checkpointing -----------------------------------------------------
    def live_entries(self) -> List[list]:
        """Every live (non-squashed) entry; see :meth:`EventQueue.live_entries`."""
        return [e for e in self._heap if e[3] is not None]

    def load_state_dict(self, state: dict,
                        entries: "List[Tuple[int, int, int, Event]]") -> None:
        """Rebuild the queue from checkpointed state plus live entries.

        Mirrors :meth:`EventQueue.load_state_dict`: the exact ``(when,
        priority, seq)`` triples are preserved so the restored dispatch
        order is byte-identical to an uncheckpointed continuation.
        """
        self.curtick = state["curtick"]
        self._next_seq = state["next_seq"]
        self.events_processed = state["events_processed"]
        self._stop_requested = False
        self._heap = []
        for when, priority, seq, event in entries:
            if event._entry is not None:
                raise RuntimeError(
                    f"cannot restore {event!r}: it is already scheduled")
            entry = [when, priority, seq, event]
            event._entry = entry
            self._heap.append(entry)
        heapq.heapify(self._heap)

    def deschedule(self, event: Event) -> None:
        """Remove a scheduled event (lazily: its entry is squashed)."""
        if not event.scheduled:
            raise RuntimeError(f"{event!r} is not scheduled")
        event._entry[3] = None
        event._entry = None

    def empty(self) -> bool:
        """True if no live (non-squashed) events remain."""
        self._drop_squashed_head()
        return not self._heap

    def _drop_squashed_head(self) -> None:
        while self._heap and self._heap[0][3] is None:
            heapq.heappop(self._heap)

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Service events until the queue drains or a limit is hit."""
        self._check_until(until)
        self._stop_requested = False
        heap = self._heap
        pop = heapq.heappop
        trc = self.tracer
        ck = self.checker
        until_t = float("inf") if until is None else until
        remaining = -1 if max_events is None else max_events
        serviced = 0
        try:
            while not self._stop_requested:
                while heap and heap[0][3] is None:
                    pop(heap)
                if not heap:
                    break
                when = heap[0][0]
                if when > until_t:
                    self.curtick = until
                    break
                if remaining == serviced:
                    break
                event = pop(heap)[3]
                self.curtick = when
                event._entry = None
                serviced += 1
                if trc is not None and trc.enabled:
                    trc.emit(when, "eventq", self.name, "dispatch",
                             name=event.name, pri=event.priority)
                if ck is not None and ck.enabled:
                    ck.on_dispatch(when, event)
                event.process()
        finally:
            self.events_processed += serviced
        return self.curtick

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if entry[3] is not None)
