"""The event queue at the heart of the simulator.

Events are scheduled at an absolute tick and fire in (tick, priority,
insertion-order) order, mirroring gem5's deterministic event queue.  An
:class:`Event` subclass overrides :meth:`Event.process`;
:class:`CallbackEvent` wraps a plain callable for one-off work.

:class:`EventQueue` is a hybrid scheduler: a calendar-queue-style ring
of near-term buckets absorbs the short, periodic delays that dominate
PCIe simulation (flit times, ACK timers, crossbar/DRAM latencies),
while a binary heap holds the far future (replay timeouts, dd's
startup overhead).  Dispatch order is byte-identical to a pure heap —
``(tick, priority, insertion-seq)`` with lazy squashing — which
:class:`ReferenceEventQueue` preserves as the executable specification
the property tests compare against.
"""

import heapq
from bisect import bisect_right
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
    fired or been descheduled — because squashing clears the queue
    entry's event slot, so a recycled event can never fire a stale
    payload even when rescheduled at the same tick.
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
        # The live ``[when, priority, seq, event]`` queue entry for this
        # event (it carries the fire tick, so no separate copy is kept);
        # squashing an entry is done by clearing its event slot so a
        # stale entry can never fire even if the event is immediately
        # rescheduled.
        self._entry: Optional[list] = None

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


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    The queue tracks the current simulated time (:attr:`curtick`).  Time
    only advances by servicing events; :meth:`run` drains the queue until
    it is empty, a tick limit is reached, or :meth:`stop` is called.

    Internally this is a three-tier hybrid (dispatch order is exactly
    that of a single heap — see :class:`ReferenceEventQueue`):

    * ``_active`` — the sorted batch currently being drained, with
      ``_active_pos`` marking the next entry to fire.  Late schedules
      that land below ``_wheel_tick`` are insorted here (clamped to
      ``_active_pos`` so they can't be placed behind already-dispatched
      entries).
    * ``_buckets`` — a ring of ``num_buckets`` buckets, each spanning
      ``2**bucket_bits`` ticks, covering the window
      ``[_wheel_tick, _wheel_tick + span)``.  Appending is O(1); a
      bucket is sorted only when its turn comes to become the active
      batch.  The defaults (64 buckets × ~1.05 µs ≈ 67 µs of window)
      keep every periodic link-layer delay — flit times through the
      ~0.8 µs replay timeout — within one or two buckets of *now*, so
      bursts coalesce into sizeable batches.
    * ``_heap`` — everything at or beyond the window.  Invariant: the
      heap minimum is always >= ``_wheel_tick``, maintained by
      migrating entries below the next bucket boundary whenever a
      bucket is activated.  When the wheel is empty the window jumps
      straight to the heap minimum's bucket instead of stepping.

    Squashed entries (lazy :meth:`deschedule`) are counted globally and
    compacted out of all three tiers once they outnumber live events,
    so replay/ACK-timer churn can no longer bloat the queue.  ``_live``
    maintains O(1) :meth:`__len__` / :meth:`empty`.
    """

    #: Compaction is skipped below this many squashed entries — tiny
    #: queues aren't worth rebuilding even when mostly dead.
    COMPACT_MIN_SQUASHED = 64

    def __init__(self, name: str = "eventq", bucket_bits: int = 20,
                 num_buckets: int = 64):
        self.name = name
        # Set by the owning Simulator; a bare EventQueue is untraced.
        self.tracer = None
        # Set by the owning Simulator; a bare EventQueue is unchecked.
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
        if num_buckets & (num_buckets - 1):
            raise ValueError(f"num_buckets must be a power of two, "
                             f"got {num_buckets}")
        self._shift = bucket_bits
        self._mask = num_buckets - 1
        self._span = num_buckets << bucket_bits
        #: Lower edge of the next bucket to activate; every wheel entry
        #: has ``_wheel_tick <= when < _wheel_tick + _span``.
        self._wheel_tick = 0
        self._buckets: List[list] = [[] for _ in range(num_buckets)]
        #: Bit i set ⇔ ``_buckets[i]`` is non-empty; lets the refill
        #: path jump over runs of empty buckets in O(1) instead of
        #: stepping them, which matters for sparse timelines.
        self._occupied = 0
        self._heap: List[Tuple[int, int, int, Event]] = []
        #: Sorted batch being drained; entries before _active_pos have
        #: fired or were squashed.
        self._active: List[list] = []
        self._active_pos = 0
        #: Live (scheduled, non-squashed) events across all tiers.
        self._live = 0
        #: Squashed entries still physically present across all tiers.
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
        entry = [when, event.priority, seq, event]
        event._entry = entry
        self._live += 1
        offset = when - self._wheel_tick
        if offset < 0:
            # The window has already moved past this tick: the entry
            # belongs in the batch being drained.  Clamping the insort
            # position to _active_pos keeps it ahead of (dead) already-
            # consumed entries while preserving sorted order among the
            # live remainder — every live entry at >= _active_pos sorts
            # after it whenever bisect lands below the clamp.
            active = self._active
            ip = bisect_right(active, entry)
            pos = self._active_pos
            active.insert(ip if ip > pos else pos, entry)
        elif offset < self._span:
            idx = (when >> self._shift) & self._mask
            self._buckets[idx].append(entry)
            self._occupied |= 1 << idx
        else:
            heapq.heappush(self._heap, entry)
        return event

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

    def deschedule(self, event: Event) -> None:
        """Remove a scheduled event (lazily: its entry is squashed)."""
        entry = event._entry
        if entry is None:
            raise RuntimeError(f"{event!r} is not scheduled")
        entry[3] = None
        event._entry = None
        self._live -= 1
        self._squashed += 1
        # Replay/ACK-timer churn deschedules far more than it fires;
        # once dead entries outnumber live ones, rebuild every tier.
        if (self._squashed > self.COMPACT_MIN_SQUASHED
                and self._squashed > self._live):
            self._compact()

    def reschedule(self, event: Event, when: int) -> Event:
        """Move an event to a new tick, scheduling it if it was idle."""
        if event._entry is not None:
            self.deschedule(event)
        return self.schedule(event, when)

    # -- checkpointing -----------------------------------------------------
    def live_entries(self) -> List[list]:
        """Every live (non-squashed) entry across all three tiers.

        Entries are the queue's internal ``[when, priority, seq, event]``
        lists, returned in no particular order — callers that need the
        dispatch order sort by the ``(when, priority, seq)`` prefix.
        Used by :mod:`repro.sim.checkpoint` to describe pending events.
        """
        entries = [e for e in self._active[self._active_pos:]
                   if e[3] is not None]
        for bucket in self._buckets:
            if bucket:
                entries.extend(e for e in bucket if e[3] is not None)
        entries.extend(e for e in self._heap if e[3] is not None)
        return entries

    def state_dict(self) -> dict:
        """Scalar scheduler state for a checkpoint (no events).

        Pending events are captured separately via :meth:`live_entries`
        because they need callback reconstruction, not raw copying.
        """
        return {
            "curtick": self.curtick,
            "next_seq": self._next_seq,
            "events_processed": self.events_processed,
        }

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
        self._wheel_tick = (self.curtick >> self._shift) << self._shift
        self._buckets = [[] for _ in range(self._mask + 1)]
        self._occupied = 0
        self._heap = []
        self._active = []
        self._active_pos = 0
        self._live = 0
        self._squashed = 0
        for when, priority, seq, event in entries:
            if event._entry is not None:
                raise RuntimeError(
                    f"cannot restore {event!r}: it is already scheduled")
            entry = [when, priority, seq, event]
            event._entry = entry
            # No pending entry can predate the restored clock, so the
            # window placement only needs the bucket/heap split.
            if when - self._wheel_tick < self._span:
                idx = (when >> self._shift) & self._mask
                self._buckets[idx].append(entry)
                self._occupied |= 1 << idx
            else:
                heapq.heappush(self._heap, entry)
            self._live += 1

    # -- internals ---------------------------------------------------------
    def _compact(self) -> None:
        """Physically drop every squashed entry from all three tiers."""
        heap = [e for e in self._heap if e[3] is not None]
        heapq.heapify(heap)
        self._heap = heap
        occupied = 0
        buckets = self._buckets
        for i, bucket in enumerate(buckets):
            if bucket:
                buckets[i] = [e for e in bucket if e[3] is not None]
                if buckets[i]:
                    occupied |= 1 << i
        self._occupied = occupied
        # The consumed prefix of the active batch goes too; callers in
        # the drain loop re-read _active/_active_pos after any model
        # code runs, so swapping the list out from under them is safe.
        self._active = [e for e in self._active[self._active_pos:]
                        if e[3] is not None]
        self._active_pos = 0
        self._squashed = 0

    def _refill_active(self) -> bool:
        """Activate the next non-empty slice of time as the drain batch.

        Returns False when no live events remain anywhere.  Advances
        ``_wheel_tick`` bucket by bucket, migrating heap entries that
        have come inside each new boundary (preserving the heap-min >=
        ``_wheel_tick`` invariant), and jumping the window straight to
        the heap minimum whenever the wheel is empty.
        """
        shift = self._shift
        width = 1 << shift
        mask = self._mask
        ring = mask + 1
        full = (1 << ring) - 1
        while True:
            heap = self._heap
            while heap and heap[0][3] is None:
                heapq.heappop(heap)
                self._squashed -= 1
            occ = self._occupied
            if not occ:
                if not heap:
                    self._active = []
                    self._active_pos = 0
                    return False
                # Wheel empty: jump the window straight to the heap
                # minimum's bucket instead of stepping towards it.
                wtick = (heap[0][0] >> shift) << shift
            else:
                # Jump to the first non-empty bucket in time order.
                # Rotating the occupancy mask so the current window
                # start is bit 0 turns "next bucket in time" into
                # "lowest set bit" — O(1) instead of stepping empties.
                i = (self._wheel_tick >> shift) & mask
                rot = ((occ >> i) | (occ << (ring - i))) & full
                wtick = self._wheel_tick + (((rot & -rot).bit_length() - 1)
                                            << shift)
                if heap:
                    # ...unless a heap entry has come inside the window
                    # before that bucket's slice of time.
                    htick = (heap[0][0] >> shift) << shift
                    if htick < wtick:
                        wtick = htick
            boundary = wtick + width
            idx = (wtick >> shift) & mask
            batch = self._buckets[idx]
            if batch:
                # Hand the bucket list itself over as the drain batch —
                # squashed entries are NOT filtered here; the drain
                # loops skip them (and settle the _squashed count) far
                # more cheaply than a copy per activation would.
                self._buckets[idx] = []
                self._occupied &= ~(1 << idx)
            else:
                # The bucket is empty, but heap migration below may
                # populate the batch.  It MUST NOT alias the ring slot:
                # a shared list would leave consumed entries in the
                # bucket and let a later schedule() for this slot's
                # next lap append a far-future entry straight into the
                # batch being drained — unsorted, firing ~one window
                # early.
                batch = []
            while heap and heap[0][0] < boundary:
                batch.append(heapq.heappop(heap))
            self._wheel_tick = boundary
            if batch:
                if len(batch) > 1:
                    batch.sort()
                self._active = batch
                self._active_pos = 0
                return True

    def _peek(self) -> Optional[list]:
        """The next live entry, left unconsumed; None when drained."""
        active = self._active
        pos = self._active_pos
        while True:
            n = len(active)
            while pos < n:
                entry = active[pos]
                if entry[3] is not None:
                    self._active_pos = pos
                    return entry
                pos += 1
                self._squashed -= 1
            self._active_pos = pos
            if not self._refill_active():
                return None
            active = self._active
            pos = 0

    # -- execution ---------------------------------------------------------
    def empty(self) -> bool:
        """True if no live (non-squashed) events remain."""
        return self._live == 0

    def next_tick(self) -> Optional[int]:
        """Tick of the next live event, or None if the queue is empty."""
        entry = self._peek()
        return entry[0] if entry is not None else None

    def service_one(self) -> bool:
        """Pop and process the next live event.  Returns False when empty."""
        entry = self._peek()
        if entry is None:
            return False
        self._active_pos += 1
        when = entry[0]
        event = entry[3]
        entry[3] = None
        self.curtick = when
        event._entry = None
        self._live -= 1
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

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Service events until the queue drains or a limit is hit.

        Args:
            until: stop once the next event would fire after this tick.
                The clock is advanced to ``until`` when the limit stops
                the run before the queue drains.
            max_events: stop after servicing this many events (guard
                against runaway simulations in tests).

        Returns:
            The current tick when the run stopped.
        """
        self._stop_requested = False
        # The drain below is service_one() inlined: this loop runs tens
        # of millions of iterations per benchmark, and the two extra
        # function calls per event (next_tick + service_one) cost more
        # than everything else in the queue machinery.  Keep the two
        # code paths in sync.
        #
        # Per-iteration costs are shaved by folding the two optional
        # limits into always-comparable locals (None → +inf / a
        # countdown that never reaches zero), hoisting the tracer and
        # checker references (the Simulator never replaces them — only
        # their `enabled` flags flip), and batching the
        # events_processed attribute store into a local counter flushed
        # on exit.
        #
        # The locals (active, pos, n) mirror (_active, _active_pos,
        # len) and MUST be re-read after event.process(): a deschedule
        # inside model code can trigger _compact(), which replaces the
        # active list, and a late schedule can insert into it.
        trc = self.tracer
        ck = self.checker
        refill = self._refill_active
        until_t = float("inf") if until is None else until
        remaining = -1 if max_events is None else max_events
        serviced = 0
        active = self._active
        pos = self._active_pos
        n = len(active)
        try:
            while not self._stop_requested:
                if pos < n:
                    entry = active[pos]
                    event = entry[3]
                    if event is None:
                        pos += 1
                        self._squashed -= 1
                        continue
                else:
                    self._active_pos = pos
                    if not refill():
                        active = self._active
                        pos = 0
                        n = 0
                        break
                    active = self._active
                    pos = 0
                    n = len(active)
                    continue
                when = entry[0]
                if when > until_t:
                    self.curtick = until
                    break
                if remaining == serviced:
                    break
                pos += 1
                self._active_pos = pos
                entry[3] = None
                self.curtick = when
                event._entry = None
                self._live -= 1
                serviced += 1
                if trc is not None and trc.enabled:
                    trc.emit(when, "eventq", self.name, "dispatch",
                             name=event.name, pri=event.priority)
                if ck is not None and ck.enabled:
                    ck.on_dispatch(when, event)
                event.process()
                active = self._active
                pos = self._active_pos
                n = len(active)
        finally:
            self._active_pos = pos
            self.events_processed += serviced
        return self.curtick

    def stop(self) -> None:
        """Ask a :meth:`run` in progress to stop after the current event."""
        self._stop_requested = True

    def __len__(self) -> int:
        return self._live

    def __repr__(self) -> str:
        return f"<EventQueue {self.name!r} tick={self.curtick} pending={len(self)}>"


class ReferenceEventQueue:
    """The original pure-binary-heap event queue, kept as a reference.

    This is the executable specification of dispatch order — ``(tick,
    priority, insertion-seq)`` with lazy squashing — that the hybrid
    :class:`EventQueue` must match entry for entry.  The property tests
    in ``tests/sim/test_eventq_hybrid.py`` drive both implementations
    with identical randomized schedule/deschedule/reschedule workloads
    and assert the dispatch sequences are identical.  Selectable as the
    ``reference`` engine through :mod:`repro.sim.backend`, so it keeps
    the full Simulator-facing surface: tracer/checker dispatch hooks
    and the checkpoint protocol (:meth:`live_entries` /
    :meth:`state_dict` / :meth:`load_state_dict`).
    """

    def __init__(self, name: str = "eventq"):
        self.name = name
        self.tracer = None
        self.checker = None
        self.curtick: int = 0
        self._heap: List[Tuple[int, int, int, Event]] = []
        # A plain int (not itertools.count) so checkpoints can record
        # the counter without consuming a value, exactly like the
        # hybrid queue.
        self._next_seq = 0
        self._stop_requested = False
        self.events_processed: int = 0

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

    # -- checkpointing -----------------------------------------------------
    def live_entries(self) -> List[list]:
        """Every live (non-squashed) entry; see :meth:`EventQueue.live_entries`."""
        return [e for e in self._heap if e[3] is not None]

    def state_dict(self) -> dict:
        """Scalar scheduler state for a checkpoint (no events)."""
        return {
            "curtick": self.curtick,
            "next_seq": self._next_seq,
            "events_processed": self.events_processed,
        }

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

    def reschedule(self, event: Event, when: int) -> Event:
        """Move an event to a new tick, scheduling it if it was idle."""
        if event.scheduled:
            self.deschedule(event)
        return self.schedule(event, when)

    def empty(self) -> bool:
        """True if no live (non-squashed) events remain."""
        self._drop_squashed_head()
        return not self._heap

    def _drop_squashed_head(self) -> None:
        while self._heap and self._heap[0][3] is None:
            heapq.heappop(self._heap)

    def next_tick(self) -> Optional[int]:
        """Tick of the next live event, or None if the queue is empty."""
        self._drop_squashed_head()
        return self._heap[0][0] if self._heap else None

    def service_one(self) -> bool:
        """Pop and process the next live event.  Returns False when empty."""
        self._drop_squashed_head()
        if not self._heap:
            return False
        when, __, __, event = heapq.heappop(self._heap)
        assert event is not None
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

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Service events until the queue drains or a limit is hit."""
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

    def stop(self) -> None:
        """Ask a :meth:`run` in progress to stop after the current event."""
        self._stop_requested = True

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if entry[3] is not None)

    def __repr__(self) -> str:
        return (f"<ReferenceEventQueue {self.name!r} "
                f"tick={self.curtick} pending={len(self)}>")
