"""The event queue at the heart of the simulator.

Work is scheduled at an absolute tick and fires in (tick, priority,
insertion-order) order, mirroring gem5's deterministic event queue.
Every queue entry is a ``(when, priority, seq, fn, arg)`` tuple and
dispatch calls ``fn(arg)``.  Three kinds of work share that one form:

* **fire-and-forget calls** (:meth:`EventQueue.call_at`): ``fn`` is
  usually a bound method with its payload as ``arg``.  Nothing can
  cancel them;
* **no-argument callbacks** (:meth:`~_QueueBase.schedule_callback`):
  ``fn`` is :func:`call` and ``arg`` the callable;
* **event handles** (:meth:`EventQueue.schedule`): ``fn`` is
  :func:`fire` and ``arg`` an :class:`Event`.  Handles are for work
  that is descheduled or rescheduled — timers — and only they can be
  squashed.

:class:`EventQueue` is a lean binary heap with lazy squashing.
:class:`ReferenceEventQueue` is the plain heap it was derived from,
kept as the executable specification of dispatch order that the
property tests compare against.

:func:`proxy` and :func:`weak_callback` are the weak edges of a machine
(ARCHITECTURE "Who owns whom").
"""

import heapq
import weakref
from types import MethodType
from typing import Any, Callable, List, Optional, Tuple, Union

_heappush = heapq.heappush
_PROXIES = (weakref.ProxyType, weakref.CallableProxyType)


def proxy(obj: Any) -> Any:
    """A weak stand-in for ``obj`` (``obj`` itself if it is one): every
    upward and peer edge of a machine is one."""
    return obj if type(obj) in _PROXIES else weakref.proxy(obj)


def weak_callback(callback: Optional[Callable]) -> Tuple[Any, Any]:
    """``(fn, ref)``, called as ``fn(ref(), ...)``, for a bound method
    (its object held weakly); ``(callback, None)``, called as
    ``fn(...)``, for anything else."""
    if type(callback) is MethodType:
        return callback.__func__, weakref.ref(callback.__self__)
    return callback, None


def strong_callback(pair: Tuple[Any, Any]) -> Optional[Callable]:
    """The callable a :func:`weak_callback` pair stands for."""
    fn, ref = pair
    return fn if ref is None else MethodType(fn, ref())


class WeakCallback:
    """A callback attribute kept as a :func:`weak_callback` pair in
    ``_<name>``, which the hot paths read."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        return self if obj is None else strong_callback(getattr(obj, self.slot))

    def __set__(self, obj: Any, callback: Optional[Callable]) -> None:
        # setattr, not obj.__dict__: building the instance dict would
        # slow every attribute load on the object.
        setattr(obj, self.slot, weak_callback(callback))


class Event:
    """A schedulable, cancellable unit of work.

    Subclasses override :meth:`process`.  An event instance may be
    scheduled at most once at a time; it can be rescheduled after it has
    fired or been descheduled.  Priorities follow gem5's convention:
    lower numeric priority fires first within a tick.

    Work that is never cancelled does not need a handle: schedule the
    method itself with :meth:`EventQueue.call_at`.
    """

    # Common gem5-style priorities.  Most events use DEFAULT_PRI; the
    # others exist so that, e.g., statistics dumps observe a consistent
    # state within a tick.
    MINIMUM_PRI = -100
    DEFAULT_PRI = 0
    SIM_EXIT_PRI = 98
    MAXIMUM_PRI = 100

    # Subclasses that add state must declare their own __slots__ to
    # stay dict-free (plain subclasses still work — they just regain a
    # __dict__).
    __slots__ = ("priority", "name", "_entry")

    def __init__(self, priority: int = DEFAULT_PRI, name: str = ""):
        self.priority = priority
        self.name = name or type(self).__name__
        # The live queue entry for this event (it carries the fire
        # tick, so no separate copy is kept); None while idle.
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
    """An event handle that invokes an arbitrary callable when it fires
    (a bound method's object held weakly: owners hold their timers)."""

    __slots__ = ("_fn", "_ref")

    def __init__(
        self,
        callback: Callable[[], None],
        priority: int = Event.DEFAULT_PRI,
        name: str = "",
    ):
        super().__init__(priority, name or getattr(callback, "__name__", "callback"))
        self._fn, self._ref = weak_callback(callback)

    @property
    def callback(self) -> Callable[[], None]:
        """The wrapped callable."""
        return strong_callback((self._fn, self._ref))

    def process(self) -> None:
        """Invoke the wrapped callable."""
        ref = self._ref
        self._fn() if ref is None else self._fn(ref())


# -- entry forms --------------------------------------------------------------

def fire(event: Event) -> None:
    """The ``fn`` of a handle's entry: mark ``event`` idle, process it."""
    event._entry = None
    event.process()


def call(callback: Callable[[], None]) -> None:
    """The ``fn`` of a no-argument callback's entry."""
    callback()


def labelled(label: Union[str, Callable[[Any], str]]) -> Callable:
    """Give a fire-and-forget target its dispatch label: a fixed string,
    or a function of the target's owner (the bound ``self``).
    Unmarked targets are labelled ``<owner full_name>.<method>``."""
    def mark(method: Callable) -> Callable:
        method.dispatch_label = label
        return method
    return mark


def dispatch_label(fn: Callable, arg: Any) -> str:
    """The tracer's and checker's name for one entry.

    Computed only when the tracer is armed or a checker violation is
    built, so untraced dispatch never builds a string.
    """
    if fn is fire:
        return arg.name
    if fn is call:
        fn = arg
    label = getattr(fn, "dispatch_label", None)
    if label is not None:
        return label if label.__class__ is str else label(fn.__self__)
    name = getattr(fn, "__name__", "callback")
    owner_name = getattr(getattr(fn, "__self__", None), "full_name", None)
    return f"{owner_name}.{name}" if owner_name else name


class _QueueBase:
    """What both queues share beyond how they store entries: the clock
    and counters, the convenience schedulers, the checkpoint scalars,
    single-stepping and the armed-tracer hook.  A queue provides
    ``schedule``/``deschedule``/``call_at``, ``run`` and
    ``_drop_squashed_head`` over its ``_heap``."""

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

    def _in_the_past(self, when: int, what: Any) -> ValueError:
        return ValueError(f"cannot schedule {what!r} at {when} in the past "
                          f"(curtick={self.curtick})")

    def schedule_after(self, event: Event, delay: int) -> Event:
        """Schedule ``event`` to fire ``delay`` ticks from now."""
        return self.schedule(event, self.curtick + delay)

    def schedule_callback(self, delay: int, callback: Callable[[], None]) -> None:
        """Call ``callback()`` ``delay`` ticks from now (fire-and-forget)."""
        self.call_at(self.curtick + delay, call, callback)

    def reschedule(self, event: Event, when: int) -> Event:
        """Move an event to a new tick, scheduling it if it was idle."""
        if event._entry is not None:
            self.deschedule(event)
        return self.schedule(event, when)

    def state_dict(self) -> dict:
        """Scalar scheduler state for a checkpoint (no entries).

        Pending entries are captured separately via ``live_entries``
        because they need reconstruction by name, not raw copying.
        """
        return {
            "curtick": self.curtick,
            "next_seq": self._next_seq,
            "events_processed": self.events_processed,
        }

    def load_state_dict(self, state: dict, entries: List[tuple]) -> None:
        """Rebuild the queue from checkpointed state plus live entries.

        Args:
            state: a :meth:`state_dict` document (curtick, next_seq,
                events_processed).
            entries: ``(when, priority, seq, fn, arg)`` tuples with the
                callables already reconstructed; a handle's entry (``fn``
                is :func:`fire`) is re-armed onto its event.  The exact
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
        for entry in entries:
            entry = self._entry_type(entry)
            if entry[3] is fire:
                event = entry[4]
                if event._entry is not None:
                    raise RuntimeError(
                        f"cannot restore {event!r}: it is already scheduled")
                event._entry = entry
            heap.append(entry)
        heapq.heapify(heap)

    def advance(self, ticks: int, seqs: int, events: int) -> None:
        """Account ``ticks``, ``seqs`` insertions and ``events``
        dispatches without running them: the clock, both counters and
        every live entry's ``(when, seq)`` move together (squashed
        entries go).  See :mod:`repro.kernel.blockio`."""
        entries = self.live_entries()
        for entry in entries:
            if entry[3] is fire:
                entry[4]._entry = None
        self.load_state_dict(
            {"curtick": self.curtick + ticks,
             "next_seq": self._next_seq + seqs,
             "events_processed": self.events_processed + events},
            [(when + ticks, priority, seq + seqs, fn, arg)
             for when, priority, seq, fn, arg in entries])

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
        when, priority, __, fn, arg = heapq.heappop(self._heap)
        self.curtick = when
        self.events_processed += 1
        trc, ck = self.tracer, self.checker
        if trc is not None and trc.enabled:
            self._trace(when, priority, fn, arg)
        if ck is not None and ck.enabled:
            ck.on_dispatch(when, priority, fn, arg)
        fn(arg)
        return True

    def _trace(self, when: int, priority: int, fn: Callable, arg: Any) -> None:
        """Tell an armed tracer about one dispatch."""
        self.tracer.emit(when, "eventq", self.name, "dispatch",
                         name=dispatch_label(fn, arg), pri=priority)

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
    """A deterministic priority queue of scheduled work.

    The queue tracks the current simulated time (:attr:`curtick`).  Time
    only advances by servicing events; :meth:`run` drains the queue until
    it is empty, a tick limit is reached, or :meth:`stop` is called.

    Internally it is one binary heap of ``(when, priority, seq, fn,
    arg)`` tuples.  :meth:`deschedule` is lazy: it only clears the
    handle's ``_entry``, and a handle entry its event no longer points
    at is squashed — skipped when it reaches the top, never fired.
    Squashed entries are counted, which makes :meth:`__len__` /
    :meth:`empty` O(1), and compacted out once they outnumber live
    ones, so replay/ACK-timer churn cannot bloat the heap.  The heap
    list object is never replaced (compaction rewrites it in place), so
    the drain loop can hold it across model code.
    """

    #: Compaction is skipped below this many squashed entries — tiny
    #: queues aren't worth rebuilding even when mostly dead.
    COMPACT_MIN_SQUASHED = 64

    #: What :meth:`load_state_dict` builds each restored entry as.
    _entry_type = tuple

    def __init__(self, name: str = "eventq"):
        super().__init__(name)
        #: Squashed entries still physically in the heap.
        self._squashed = 0

    # -- scheduling --------------------------------------------------------
    def call_at(self, when: int, fn: Callable[[Any], None], arg: Any = None,
                priority: int = Event.DEFAULT_PRI) -> None:
        """Call ``fn(arg)`` at absolute tick ``when`` (fire-and-forget)."""
        if when < self.curtick:
            raise self._in_the_past(when, fn)
        seq = self._next_seq
        self._next_seq = seq + 1
        _heappush(self._heap, (when, priority, seq, fn, arg))

    def schedule(self, event: Event, when: int) -> Event:
        """Schedule the handle ``event`` to fire at absolute tick ``when``."""
        if when < self.curtick:
            raise self._in_the_past(when, event)
        if event._entry is not None:
            raise RuntimeError(f"{event!r} is already scheduled")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = (when, event.priority, seq, fire, event)
        event._entry = entry
        _heappush(self._heap, entry)
        return event

    def deschedule(self, event: Event) -> None:
        """Remove a scheduled handle (lazily: its entry is squashed)."""
        if event._entry is None:
            raise RuntimeError(f"{event!r} is not scheduled")
        event._entry = None
        squashed = self._squashed = self._squashed + 1
        # Replay/ACK-timer churn deschedules far more than it fires;
        # once dead entries outnumber live ones, rebuild the heap.
        if (squashed > self.COMPACT_MIN_SQUASHED
                and squashed > len(self._heap) - squashed):
            heap = self._heap
            heap[:] = [e for e in heap if e[3] is not fire or e[4]._entry is e]
            heapq.heapify(heap)
            self._squashed = 0

    # -- checkpointing -----------------------------------------------------
    def live_entries(self) -> List[tuple]:
        """Every live (non-squashed) ``(when, priority, seq, fn, arg)``
        entry, in no particular order — callers that need the dispatch
        order sort by the ``(when, priority, seq)`` prefix.  Used by
        :mod:`repro.sim.checkpoint` to describe pending work."""
        return [e for e in self._heap if e[3] is not fire or e[4]._entry is e]

    def load_state_dict(self, state: dict, entries: List[tuple]) -> None:
        """See :meth:`_QueueBase.load_state_dict`."""
        super().load_state_dict(state, entries)
        self._squashed = 0

    # -- execution ---------------------------------------------------------
    def _drop_squashed_head(self) -> None:
        heap = self._heap
        while heap and heap[0][3] is fire and heap[0][4]._entry is not heap[0]:
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
        handle = fire
        trc = self.tracer
        ck = self.checker
        until_t = float("inf") if until is None else until
        remaining = -1 if max_events is None else max_events
        serviced = 0
        try:
            while heap and not self._stop_requested:
                entry = heap[0]
                fn = entry[3]
                if fn is handle and entry[4]._entry is not entry:
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
                serviced += 1
                if trc is not None and trc.enabled:
                    self._trace(when, entry[1], fn, entry[4])
                if ck is not None and ck.enabled:
                    # InvariantChecker.on_dispatch inlined: ring the
                    # entry itself; call it only to report time moving
                    # backwards.
                    if when < ck._last_dispatch_tick:
                        ck.on_dispatch(when, entry[1], fn, entry[4])
                    else:
                        ck._ring.append(entry)
                        ck._last_dispatch_tick = when
                fn(entry[4])
        finally:
            self.events_processed += serviced
        return self.curtick

    def __len__(self) -> int:
        return len(self._heap) - self._squashed


class ReferenceEventQueue(_QueueBase):
    """The original pure-binary-heap event queue, kept as a reference.

    This is the executable specification of dispatch order — ``(tick,
    priority, insertion-seq)`` with lazy squashing of handles — that
    :class:`EventQueue` must match entry for entry.  Its entries are
    ``[when, priority, seq, fn, arg]`` lists, a handle's squashed by
    clearing its ``fn`` slot, and it keeps no counts.  The property
    tests in ``tests/sim/test_eventq_hybrid.py`` and
    ``tests/property/test_checkpoint_properties.py`` drive it beside
    :class:`EventQueue` with identical randomized workloads and assert
    the dispatch sequences are identical.  It keeps the full
    Simulator-facing surface (tracer/checker hooks, the checkpoint
    protocol), so a test can stand it in for the real queue anywhere.
    """

    #: Lists, so :meth:`deschedule` can squash an entry in place.
    _entry_type = list

    def call_at(self, when: int, fn: Callable[[Any], None], arg: Any = None,
                priority: int = Event.DEFAULT_PRI) -> None:
        """Call ``fn(arg)`` at absolute tick ``when`` (fire-and-forget)."""
        if when < self.curtick:
            raise self._in_the_past(when, fn)
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, [when, priority, seq, fn, arg])

    def schedule(self, event: Event, when: int) -> Event:
        """Schedule the handle ``event`` to fire at absolute tick ``when``."""
        if when < self.curtick:
            raise self._in_the_past(when, event)
        if event.scheduled:
            raise RuntimeError(f"{event!r} is already scheduled")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [when, event.priority, seq, fire, event]
        event._entry = entry
        heapq.heappush(self._heap, entry)
        return event

    def deschedule(self, event: Event) -> None:
        """Remove a scheduled handle (lazily: its entry is squashed)."""
        if not event.scheduled:
            raise RuntimeError(f"{event!r} is not scheduled")
        event._entry[3] = None
        event._entry = None

    # -- checkpointing -----------------------------------------------------
    def live_entries(self) -> List[list]:
        """Every live (non-squashed) entry; see :meth:`EventQueue.live_entries`."""
        return [e for e in self._heap if e[3] is not None]

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
                __, priority, __, fn, arg = pop(heap)
                self.curtick = when
                serviced += 1
                if trc is not None and trc.enabled:
                    self._trace(when, priority, fn, arg)
                if ck is not None and ck.enabled:
                    ck.on_dispatch(when, priority, fn, arg)
                fn(arg)
        finally:
            self.events_processed += serviced
        return self.curtick

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if entry[3] is not None)
