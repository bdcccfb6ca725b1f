"""Property tests: the EventQueue against the reference heap.

:class:`repro.sim.eventq.ReferenceEventQueue` is the original pure
binary-heap scheduler, kept as the executable specification of dispatch
order.  These tests drive it and :class:`~repro.sim.eventq.EventQueue`
with identical randomized workloads (fixed seeds) that interleave
fire-and-forget calls with event-handle schedule/deschedule/reschedule,
same-tick ties included, and assert the two dispatch sequences — tags,
ticks, and therefore (tick, priority, insertion-seq) order — are
identical, including under ``until`` and ``max_events`` stepping.

Also here: a reused handle (a squashed entry can never fire a stale
payload, even when its event is immediately rescheduled at the same
tick), compaction behaviour, the O(1) ``__len__``, the clock that a
``run(until=...)`` may never move backwards, and ``advance()``, which
accounts a skipped span, on both queues.

The module keeps the name it had when ``EventQueue`` was a bucket/heap
hybrid calendar queue; the cases carried over unchanged, so their
names did too.
"""

import random

import pytest

from repro.sim.eventq import Event, EventQueue, ReferenceEventQueue

# Delay distribution for randomized workloads: same-tick and adjacent
# schedules that tie with the event being dispatched, the short link
# delays that dominate PCIe simulation, and replay-timeout-scale and
# far-future ones (``_SPAN`` is ~67 µs of ticks).
_SPAN = 64 << 20
_DELAY_CHOICES = (
    0,              # same tick as the event being dispatched
    1,              # adjacent tick
    37,
    1 << 20,
    17 << 20,
    _SPAN - 1,
    _SPAN,
    5 * _SPAN + 3,  # deep future
)


class _WorkloadEvent(Event):
    """An event that reports back to the workload driver when it fires."""

    __slots__ = ("driver", "tag")

    def __init__(self, driver, tag, priority):
        super().__init__(priority=priority, name=f"wl{tag}")
        self.driver = driver
        self.tag = tag

    def process(self):
        self.driver.fired(self)


class _Workload:
    """Drives one queue with a seed-determined reactive workload.

    Every fired handle or call logs ``(tag, tick)`` and then — drawn
    from the driver's PRNG — schedules fresh handles and fire-and-forget
    calls, deschedules or reschedules pending handles.  Two drivers with
    the same seed consume their PRNGs in dispatch order, so their logs
    are byte-identical exactly when the two queues dispatch identically;
    any divergence shows up as a log mismatch.
    """

    def __init__(self, queue, seed, budget=400):
        self.q = queue
        self.rng = random.Random(seed)
        self.log = []
        self.pending = []
        self.budget = budget
        self.next_tag = 0
        for __ in range(16):
            self._spawn(base=0)

    def _spawn(self, base):
        tag = self.next_tag
        self.next_tag += 1
        priority = self.rng.choice((-10, 0, 0, 0, 7))
        when = base + self.rng.choice(_DELAY_CHOICES)
        if self.rng.random() < 0.5:
            self.q.call_at(when, self.called, tag, priority)
            return
        event = _WorkloadEvent(self, tag, priority)
        self.q.schedule(event, when)
        self.pending.append(event)

    def fired(self, event):
        self.pending.remove(event)
        self.called(event.tag)

    def called(self, tag):
        self.log.append((tag, self.q.curtick))
        rng = self.rng
        if self.budget > 0:
            for __ in range(rng.randrange(0, 3)):
                self.budget -= 1
                self._spawn(base=self.q.curtick)
        if self.pending and rng.random() < 0.25:
            victim = self.pending[rng.randrange(len(self.pending))]
            if rng.random() < 0.5:
                self.q.deschedule(victim)
                self.pending.remove(victim)
            else:
                when = self.q.curtick + rng.choice(_DELAY_CHOICES)
                self.q.reschedule(victim, when)


def _run_pair(seed, runner):
    """Run the same seeded workload on both queues via ``runner``."""
    ref = _Workload(ReferenceEventQueue(), seed)
    real = _Workload(EventQueue(), seed)
    runner(ref.q)
    runner(real.q)
    assert ref.log, "workload fired nothing — test is vacuous"
    assert real.log == ref.log
    assert real.q.curtick == ref.q.curtick
    assert real.q.events_processed == ref.q.events_processed
    return ref, real


@pytest.mark.parametrize("seed", range(8))
def test_randomized_dispatch_matches_reference(seed):
    _run_pair(seed, lambda q: q.run())


@pytest.mark.parametrize("seed", range(4))
def test_randomized_dispatch_matches_under_until_steps(seed):
    def stepped(q):
        # March time forward in fixed strides so runs stop between
        # pending events at every scale; the final unbounded run drains.
        for limit in range(0, 40 * _SPAN, 3 * _SPAN + 12_345):
            q.run(until=limit)
        q.run()

    _run_pair(seed, stepped)


@pytest.mark.parametrize("seed", range(4))
def test_randomized_dispatch_matches_under_max_events_steps(seed):
    def stepped(q):
        for __ in range(1000):
            q.run(max_events=7)
            if q.empty():
                break
        q.run()

    _run_pair(seed, stepped)


@pytest.mark.parametrize("seed", range(4))
def test_advance_shifts_the_rest_of_the_run_on_both_queues(seed):
    # advance() moves the clock, both counters and every live entry,
    # dropping squashed ones: what runs afterwards is the un-advanced
    # run shifted in time, handles still deschedulable, on both queues.
    ticks, seqs, events = 5 * _SPAN + 11, 1000, 77
    runs = {}
    for queue_cls in (ReferenceEventQueue, EventQueue):
        for advanced in (False, True):
            wl = _Workload(queue_cls(), seed)
            wl.q.run(max_events=40)
            assert wl.pending, "no handle pending — test is vacuous"
            wl.q.deschedule(wl.pending.pop(0))  # leave a squashed entry
            cut = len(wl.log)
            if advanced:
                wl.q.advance(ticks, seqs, events)
            wl.q.run()
            runs[queue_cls, advanced] = (
                wl.log[:cut], wl.log[cut:], wl.q.curtick,
                wl.q.events_processed, wl.q._next_seq)
    for advanced in (False, True):
        assert runs[EventQueue, advanced] == runs[ReferenceEventQueue, advanced]
    head, tail, tick, processed, seq = runs[EventQueue, False]
    assert tail, "nothing ran after the cut — test is vacuous"
    assert runs[EventQueue, True] == (
        head, [(tag, when + ticks) for tag, when in tail], tick + ticks,
        processed + events, seq + seqs)


@pytest.mark.parametrize("seed", range(4))
def test_len_and_next_tick_track_reference(seed):
    ref = _Workload(ReferenceEventQueue(), seed)
    real = _Workload(EventQueue(), seed)
    for __ in range(1000):
        assert len(real.q) == len(ref.q)
        assert real.q.empty() == ref.q.empty()
        assert real.q.next_tick() == ref.q.next_tick()
        if real.q.empty():
            break
        assert real.q.service_one() == ref.q.service_one()
        assert real.log == ref.log
    assert real.q.empty() and ref.q.empty()


class _TagEvent(Event):
    __slots__ = ("log", "tag")

    def __init__(self, log, tag):
        super().__init__(name=tag)
        self.log = log
        self.tag = tag

    def process(self):
        self.log.append(self.tag)


@pytest.mark.parametrize("queue_cls", [EventQueue, ReferenceEventQueue])
def test_same_tick_calls_and_handles_fire_in_insertion_order(queue_cls):
    q = queue_cls()
    log = []
    first = _TagEvent(log, "first")
    q.schedule(first, 10)
    q.call_at(10, log.append, "call")
    q.schedule(_TagEvent(log, "handle"), 10)
    q.call_at(10, log.append, "urgent", priority=-1)
    # A rescheduled handle goes behind everything already at its tick.
    q.reschedule(first, 10)
    q.call_at(10, log.append, "last call")
    q.run()
    assert log == ["urgent", "call", "handle", "first", "last call"]
    assert q.events_processed == 5 and q.empty()


# ---------------------------------------------------------------------------
# Reused handles: a squashed entry must never fire a stale payload.
# ---------------------------------------------------------------------------
class _RecycledEvent(Event):
    """A handle reused with a mutable payload slot as soon as
    ``scheduled`` is False."""

    __slots__ = ("payload", "log")

    def __init__(self, log):
        super().__init__(name="recycled")
        self.payload = None
        self.log = log

    def process(self):
        self.log.append(self.payload)


def test_recycled_event_does_not_fire_stale_payload_after_squash():
    q = EventQueue()
    log = []
    event = _RecycledEvent(log)
    event.payload = "stale"
    q.schedule(event, 100)
    q.deschedule(event)
    # Reuse the instance immediately — same tick as the squashed entry.
    event.payload = "fresh"
    q.schedule(event, 100)
    q.run()
    assert log == ["fresh"]


def test_recycled_event_squashed_mid_run_fires_only_fresh_payload():
    # The hazard inside one tick: an earlier event at the same tick
    # deschedules + reschedules (recycles) a later one whose squashed
    # entry is still in the heap, ahead of the fresh one.
    q = EventQueue()
    log = []
    recycled = _RecycledEvent(log)

    def recycle():
        q.deschedule(recycled)
        recycled.payload = "fresh"
        q.schedule(recycled, q.curtick)  # same tick, after the squashed entry

    recycled.payload = "stale"
    q.schedule_callback(50, recycle)
    q.schedule(recycled, 50)
    q.run()
    assert log == ["fresh"]


def test_recycled_event_reusable_after_firing():
    q = EventQueue()
    log = []
    event = _RecycledEvent(log)
    event.payload = 1
    q.schedule(event, 10)
    q.run()
    assert not event.scheduled
    event.payload = 2
    q.schedule(event, q.curtick + 5)
    q.run()
    assert log == [1, 2]


# ---------------------------------------------------------------------------
# Compaction and O(1) length.
# ---------------------------------------------------------------------------
class _CountingEvent(Event):
    __slots__ = ()

    def process(self):
        pass


def test_compaction_drops_squashed_entries_from_all_tiers():
    # The heap is the only tier; entries spread over near and
    # far-future ticks so squashed ones sit at every depth of it.
    q = EventQueue()
    events = []
    for i in range(3000):
        e = _CountingEvent()
        q.schedule(e, (i % 5) * (1 << 19) + (0 if i % 3 else 2 * _SPAN))
        events.append(e)
    for e in events[:-10]:
        q.deschedule(e)
    assert len(q) == 10
    # Dead entries must have been physically compacted away, not just
    # squashed in place: 2990 squashed vs 10 live crosses the threshold
    # repeatedly.  A residue below the compaction floor may remain.
    assert q._squashed <= q.COMPACT_MIN_SQUASHED
    assert len(q._heap) <= len(q) + q.COMPACT_MIN_SQUASHED
    assert len(q._heap) == len(q) + q._squashed
    fired = 0
    while q.service_one():
        fired += 1
    assert fired == 10
    assert q.empty() and len(q) == 0


def test_len_is_a_counter_not_a_scan():
    q = EventQueue()
    events = [_CountingEvent() for __ in range(100)]
    for i, e in enumerate(events):
        q.schedule(e, i)
        assert len(q) == i + 1
    for i, e in enumerate(events[:50]):
        q.deschedule(e)
        assert len(q) == 99 - i
    assert not q.empty()
    while q.service_one():
        pass
    assert len(q) == 0 and q.empty()


def test_deep_future_wheel_jump():
    # Sparse work spread hundreds of ~67 µs windows apart: the clock
    # jumps straight from one event's tick to the next in order.
    q = EventQueue()
    order = []
    for tag, when in (("far", 400 * _SPAN + 7), ("near", 3),
                      ("mid", 2 * _SPAN)):
        q.schedule(_TagEvent(order, tag), when)
    q.run()
    assert order == ["near", "mid", "far"]
    assert q.curtick == 400 * _SPAN + 7
    assert q.events_processed == 3


@pytest.mark.parametrize("queue_cls", [EventQueue, ReferenceEventQueue])
def test_run_until_before_curtick_raises(queue_cls):
    q = queue_cls()
    later = _CountingEvent()
    q.schedule(later, 100)
    assert q.run(until=50) == 50
    with pytest.raises(ValueError, match=r"tick 20\b.*tick 50\b"):
        q.run(until=20)
    # The clock did not move, so the past stays the past...
    assert q.curtick == 50
    with pytest.raises(ValueError):
        q.schedule(_CountingEvent(), 30)
    # ...and stopping exactly at the current tick stays legal.
    assert q.run(until=50) == 50
    assert later.scheduled
    q.run()
    assert q.curtick == 100
