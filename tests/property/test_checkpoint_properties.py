"""Property tests: checkpoint/restore round trips (hypothesis).

The contract under test: cutting a run at an arbitrary tick, capturing,
rebuilding a twin and restoring must continue **byte-identically** to
never having checkpointed — same global dispatch order (anchored to
:class:`repro.sim.eventq.ReferenceEventQueue`, the executable dispatch
specification), same per-object state, same queue bookkeeping — for
arbitrary workloads of event handles (some descheduled) and
fire-and-forget calls carrying a scalar argument, at every delay scale.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.checkpoint import capture, checkpoint_json, restore
from repro.sim.eventq import CallbackEvent, Event, ReferenceEventQueue
from repro.sim.simobject import SimObject, Simulator

#: Same-tick, short, replay-timeout-scale and far-future delays (the
#: spread the queue-vs-reference property tests use).
_SPAN = 64 << 20
_DELAYS = (0, 1, 37, 1 << 20, 17 << 20, _SPAN - 1, _SPAN, 5 * _SPAN + 3)

_N_OWNERS = 3


class _Recorder(SimObject):
    """Logs every firing, locally (checkpointed) and globally (shared)."""

    def __init__(self, sim, name, shared):
        super().__init__(sim, name)
        self.fired = []
        self.shared = shared

    def tick(self):
        self.fired.append(self.curtick)
        self.shared.append((self.name, self.curtick))

    def note(self, op):
        self.fired.append(self.curtick)
        self.shared.append((self.name, self.curtick, op))

    def state_dict(self):
        return {"fired": list(self.fired)} if self.fired else {}

    def load_state_dict(self, state):
        self.fired = [int(t) for t in state["fired"]]


class _RefEvent(Event):
    """Reference-queue twin of a recorder firing."""

    __slots__ = ("log", "owner")

    def __init__(self, log, owner, priority, name):
        super().__init__(priority=priority, name=name)
        self.log = log
        self.owner = owner

    def process(self):
        self.log.append((self.owner,))


def _build(ops):
    """One simulator with recorders, the ops scheduled, none run.

    Returns the handles in op order; a call op's slot is None."""
    shared = []
    sim = Simulator("prop")
    owners = [_Recorder(sim, f"o{i}", shared) for i in range(_N_OWNERS)]
    events = []
    for i, (owner, when, priority, is_call) in enumerate(ops):
        if is_call:
            sim.eventq.call_at(when, owners[owner].note, i, priority)
            events.append(None)
            continue
        event = CallbackEvent(owners[owner].tick, priority=priority,
                              name=f"op{i}")
        sim.schedule(event, when)
        events.append(event)
    return sim, owners, events, shared


def _deschedule_masked(sim, events, mask):
    for event, dead in zip(events, mask):
        if dead and event is not None:
            sim.eventq.deschedule(event)


@st.composite
def _workloads(draw):
    """(ops, deschedule mask, cut tick) triples."""
    ops = draw(st.lists(
        st.tuples(st.integers(0, _N_OWNERS - 1), st.sampled_from(_DELAYS),
                  st.sampled_from((-5, 0, 0, 3)), st.booleans()),
        min_size=1, max_size=30))
    mask = draw(st.lists(st.booleans(), min_size=len(ops),
                         max_size=len(ops)))
    cut = draw(st.integers(min_value=0, max_value=6 * _SPAN))
    return ops, mask, cut


@settings(max_examples=60, deadline=None)
@given(_workloads())
def test_cut_capture_restore_continues_byte_identically(workload):
    ops, mask, cut = workload

    # A: the uncheckpointed baseline, run to completion in one go.
    sim_a, owners_a, events_a, shared_a = _build(ops)
    _deschedule_masked(sim_a, events_a, mask)
    sim_a.run()

    # The reference heap anchors A's global dispatch order.
    ref_log = []
    ref = ReferenceEventQueue()
    for i, (owner, when, priority, is_call) in enumerate(ops):
        if is_call:
            ref.call_at(when, ref_log.append, (f"o{owner}", i), priority)
        else:
            event = _RefEvent(ref_log, f"o{owner}", priority, f"op{i}")
            ref.schedule(event, when)
            if mask[i]:
                ref.deschedule(event)
    ref.run()
    assert [(entry[0],) + entry[2:] for entry in shared_a] == ref_log

    # B: same workload, cut mid-run and captured.
    sim_b, owners_b, events_b, shared_b = _build(ops)
    _deschedule_masked(sim_b, events_b, mask)
    sim_b.run(until=cut)
    snapshot = capture(sim_b)
    captured_triples = sorted(
        (e["when"], e["priority"], e["seq"]) for e in snapshot["events"])

    # C: a fresh twin restored from the snapshot.
    sim_c, owners_c, _, shared_c = _build([])
    restore(sim_c, snapshot)
    assert sorted(tuple(e[:3]) for e in sim_c.eventq.live_entries()) \
        == captured_triples
    # Re-capturing the restored twin reproduces the snapshot exactly.
    assert checkpoint_json(capture(sim_c)) == checkpoint_json(snapshot)
    sim_c.run()

    # The spliced history equals the uncheckpointed baseline.
    assert shared_b + shared_c == shared_a
    for a, c in zip(owners_a, owners_c):
        assert c.fired == a.fired
    assert sim_c.curtick == sim_a.curtick
    assert sim_c.eventq.events_processed == sim_a.eventq.events_processed
    assert sim_c.eventq._next_seq == sim_a.eventq._next_seq
