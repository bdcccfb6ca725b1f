"""Unit tests for repro.sim.checkpoint: capture, restore, formats."""

import json

import pytest

from repro.mem.packet import MemCmd, Packet
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointError,
    capture,
    checkpoint_digest,
    checkpoint_json,
    read_checkpoint,
    restore,
    write_checkpoint,
)
from repro.sim.eventq import CallbackEvent, Event, fire
from repro.sim.process import Delay, Process
from repro.sim.simobject import SimObject, Simulator


class Counter(SimObject):
    """Minimal stateful component with an event handle it owns."""

    def __init__(self, sim, name, parent=None):
        super().__init__(sim, name, parent)
        self.count = 0
        self.log = []
        self._tick_event = CallbackEvent(self.tick, name="tick")

    def tick(self):
        self.count += 1
        self.log.append(self.curtick)

    def add(self, n):
        self.count += n
        self.log.append((self.curtick, n))

    def state_dict(self):
        return {"count": self.count} if self.count else {}

    def load_state_dict(self, state):
        self.count = int(state["count"])


def build(name="sim"):
    sim = Simulator(name)
    system = SimObject(sim, "system")
    counter = Counter(sim, "counter", parent=system)
    return sim, counter


def test_capture_empty_sim_document_shape():
    sim, _ = build()
    doc = capture(sim)
    assert doc["format"] == CHECKPOINT_FORMAT
    assert doc["version"] == CHECKPOINT_VERSION
    assert doc["sim_name"] == "sim"
    assert doc["events"] == []
    assert doc["eventq"]["curtick"] == 0


def test_capture_is_deterministic():
    sim, counter = build()
    sim.schedule(counter._tick_event, 30)
    assert checkpoint_json(capture(sim)) == checkpoint_json(capture(sim))
    assert checkpoint_digest(capture(sim)) == checkpoint_digest(capture(sim))


def test_pending_bound_method_events_are_described():
    sim, counter = build()
    sim.schedule(counter._tick_event, 30)
    counter.schedule(10, counter.tick)
    doc = capture(sim)
    assert [(e["when"], e["owner"], e["method"]) for e in doc["events"]] == [
        (10, "system.counter", "tick"),
        (30, "system.counter", "tick"),
    ]
    # Only the handle names the attribute a restore re-arms.
    assert [e.get("handle") for e in doc["events"]] == [None, "_tick_event"]


def test_unbound_callback_is_not_describable():
    sim, _ = build()
    sim.schedule_callback(10, lambda: None)
    with pytest.raises(CheckpointError, match="not a bound method"):
        capture(sim)


def test_non_callback_event_is_not_describable():
    class Bare(Event):
        def process(self):
            pass

    sim, _ = build()
    sim.schedule(Bare(), 5)
    with pytest.raises(CheckpointError, match="only handles wrapping"):
        capture(sim)


def test_packet_carrying_call_is_not_describable():
    sim, counter = build()
    sim.eventq.call_at(5, counter.add, Packet(MemCmd.READ_REQ, 0, 4))
    with pytest.raises(CheckpointError, match="carries a Packet"):
        capture(sim)


def test_mid_run_round_trip_matches_uncheckpointed_run():
    sim, counter = build()
    for when in (10, 20, 30, 40):
        counter.schedule(when, counter.tick)
    sim.run(until=15)
    snapshot = capture(sim)

    twin, twin_counter = build()
    restore(twin, snapshot)
    assert twin.curtick == 15
    assert twin_counter.count == 1
    twin.run()
    assert twin_counter.count == 4
    assert twin_counter.log == [20, 30, 40]

    # The uncheckpointed continuation sees the exact same dispatch.
    sim.run()
    assert counter.log == [10, 20, 30, 40]
    assert twin.eventq.events_processed == sim.eventq.events_processed
    assert twin.eventq._next_seq == sim.eventq._next_seq


def test_restore_reuses_the_recycled_event_handle():
    sim, counter = build()
    sim.schedule(counter._tick_event, 25)
    snapshot = capture(sim)

    twin, twin_counter = build()
    restore(twin, snapshot)
    entries = twin.eventq.live_entries()
    assert len(entries) == 1
    assert entries[0][3:] == (fire, twin_counter._tick_event)
    # The component can deschedule its own handle after a restore.
    twin.eventq.deschedule(twin_counter._tick_event)
    twin.run()
    assert twin_counter.count == 0


def test_restore_rejects_wrong_format_and_version():
    sim, _ = build()
    snapshot = capture(sim)
    twin, _ = build()
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        restore(twin, dict(snapshot, format="something-else"))
    with pytest.raises(CheckpointError, match="version"):
        restore(twin, dict(snapshot, version=CHECKPOINT_VERSION + 1))


def test_restore_rejects_an_event_that_is_not_a_dict():
    sim, _ = build()
    twin, _ = build()
    with pytest.raises(CheckpointError, match=r"'events\[0\]' must be of type dict"):
        restore(twin, dict(capture(sim), events=[5]))


def test_restore_rejects_a_document_without_objects():
    sim, _ = build()
    snapshot = capture(sim)
    del snapshot["objects"]
    twin, _ = build()
    with pytest.raises(CheckpointError, match="'objects' must be of type dict"):
        restore(twin, snapshot)


def test_restore_rejects_an_eventq_without_its_counters():
    sim, _ = build()
    twin, _ = build()
    with pytest.raises(CheckpointError, match="'eventq.curtick'"):
        restore(twin, dict(capture(sim), eventq={}))


def test_restore_rejects_an_event_without_owner_before_applying_state():
    sim, counter = build()
    counter.tick()
    counter.schedule(10, counter.tick)
    snapshot = capture(sim)
    del snapshot["events"][0]["owner"]
    twin, twin_counter = build()
    with pytest.raises(CheckpointError, match=r"'events\[0\].owner'"):
        restore(twin, snapshot)
    assert twin_counter.count == 0


def test_restore_requires_an_empty_queue():
    sim, counter = build()
    snapshot = capture(sim)
    twin, twin_counter = build()
    twin_counter.schedule(5, twin_counter.tick)
    with pytest.raises(CheckpointError, match="empty event queue"):
        restore(twin, snapshot)


def test_restore_rejects_unknown_object_and_stat():
    sim, counter = build()
    counter.tick()
    snapshot = capture(sim)
    twin, _ = build()
    tampered = dict(snapshot)
    tampered["objects"] = {"system.ghost": {"count": 1}}
    with pytest.raises(CheckpointError, match="no such object"):
        restore(twin, tampered)
    tampered = dict(snapshot, objects={})
    tampered["stats"] = {"system.ghost.n": {"value": 1}}
    with pytest.raises(CheckpointError, match="no such stat"):
        restore(twin, tampered)


def test_restore_rejects_state_for_a_stateless_object():
    sim, _ = build()
    snapshot = capture(sim)
    twin, _ = build()
    tampered = dict(snapshot)
    tampered["objects"] = {"system": {"mystery": 1}}
    with pytest.raises(ValueError, match="declares no"):
        restore(twin, tampered)


def test_stats_round_trip():
    sim, counter = build()
    stat = counter.stats.scalar("n")
    stat.inc(7)
    snapshot = capture(sim)
    twin, twin_counter = build()
    twin_counter.stats.scalar("n")
    restore(twin, snapshot)
    assert twin.dump_stats()["system.counter.n"] == 7


def test_simulator_methods_delegate():
    sim, counter = build()
    counter.schedule(10, counter.tick)
    snapshot = sim.checkpoint()
    twin, twin_counter = build()
    twin.restore(snapshot)
    twin.run()
    assert twin_counter.log == [10]


def test_write_read_round_trip(tmp_path):
    sim, counter = build()
    sim.schedule(counter._tick_event, 30)
    snapshot = capture(sim)
    path = str(tmp_path / "ckpt.json")
    write_checkpoint(snapshot, path)
    loaded = read_checkpoint(path)
    assert loaded == snapshot
    assert checkpoint_digest(loaded) == checkpoint_digest(snapshot)


def test_read_rejects_non_checkpoint_file(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text('{"format": "something"}')
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        read_checkpoint(str(path))


def test_scalar_arg_call_round_trips():
    sim, counter = build()
    counter.schedule(10, counter.add, 5)
    counter.schedule(20, counter.add, 7)
    sim.run(until=15)
    snapshot = capture(sim)
    assert [(e["when"], e["method"], e["arg"]) for e in snapshot["events"]] \
        == [(20, "add", 7)]

    twin, twin_counter = build()
    restore(twin, json.loads(checkpoint_json(snapshot)))
    assert twin_counter.count == 5
    twin.run()
    sim.run()
    assert twin_counter.count == counter.count == 12
    assert twin_counter.log == [(20, 7)]
    assert twin.eventq._next_seq == sim.eventq._next_seq


def test_handle_is_rearmed_even_behind_a_call_of_its_method():
    # A one-shot call of the handle's own method fires first; the
    # handle must still come back at its own tick, on its own entry.
    sim, counter = build()
    counter.schedule(10, counter.tick)
    sim.schedule(counter._tick_event, 30)
    snapshot = capture(sim)

    twin, twin_counter = build()
    restore(twin, snapshot)
    assert twin_counter._tick_event.when == 30
    twin.eventq.deschedule(twin_counter._tick_event)
    twin.run()
    assert twin_counter.log == [10]



def test_suspended_process_is_not_checkpointable():
    # Its pending resume is a describable call, but the generator frame
    # behind it is not: the process itself must refuse.
    def body():
        yield Delay(10)
        yield Delay(10)

    sim, _ = build()
    Process(sim, "proc", body())
    sim.run(until=5)
    with pytest.raises(CheckpointError, match="proc has work in flight in _suspended"):
        capture(sim)
    sim.run()
    assert capture(sim)["events"] == []
