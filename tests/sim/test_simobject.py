"""Unit tests for SimObject / Simulator."""

import pytest

from repro.obs.trace import MemorySink
from repro.sim import eventq as eventq_module
from repro.sim.simobject import SimObject, Simulator


class Ticker(SimObject):
    """Counts calls of its two schedulable methods."""

    def __init__(self, sim, name, parent=None):
        super().__init__(sim, name, parent)
        self.ticks = 0

    def tick(self):
        self.ticks += 1

    def add(self, n):
        self.ticks += n


def test_full_name_walks_parents():
    sim = Simulator()
    system = SimObject(sim, "system")
    pcie = SimObject(sim, "pcie", parent=system)
    port = SimObject(sim, "port0", parent=pcie)
    assert port.full_name == "system.pcie.port0"
    assert system.children == [pcie]
    assert pcie.children == [port]


def test_name_must_be_non_empty():
    sim = Simulator()
    with pytest.raises(ValueError):
        SimObject(sim, "")


def test_find_by_full_name():
    sim = Simulator()
    system = SimObject(sim, "system")
    child = SimObject(sim, "dev", parent=system)
    assert sim.find("system.dev") is child
    assert sim.find("nope") is None


def test_stats_nest_under_parent():
    sim = Simulator()
    system = SimObject(sim, "system")
    dev = SimObject(sim, "dev", parent=system)
    dev.stats.scalar("count").inc(2)
    assert sim.dump_stats()["system.dev.count"] == 2


def test_schedule_helper_uses_relative_delay():
    sim = Simulator()
    obj = SimObject(sim, "obj")
    fired = []
    obj.schedule(100, lambda: fired.append(sim.curtick))
    sim.run()
    assert fired == [100]
    assert obj.curtick == 100


def test_two_simulators_are_independent():
    sim_a, sim_b = Simulator("a"), Simulator("b")
    obj_a = SimObject(sim_a, "x")
    obj_a.schedule(10, lambda: None)
    sim_b.run()
    assert sim_b.curtick == 0
    sim_a.run()
    assert sim_a.curtick == 10


def test_reset_stats():
    sim = Simulator()
    obj = SimObject(sim, "obj")
    counter = obj.stats.scalar("n")
    counter.inc(5)
    sim.reset_stats()
    assert counter.value() == 0


def test_duplicate_full_name_rejected():
    sim = Simulator()
    system = SimObject(sim, "system")
    SimObject(sim, "dev", parent=system)
    with pytest.raises(ValueError, match="duplicate SimObject full name"):
        SimObject(sim, "dev", parent=system)


def test_rejected_duplicate_leaves_parent_untouched():
    # The parent owns its children: a refused duplicate must not stay
    # behind as a phantom child or a second stat group.
    sim = Simulator()
    root = SimObject(sim, "root")
    dev = SimObject(sim, "dev", parent=root)
    with pytest.raises(ValueError, match="duplicate SimObject full name"):
        SimObject(sim, "dev", parent=root)
    assert root.children == [dev]
    assert [group.name for group in root.stats._children] == ["dev"]
    assert sim.objects == [root, dev]


def test_same_leaf_name_under_different_parents_is_fine():
    sim = Simulator()
    a = SimObject(sim, "a")
    b = SimObject(sim, "b")
    dev_a = SimObject(sim, "dev", parent=a)
    dev_b = SimObject(sim, "dev", parent=b)
    assert sim.find("a.dev") is dev_a
    assert sim.find("b.dev") is dev_b


def test_schedule_label_is_lazy(monkeypatch):
    # An armed checker builds no label either: it formats its ring of
    # dispatches only when a violation is built.
    sim = Simulator(check=True)
    system = SimObject(sim, "system")
    dev = Ticker(sim, "dev", parent=system)
    labels = []
    real_label = eventq_module.dispatch_label

    def spy(fn, arg):
        labels.append(real_label(fn, arg))
        return labels[-1]

    monkeypatch.setattr(eventq_module, "dispatch_label", spy)
    assert dev.schedule(5, dev.tick) is None, "fire-and-forget: no handle"
    sim.run()
    assert dev.ticks == 1 and labels == [], "untraced dispatch builds no label"

    sink = sim.tracer.attach(MemorySink())
    dev.schedule(6, dev.tick)
    dev.schedule(7, dev.add, 3)
    sim.run()
    assert dev.ticks == 5
    assert [e["name"] for e in sink.events] == labels == [
        "system.dev.tick", "system.dev.add"]
