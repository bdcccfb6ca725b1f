"""Unit tests for the bridge."""

from repro.mem import bridge as bridge_module
from repro.mem.addr import AddrRange
from repro.mem.bridge import Bridge
from repro.mem.packet import MemCmd
from repro.sim.simobject import Simulator

from tests.mem.helpers import FakeMaster, FakeSlave


def build(sim, monkeypatch=None, **constants):
    """A bridge between a fake master and slave; ``constants`` replace
    the bridge module's (``DELAY=...``) for this test."""
    for name, value in constants.items():
        monkeypatch.setattr(bridge_module, name, value)
    bridge = Bridge(sim, "bridge")
    master = FakeMaster(sim)
    slave = FakeSlave(sim, latency=100)
    master.port.bind(bridge.slave_port)
    bridge.master_port.bind(slave.port)
    return bridge, master, slave


def test_request_and_response_delayed(monkeypatch):
    sim = Simulator()
    bridge, master, slave = build(sim, monkeypatch, DELAY=1_000)
    master.read(0x40, 64)
    sim.run()
    assert slave.request_ticks == [1_000]
    assert master.response_ticks == [1_000 + 100 + 1_000]


def test_ranges_reprogrammable():
    sim = Simulator()
    bridge, *_ = build(sim)
    # As the classic machine wires its host bridge to the apertures
    # enumeration assigns.
    bridge.slave_port.get_ranges = lambda: [AddrRange(0x30000000, 0x1000)]
    assert bridge.slave_port.get_ranges() == [AddrRange(0x30000000, 0x1000)]


def test_bounded_request_queue_refuses_then_recovers(monkeypatch):
    sim = Simulator()
    bridge, master, slave = build(sim, monkeypatch, DELAY=1_000,
                                  REQ_QUEUE_SIZE=2)
    for i in range(8):
        master.read(i * 64, 64)
    sim.run()
    assert len(master.responses) == 8
    assert len(slave.requests) == 8


def test_bounded_response_queue_backpressure(monkeypatch):
    sim = Simulator()
    bridge, master, slave = build(sim, monkeypatch, DELAY=1_000,
                                  RESP_QUEUE_SIZE=1)
    for i in range(4):
        master.read(i * 64, 64)
    sim.run()
    assert len(master.responses) == 4


def test_forwarded_stat():
    sim = Simulator()
    bridge, master, slave = build(sim)
    master.write(0x0, 64)
    master.read(0x40, 64)
    sim.run()
    assert bridge.forwarded.value() == 2
