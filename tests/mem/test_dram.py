"""Unit tests for the simple DRAM controller."""

import pytest

from repro.mem import dram as dram_module
from repro.mem.addr import AddrRange
from repro.mem.dram import SimpleMemory
from repro.mem.packet import MemCmd, Packet
from repro.sim import ticks
from repro.sim.simobject import Simulator

from tests.mem.helpers import FakeMaster

DRAM_BASE = 0x80000000


#: A bandwidth under which an access takes no service time.
UNLIMITED = float("inf")


def build(sim, monkeypatch=None, **constants):
    """A memory behind a fake master; ``constants`` replace the DRAM
    module's (``LATENCY=...``) for this test."""
    for name, value in constants.items():
        monkeypatch.setattr(dram_module, name, value)
    mem = SimpleMemory(sim, "dram", AddrRange(DRAM_BASE, 1 << 30))
    master = FakeMaster(sim)
    master.port.bind(mem.port)
    return mem, master


def test_fixed_latency_read(monkeypatch):
    sim = Simulator()
    mem, master = build(sim, monkeypatch, LATENCY=ticks.from_ns(30),
                        BANDWIDTH=UNLIMITED)
    master.read(DRAM_BASE, 64)
    sim.run()
    assert master.response_ticks == [ticks.from_ns(30)]
    assert mem.reads.value() == 1
    assert mem.bytes_read.value() == 64


def test_bandwidth_serializes_consecutive_accesses(monkeypatch):
    sim = Simulator()
    # 1 byte per tick -> a 64B access occupies 64 ticks of service.
    mem, master = build(sim, monkeypatch, LATENCY=0, BANDWIDTH=1.0)
    master.read(DRAM_BASE, 64)
    master.read(DRAM_BASE + 64, 64)
    sim.run()
    assert master.response_ticks == [64, 128]


def test_unlimited_bandwidth_adds_no_service_time(monkeypatch):
    sim = Simulator()
    mem, master = build(sim, monkeypatch, LATENCY=100, BANDWIDTH=UNLIMITED)
    for i in range(4):
        master.read(DRAM_BASE + i * 64, 64)
    sim.run()
    assert master.response_ticks == [100] * 4


def test_write_counts_and_responds(monkeypatch):
    sim = Simulator()
    mem, master = build(sim, monkeypatch, LATENCY=50, BANDWIDTH=UNLIMITED)
    master.write(DRAM_BASE, 128)
    sim.run()
    assert mem.writes.value() == 1
    assert mem.bytes_written.value() == 128
    assert master.responses[0].cmd is MemCmd.WRITE_RESP


def test_outstanding_bound_backpressures(monkeypatch):
    sim = Simulator()
    mem, master = build(sim, monkeypatch, LATENCY=1_000, BANDWIDTH=UNLIMITED,
                        MAX_OUTSTANDING=2)
    for i in range(10):
        master.read(DRAM_BASE + i * 64, 64)
    sim.run()
    assert len(master.responses) == 10


def test_posted_message_consumed_without_response():
    sim = Simulator()
    mem, master = build(sim)
    master._queue.push(Packet(MemCmd.MESSAGE, DRAM_BASE, 4, data=bytes(4)))
    sim.run()
    assert mem.writes.value() == 1
    assert master.responses == []
