"""Unit tests for the IOCache."""

import pytest

from repro.mem import iocache as iocache_module
from repro.mem.iocache import IOCache
from repro.mem.packet import MemCmd, Packet
from repro.mem.port import PortError
from repro.sim import ticks
from repro.sim.simobject import Simulator

from tests.mem.helpers import FakeMaster, FakeSlave


def build(sim, monkeypatch=None, **constants):
    """A cache between a fake master and memory; ``constants`` replace
    the IOCache module's (``MSHRS=...``) for this test."""
    for name, value in constants.items():
        monkeypatch.setattr(iocache_module, name, value)
    cache = IOCache(sim, "iocache")
    master = FakeMaster(sim)
    mem = FakeSlave(sim, "mem", latency=ticks.from_ns(30))
    master.port.bind(cache.cpu_side)
    cache.mem_side.bind(mem.port)
    return cache, master, mem


def test_read_miss_then_hit():
    sim = Simulator()
    cache, master, mem = build(sim)
    master.read(0x1000, 64)
    sim.run()
    assert cache.misses.value() == 1
    assert len(mem.requests) == 1
    first_latency = master.response_ticks[0]

    master.read(0x1000, 64)
    sim.run()
    assert cache.hits.value() == 1
    assert len(mem.requests) == 1  # no new memory traffic
    second_latency = master.response_ticks[1] - first_latency
    assert second_latency < first_latency


def test_full_line_write_allocates_without_fetch():
    sim = Simulator()
    cache, master, mem = build(sim)
    master.write(0x2000, 64)
    sim.run()
    assert cache.allocations.value() == 1
    assert mem.requests == []  # absorbed by the cache
    assert master.responses[0].cmd is MemCmd.WRITE_RESP


def test_partial_write_is_write_through():
    sim = Simulator()
    cache, master, mem = build(sim)
    master.write(0x2000, 8, data=bytes(8))
    sim.run()
    assert len(mem.requests) == 1
    assert mem.requests[0].size == 8
    assert len(master.responses) == 1


def test_dirty_eviction_emits_writeback():
    sim = Simulator()
    # 1 KiB, 64B lines, assoc 4 -> 4 sets; 5 distinct lines mapping to one
    # set force an eviction.  Set index = (addr//64) % 4.
    cache, master, mem = build(sim)
    stride = 4 * 64  # same set each time
    for i in range(5):
        master.write(0x10000 + i * stride, 64)
    sim.run()
    assert cache.allocations.value() == 5
    assert cache.writebacks.value() == 1
    writebacks = [p for p in mem.requests if p.cmd is MemCmd.WRITE_REQ]
    assert len(writebacks) == 1
    assert writebacks[0].addr == 0x10000  # LRU victim


def test_write_hit_marks_dirty_no_memory_traffic():
    sim = Simulator()
    cache, master, mem = build(sim)
    master.write(0x3000, 64)
    master.write(0x3000, 64)
    sim.run()
    assert cache.hits.value() == 1
    assert mem.requests == []


def test_read_fill_after_miss_is_clean():
    sim = Simulator()
    cache, master, mem = build(sim)
    master.read(0x4000, 64)
    sim.run()
    # Evicting a clean line must not produce a writeback.
    stride = 4 * 64
    for i in range(1, 5):
        master.read(0x4000 + i * stride, 64)
    sim.run()
    assert cache.writebacks.value() == 0


def test_sustained_dma_write_stream_all_completes(monkeypatch):
    sim = Simulator()
    cache, master, mem = build(sim, monkeypatch, WRITEBACK_ENTRIES=4)
    for i in range(64):
        master.write(0x100000 + i * 64, 64)
    sim.run(max_events=200_000)
    assert len(master.responses) == 64
    # A 1 KiB cache cannot hold 4 KiB of writes: most lines were evicted
    # dirty and written back.
    assert cache.writebacks.value() >= 40


def test_posted_partial_writes_never_hold_mshrs(monkeypatch):
    # MSI messages are partial posted writes: memory never acknowledges
    # them, so holding an MSHR per message would leak the slot and
    # refuse all DMA after ``MSHRS`` interrupts (the irq_storm wedge).
    sim = Simulator()
    cache, master, mem = build(sim, monkeypatch, MSHRS=4)
    for i in range(3 * iocache_module.MSHRS):
        pkt = Packet(MemCmd.MESSAGE, 0x10000000, 4, data=bytes(4),
                     requestor=master.full_name, create_tick=sim.curtick)
        master._queue.push(pkt, 0)
    sim.run()
    # Every message reached memory; none is parked awaiting an ack.
    messages = [p for p in mem.requests if p.cmd == MemCmd.MESSAGE]
    assert len(messages) == 3 * iocache_module.MSHRS
    assert len(cache._outstanding) == 0
    # The cache still serves reads afterwards — no wedged MSHRs.
    master.read(0x1000, 64)
    sim.run()
    assert len(master.responses) == 1


def test_stray_memory_response_raises():
    sim = Simulator()
    cache, master, mem = build(sim)
    stray = Packet(MemCmd.READ_REQ, 0x1000, 64).make_response()
    with pytest.raises(PortError,
                       match=r"iocache: response .* matches no outstanding"):
        mem.port.send_timing_resp(stray)
