"""Unit tests for the DMA engine."""

import pytest

from repro.devices.base import PcieDevice
from repro.devices.dma import DmaEngine
from repro.mem.packet import MemCmd
from repro.pci.header import Bar
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import DeviceSpec

from tests.mem.helpers import FakeSlave


class BareDevice(PcieDevice):
    """The template with one memory BAR and no registers."""

    VENDOR_ID = 0x8086
    DEVICE_ID = 0x1234
    BARS = (Bar(4096),)


def build(sim, chunk=64, max_outstanding=8, memory_kwargs=None):
    device = BareDevice(sim, DeviceSpec("disk", name="dev"))
    engine = DmaEngine(sim, "dma", device, chunk=chunk,
                       max_outstanding=max_outstanding)
    kwargs = {"latency": ticks.from_ns(50)}
    kwargs.update(memory_kwargs or {})
    memory = FakeSlave(sim, "memory", **kwargs)
    device.dma_port.bind(memory.port)
    return device, engine, memory


def test_write_chunks_into_cache_lines():
    sim = Simulator()
    device, engine, memory = build(sim)
    transfer = engine.write(0x80000000, 4096)
    sim.run()
    assert transfer._finished
    assert len(memory.requests) == 64
    assert all(p.size == 64 for p in memory.requests)
    assert all(p.cmd is MemCmd.WRITE_REQ for p in memory.requests)
    assert memory.requests[0].addr == 0x80000000
    assert memory.requests[-1].addr == 0x80000000 + 4096 - 64


def test_unaligned_tail_chunk():
    sim = Simulator()
    device, engine, memory = build(sim)
    engine.write(0x80000000, 100)
    sim.run()
    assert [p.size for p in memory.requests] == [64, 36]


def test_completion_waits_for_all_responses():
    sim = Simulator()
    device, engine, memory = build(sim)
    done_at = []
    transfer = engine.write(0x80000000, 1024)
    transfer.completed.subscribe(lambda __: done_at.append(sim.curtick))
    sim.run()
    assert done_at, "transfer never completed"
    # Completion cannot precede the last response (memory latency 50ns).
    assert done_at[0] >= ticks.from_ns(50)
    assert engine.transfers_completed.value() == 1
    assert engine.bytes_moved.value() == 1024


def test_outstanding_window_respected():
    sim = Simulator()
    device, engine, memory = build(
        sim, max_outstanding=4, memory_kwargs={"latency": ticks.from_us(1)}
    )
    engine.write(0x80000000, 4096)
    # Run until just before the first response: only 4 requests may be
    # in flight.
    sim.run(until=ticks.from_ns(999))
    assert len(memory.requests) <= 4
    sim.run()
    assert len(memory.requests) == 64


def test_posted_write_completes_without_responses():
    sim = Simulator()
    device, engine, memory = build(sim)
    transfer = engine.write(0x80000000, 1024, posted=True)
    sim.run()
    assert transfer._finished
    assert all(p.cmd is MemCmd.MESSAGE for p in memory.requests)
    assert len(memory.requests) == 16
    # Device received no responses at all.
    assert device._dma_waiters == {}


def test_large_posted_transfer_paces_on_queue_space():
    sim = Simulator()
    device, engine, memory = build(sim, max_outstanding=32)
    transfer = engine.write(0x80000000, 16384, posted=True)  # 256 chunks
    sim.run(max_events=500_000)
    assert transfer._finished
    assert len(memory.requests) == 256


def test_read_transfer():
    sim = Simulator()
    device, engine, memory = build(sim)
    transfer = engine.read(0x80000000, 512)
    sim.run()
    assert transfer._finished
    assert all(p.cmd is MemCmd.READ_REQ for p in memory.requests)
    assert len(memory.requests) == 8


def test_parameter_validation():
    sim = Simulator()
    device, engine, memory = build(sim)
    with pytest.raises(ValueError):
        engine.write(0x0, 0)
    with pytest.raises(ValueError):
        DmaEngine(sim, "bad", device, chunk=0)
    with pytest.raises(ValueError):
        DmaEngine(sim, "bad2", device, max_outstanding=0)


def test_concurrent_transfers_both_complete():
    sim = Simulator()
    device, engine, memory = build(sim)
    a = engine.write(0x80000000, 512)
    b = engine.read(0x80010000, 512)
    sim.run()
    assert a._finished and b._finished
    assert len(memory.requests) == 16
