"""Unit tests for the IDE-like storage device."""

import pytest

from repro.devices.disk import (
    CMD_READ_DMA,
    CMD_WRITE_DMA,
    REG_BUF_ADDR,
    REG_CMD,
    REG_COUNT,
    REG_IRQ_CLEAR,
    REG_LBA,
    REG_STATUS,
    STATUS_BUSY,
    STATUS_ERROR,
    STATUS_IRQ,
    IdeDisk,
)
from repro.mem.packet import MemCmd
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import DeviceSpec

from tests.mem.helpers import FakeSlave


class StubIntc:
    def __init__(self):
        self.raised = 0

    def raise_irq(self, line):
        self.raised += 1


def build(sim, memory_latency=None, **params):
    disk = IdeDisk(sim, DeviceSpec("disk", name="disk", params=params))
    disk.intc = StubIntc()
    memory = FakeSlave(
        sim, "memory",
        latency=memory_latency if memory_latency is not None else ticks.from_ns(50),
    )
    disk.dma_port.bind(memory.port)
    return disk, memory


def start_read(disk, lba=0, count=1, buf=0x80000000):
    disk.mmio_write(0, REG_LBA, 4, lba)
    disk.mmio_write(0, REG_COUNT, 4, count)
    disk.mmio_write(0, REG_BUF_ADDR, 8, buf)
    disk.mmio_write(0, REG_CMD, 4, CMD_READ_DMA)


def test_config_identity_and_capability_chain():
    sim = Simulator()
    disk = IdeDisk(sim, DeviceSpec("disk", name="disk"))
    assert disk.function.vendor_id == 0x8086
    assert disk.function.device_id == 0x7111
    ids = [cap_id for cap_id, __ in disk.function.walk_capabilities()]
    assert ids == [0x01, 0x05, 0x10, 0x11]  # PM, MSI, PCIe, MSI-X


def test_read_command_transfers_sectors_and_interrupts():
    sim = Simulator()
    disk, memory = build(sim)
    start_read(disk, count=2)
    assert disk.busy
    sim.run()
    assert not disk.busy
    assert disk.irq_pending
    assert disk.intc.raised == 1
    assert disk.sectors_transferred.value() == 2
    assert disk.bytes_transferred.value() == 8192
    # 2 sectors x 64 write packets each.
    writes = [p for p in memory.requests if p.cmd is MemCmd.WRITE_REQ]
    assert len(writes) == 128


def test_sector_barrier_no_posted_writes():
    """All of a sector's write responses must return before the next
    sector's first packet is issued."""
    sim = Simulator()
    disk, memory = build(sim, memory_latency=ticks.from_us(2))
    start_read(disk, count=2)
    sim.run()
    arrivals = memory.request_ticks
    # With a 2 us memory latency and the outstanding window, sector 2's
    # first packet cannot be issued before sector 1's last response —
    # which itself is at least 2 us after sector 1's last request.
    sector1_last_req = arrivals[63]
    sector2_first_req = arrivals[64]
    assert sector2_first_req >= sector1_last_req + ticks.from_us(2)


def test_posted_writes_ablation_removes_barrier():
    sim = Simulator()
    disk, memory = build(sim, memory_latency=ticks.from_us(2), posted_writes=True)
    start_read(disk, count=2)
    sim.run()
    arrivals = memory.request_ticks
    gap = arrivals[64] - arrivals[63]
    # Posted: only the access latency separates sectors, not a 2 us
    # response round trip.
    assert gap < ticks.from_us(2)
    assert all(p.cmd is MemCmd.MESSAGE for p in memory.requests)


def test_access_latency_charged_per_sector():
    sim = Simulator()
    disk, memory = build(sim, access_latency=ticks.from_us(1), memory_latency=0)
    start_read(disk, count=3)
    sim.run()
    # Three sectors, each preceded by 1 us of medium access.
    assert sim.curtick >= 3 * ticks.from_us(1)
    assert disk.sector_transfer_ticks.count == 3


def test_write_command_reads_from_memory():
    sim = Simulator()
    disk, memory = build(sim)
    disk.mmio_write(0, REG_LBA, 4, 5)
    disk.mmio_write(0, REG_COUNT, 4, 1)
    disk.mmio_write(0, REG_BUF_ADDR, 8, 0x80000000)
    disk.mmio_write(0, REG_CMD, 4, CMD_WRITE_DMA)
    sim.run()
    reads = [p for p in memory.requests if p.cmd is MemCmd.READ_REQ]
    assert len(reads) == 64
    assert [p.addr for p in reads] == [0x80000000 + 64 * i for i in range(64)]
    assert not any(p.cmd is MemCmd.WRITE_REQ for p in memory.requests)
    assert disk.sectors_transferred.value() == 1
    assert disk.bytes_transferred.value() == 4096
    assert disk.dma.packets_issued.value() == 64
    assert disk.commands_completed.value() == 1
    assert disk.irq_pending and disk.intc.raised == 1


def test_sector_boundary_runs_between_events_before_each_sectors_dma():
    sim = Simulator()
    disk, memory = build(sim)
    seen = []

    def boundary(origin, later, until, limit):
        seen.append((origin.lba, origin.addr, later, len(memory.requests),
                     sim.eventq.empty()))

    disk.sector_boundary = boundary
    start_read(disk, lba=7, count=3)
    sim.run()
    assert seen == [(7, 0x80000000, 2, 0, True),
                    (8, 0x80001000, 1, 64, True),
                    (9, 0x80002000, 0, 128, True)]
    assert disk.sectors_transferred.value() == 3


def test_sector_boundary_outside_a_run_starts_the_dma_at_once():
    # Single-stepping the queue leaves no run to pause.
    sim = Simulator()
    disk, memory = build(sim)
    disk.sector_boundary = lambda *args: pytest.fail("no run to pause")
    start_read(disk, count=2)
    while sim.eventq.service_one():
        pass
    assert disk.sectors_transferred.value() == 2
    assert disk.irq_pending


def test_irq_clear_register():
    sim = Simulator()
    disk, memory = build(sim)
    start_read(disk)
    sim.run()
    assert disk.irq_pending
    disk.mmio_write(0, REG_IRQ_CLEAR, 4, 1)
    assert not disk.irq_pending


def test_invalid_command_sets_error():
    sim = Simulator()
    disk, memory = build(sim)
    disk.mmio_write(0, REG_COUNT, 4, 1)
    disk.mmio_write(0, REG_CMD, 4, 99)
    assert disk.mmio_read(0, REG_STATUS, 4) & STATUS_ERROR
    assert disk.intc.raised == 1


def test_out_of_range_transfer_rejected():
    sim = Simulator()
    disk, memory = build(sim, capacity_sectors=10)
    start_read(disk, lba=8, count=5)
    assert disk.mmio_read(0, REG_STATUS, 4) & STATUS_ERROR
    sim.run()
    assert disk.sectors_transferred.value() == 0


def test_zero_count_rejected():
    sim = Simulator()
    disk, memory = build(sim)
    disk.mmio_write(0, REG_COUNT, 4, 0)
    disk.mmio_write(0, REG_CMD, 4, CMD_READ_DMA)
    assert disk.mmio_read(0, REG_STATUS, 4) & STATUS_ERROR


def test_command_while_busy_flags_error():
    sim = Simulator()
    disk, memory = build(sim)
    start_read(disk, count=4)
    disk.mmio_write(0, REG_CMD, 4, CMD_READ_DMA)  # while busy
    assert disk.mmio_read(0, REG_STATUS, 4) & STATUS_ERROR
    sim.run()
    # The original command still completes.
    assert disk.sectors_transferred.value() == 4


def test_device_level_throughput_stat():
    sim = Simulator()
    disk, memory = build(sim)
    start_read(disk, count=4)
    sim.run()
    assert disk.sector_transfer_ticks.count == 4
    # The barrier means each sector takes at least one memory round trip.
    assert disk.sector_transfer_ticks.mean >= ticks.from_ns(50)
