"""Unit tests for the DMA copy accelerator (the third device kind)."""

import pytest

from repro.devices.accel import (
    CMD_COPY,
    REG_CMD,
    REG_DST,
    REG_NBYTES,
    REG_SRC,
    REG_STATUS,
    STATUS_ERROR,
    STATUS_IRQ,
    DmaAccelerator,
)
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import DeviceSpec, LinkSpec, SwitchSpec, TopologySpec
from repro.system.topology import DEVICE_KINDS, build_system

from tests.mem.helpers import FakeSlave


class StubIntc:
    def __init__(self):
        self.raised = 0

    def raise_irq(self, line):
        self.raised += 1


def build(sim, **params):
    accel = DmaAccelerator(sim, DeviceSpec("accel", name="accel",
                                           params=params))
    accel.intc = StubIntc()
    memory = FakeSlave(sim, "memory", latency=ticks.from_ns(50))
    accel.dma_port.bind(memory.port)
    return accel, memory


def start_copy(accel, src=0x80000000, dst=0x80100000, nbytes=256):
    accel.mmio_write(0, REG_SRC, 8, src)
    accel.mmio_write(0, REG_DST, 8, dst)
    accel.mmio_write(0, REG_NBYTES, 8, nbytes)
    accel.mmio_write(0, REG_CMD, 4, CMD_COPY)


def test_config_identity_and_capability_chain():
    sim = Simulator()
    accel = DmaAccelerator(sim, DeviceSpec("accel", name="accel"))
    assert accel.function.vendor_id == DmaAccelerator.VENDOR_ID
    assert accel.function.device_id == DmaAccelerator.DEVICE_ID
    ids = [cap_id for cap_id, __ in accel.function.walk_capabilities()]
    assert ids == [0x01, 0x05, 0x10, 0x11]  # PM, MSI, PCIe, MSI-X


def test_copy_reads_source_then_writes_destination():
    sim = Simulator()
    accel, memory = build(sim)
    start_copy(accel, nbytes=256)
    assert accel.busy
    sim.run()
    assert not accel.busy
    assert accel.intc.raised == 1
    assert accel.copies_completed.value() == 1
    assert accel.bytes_copied.value() == 256
    # 256 bytes at 64 B chunks: 4 reads then 4 writes, in that order.
    reads = [p for p in memory.requests if p.is_read]
    writes = [p for p in memory.requests if not p.is_read]
    assert len(reads) == len(writes) == 4
    assert max(memory.requests.index(p) for p in reads) < \
        min(memory.requests.index(p) for p in writes)
    assert {p.addr for p in reads} == {0x80000000 + i * 64 for i in range(4)}
    assert {p.addr for p in writes} == {0x80100000 + i * 64 for i in range(4)}


def test_copy_latency_scales_with_size():
    def copy_ticks(nbytes):
        sim = Simulator()
        accel, __ = build(sim)
        start_copy(accel, nbytes=nbytes)
        sim.run()
        return accel.copy_ticks.mean

    assert copy_ticks(4096) > copy_ticks(256)


def test_bad_command_and_zero_bytes_set_error():
    sim = Simulator()
    accel, __ = build(sim)
    accel.mmio_write(0, REG_NBYTES, 8, 0)
    accel.mmio_write(0, REG_CMD, 4, CMD_COPY)
    assert accel.mmio_read(0, REG_STATUS, 4) & STATUS_ERROR
    assert accel.intc.raised == 1  # error interrupt, no hang


def test_command_while_busy_flags_error_without_corrupting_copy():
    sim = Simulator()
    accel, __ = build(sim)
    start_copy(accel, nbytes=512)
    accel.mmio_write(0, REG_CMD, 4, CMD_COPY)  # while busy
    assert accel.mmio_read(0, REG_STATUS, 4) & STATUS_ERROR
    sim.run()
    assert accel.copies_completed.value() == 1
    assert accel.mmio_read(0, REG_STATUS, 4) & STATUS_IRQ


def test_checkpoint_keeps_the_register_file():
    # A completed copy leaves its registers programmed and the
    # completion interrupt pending; a restored twin reads them back.
    sim = Simulator()
    accel, __ = build(sim)
    start_copy(accel, nbytes=256)
    sim.run()
    twin_sim = Simulator()
    twin, __ = build(twin_sim)
    twin_sim.restore(sim.checkpoint())
    for offset in (REG_SRC, REG_DST, REG_NBYTES, REG_STATUS):
        assert twin.mmio_read(0, offset, 8) == accel.mmio_read(0, offset, 8)
    assert twin.mmio_read(0, REG_STATUS, 4) == STATUS_IRQ
    assert twin.mmio_read(0, REG_SRC, 8) == 0x80000000
    assert twin.irq_pending and not twin.busy


def test_checkpoint_during_setup_finishes_the_copy_alike():
    # Captured while the command decodes, the copy resumes from the
    # restored registers and is timed from its original start.
    def run(restore_at=None):
        sim = Simulator()
        accel, memory = build(sim)
        start_copy(accel, nbytes=256)
        if restore_at is not None:
            sim.run(until=restore_at)
            sim, snapshot = Simulator(), sim.checkpoint()
            accel, memory = build(sim)
            sim.restore(snapshot)
        sim.run()
        return accel.copy_ticks.mean, [(p.addr, p.is_read)
                                      for p in memory.requests]

    assert run(restore_at=ticks.from_ns(100)) == run()


def test_accel_is_a_registered_device_kind():
    from repro.drivers.accel import DmaAccelDriver
    from repro.system.spec import DEVICE_KIND_NAMES

    assert "accel" in DEVICE_KIND_NAMES
    assert DEVICE_KINDS["accel"] == (DmaAccelerator, DmaAccelDriver)


def accel_system(**params):
    topology = TopologySpec(children=[
        SwitchSpec(name="switch",
                   link=LinkSpec(name="uplink", gen="GEN2", width=2),
                   children=[
                       DeviceSpec("accel", name="accel0",
                                  link=LinkSpec(name="accel0", gen="GEN2",
                                                width=1),
                                  params=params),
                   ]),
    ]).finalize()
    return build_system(topology)


def test_spec_built_accel_binds_and_copies_end_to_end():
    system = accel_system(dma_outstanding=8)
    accel = system.devices["accel0"]
    driver = system.drivers["accel0"]
    assert driver.device is accel

    done = {}

    def copy():
        signal = yield from driver.start_copy(0x90000000, 0x91000000, 4096)
        from repro.sim.process import WaitFor
        yield WaitFor(signal)
        done["result"] = signal

    process = system.kernel.spawn("copy", copy())
    system.run(max_events=50_000_000)
    assert process.done
    assert accel.copies_completed.value() == 1
    assert accel.bytes_copied.value() == 4096


def test_driver_rejects_concurrent_copies():
    from repro.drivers.base import DriverError

    system = accel_system()
    driver = system.drivers["accel0"]

    def two_copies():
        first = yield from driver.start_copy(0x90000000, 0x91000000, 256)
        with pytest.raises(DriverError):
            yield from driver.start_copy(0x90000000, 0x91000000, 256)
        from repro.sim.process import WaitFor
        yield WaitFor(first)

    process = system.kernel.spawn("copies", two_copies())
    system.run(max_events=50_000_000)
    assert process.done


def test_mixed_three_kind_fabric_builds_and_resolves():
    topology = TopologySpec(children=[
        SwitchSpec(name="switch",
                   link=LinkSpec(name="uplink", gen="GEN2", width=4),
                   children=[
                       DeviceSpec("disk", name="disk0",
                                  link=LinkSpec(name="disk0", gen="GEN2",
                                                width=1)),
                       DeviceSpec("nic", name="nic0",
                                  link=LinkSpec(name="nic0", gen="GEN2",
                                                width=1)),
                       DeviceSpec("accel", name="accel0",
                                  link=LinkSpec(name="accel0", gen="GEN2",
                                                width=1)),
                   ]),
    ]).finalize()
    system = build_system(topology)
    for name in ("disk0", "nic0", "accel0"):
        assert system.drivers[name].device is system.devices[name]
