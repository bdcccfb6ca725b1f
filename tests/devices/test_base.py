"""Unit tests for the generic PCI-Express device template."""

import pytest

from repro.devices.base import PcieDevice
from repro.pci import header as hdr
from repro.pci.header import Bar
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import DeviceSpec

from tests.mem.helpers import FakeMaster


class RegisterDevice(PcieDevice):
    """Exposes one 32-bit scratch register per BAR for testing."""

    VENDOR_ID = 0x8086
    DEVICE_ID = 0xBEEF
    BARS = (Bar(4096), Bar(32, io=True))

    def __init__(self, sim):
        # Any kind's knobs do: the template reads only the shared ones.
        super().__init__(sim, DeviceSpec("disk", name="dev", params=dict(
            pio_latency=ticks.from_ns(30))))
        self.scratch = {0: 0xAABBCCDD, 1: 0x11223344}
        self.writes = []

    def mmio_read(self, bar, offset, size):
        return self.scratch[bar] >> (8 * offset)

    def mmio_write(self, bar, offset, size, value):
        self.writes.append((bar, offset, size, value))


def program(device, mem_base=0x40000000, io_base=0x2F000000):
    device.function.config_write(hdr.BAR0, mem_base, 4)
    device.function.config_write(hdr.BAR0 + 4, io_base, 4)
    device.function.config_write(
        hdr.COMMAND, hdr.CMD_MEM_SPACE | hdr.CMD_IO_SPACE | hdr.CMD_BUS_MASTER, 2
    )


def build(sim):
    device = RegisterDevice(sim)
    program(device)
    cpu = FakeMaster(sim, "cpu")
    cpu.port.bind(device.pio_port)
    return device, cpu


def test_pio_ranges_follow_bars():
    sim = Simulator()
    device = RegisterDevice(sim)
    assert device.pio_port.get_ranges() == []  # decode disabled
    program(device)
    ranges = device.pio_port.get_ranges()
    assert len(ranges) == 2


def test_locate_bar():
    sim = Simulator()
    device = RegisterDevice(sim)
    program(device)
    assert device.locate_bar(0x40000010) == (0, 0x10)
    assert device.locate_bar(0x2F000004) == (1, 0x4)
    assert device.locate_bar(0x50000000) == (None, None)


def test_mmio_read_round_trip():
    sim = Simulator()
    device, cpu = build(sim)
    cpu.read(0x40000000, 4)
    sim.run()
    assert cpu.responses[0].data == (0xAABBCCDD).to_bytes(4, "little")
    assert cpu.response_ticks[0] == ticks.from_ns(30)
    assert device.mmio_reads.value() == 1


def test_mmio_write_dispatched_with_value():
    sim = Simulator()
    device, cpu = build(sim)
    cpu.write(0x40000008, 4, data=(0xDEAD).to_bytes(4, "little"))
    sim.run()
    assert device.writes == [(0, 8, 4, 0xDEAD)]
    assert len(cpu.responses) == 1
    assert device.mmio_writes.value() == 1


def test_io_bar_access():
    sim = Simulator()
    device, cpu = build(sim)
    cpu.read(0x2F000000, 4)
    sim.run()
    assert cpu.responses[0].data == (0x11223344).to_bytes(4, "little")


def test_unclaimed_address_reads_all_ones():
    sim = Simulator()
    device, cpu = build(sim)
    # Disable decode after the request is already "routed" to the
    # device (stale window scenario).
    device.function.config_write(hdr.COMMAND, 0, 2)
    cpu.read(0x40000000, 4)
    sim.run()
    assert cpu.responses[0].data == b"\xff\xff\xff\xff"


def test_interrupt_requires_controller():
    sim = Simulator()
    device = RegisterDevice(sim)
    with pytest.raises(RuntimeError):
        device.raise_interrupt()


def test_interrupt_reaches_controller():
    sim = Simulator()
    device = RegisterDevice(sim)

    class StubIntc:
        def __init__(self):
            self.lines = []

        def raise_irq(self, line):
            self.lines.append(line)

    device.intc = StubIntc()
    device.function.config_write(hdr.INTERRUPT_LINE, 42, 1)
    device.raise_interrupt()
    assert device.intc.lines == [42]
    assert device.interrupts_raised.value() == 1
