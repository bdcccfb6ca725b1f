"""Unit tests for the MSI doorbell."""

from repro.kernel.interrupts import InterruptController, MsiDoorbell
from repro.mem.packet import MemCmd, Packet
from repro.sim import ticks
from repro.sim.process import Delay
from repro.sim.simobject import Simulator

from tests.mem.helpers import FakeMaster


class ImmediateController(InterruptController):
    """Handlers enter as the line rises: only the doorbell takes time."""

    DISPATCH_LATENCY = 0


def build(sim):
    intc = ImmediateController(sim)
    doorbell = MsiDoorbell(sim, intc=intc)
    device = FakeMaster(sim, "device")
    device.port.bind(doorbell.port)
    return intc, doorbell, device


def test_posted_write_raises_vector_from_payload():
    sim = Simulator()
    intc, doorbell, device = build(sim)
    fired = []

    def handler():
        fired.append(sim.curtick)
        yield Delay(0)

    intc.register(42, handler)
    msi = Packet(MemCmd.MESSAGE, doorbell.range.start, 4,
                 data=(42).to_bytes(4, "little"))
    device._queue.push(msi)
    sim.run()
    assert MsiDoorbell.LATENCY == ticks.from_ns(50)
    assert fired == [ticks.from_ns(50)]
    assert doorbell.msis_received.value() == 1


def test_non_posted_write_also_works_and_responds():
    sim = Simulator()
    intc, doorbell, device = build(sim)

    def handler():
        yield Delay(0)

    intc.register(7, handler)
    device.write(doorbell.range.start, 4, data=(7).to_bytes(4, "little"))
    sim.run()
    assert len(device.responses) == 1
    assert doorbell.msis_received.value() == 1


def test_unregistered_vector_is_spurious():
    sim = Simulator()
    intc, doorbell, device = build(sim)
    msi = Packet(MemCmd.MESSAGE, doorbell.range.start, 4,
                 data=(99).to_bytes(4, "little"))
    device._queue.push(msi)
    sim.run()
    assert intc.spurious.value() == 1


def test_range_claimed_for_routing():
    sim = Simulator()
    intc, doorbell, device = build(sim)
    assert doorbell.port.get_ranges() == [doorbell.range]
