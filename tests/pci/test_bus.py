"""Unit tests for the classic shared PCI bus."""

import pytest

from repro.mem.addr import AddrRange
from repro.mem.port import PortError
from repro.pci.bus import MAX_PCI_LOADS, PciBus
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import ClassicPciSpec, SpecError, classic_pci_spec

from tests.mem.helpers import FakeMaster, FakeSlave

PERIOD_33 = ticks.from_frequency_hz(33e6)


def pci_bus(sim, **bus_kwargs):
    """A bus at :class:`ClassicPciSpec`'s clock unless the test sets one."""
    return PciBus(sim, **{"clock_mhz": ClassicPciSpec().clock_mhz,
                          **bus_kwargs})


def build(sim, target_latency=0, **bus_kwargs):
    bus = pci_bus(sim, **bus_kwargs)
    master = FakeMaster(sim, "cpu")
    master.port.bind(bus.attach_master("cpu"))
    target = FakeSlave(sim, "dev", ranges=[AddrRange(0x40000000, 0x10000)],
                       latency=target_latency)
    bus.attach_target("dev_side").bind(target.port)
    return bus, master, target


def test_clock_validation():
    with pytest.raises(SpecError, match="clock_mhz"):
        classic_pci_spec(clock_mhz=100)


def test_read_completes_through_shared_bus():
    sim = Simulator()
    bus, master, target = build(sim)
    master.read(0x40000000, 64)
    sim.run()
    assert len(master.responses) == 1
    assert bus.transactions.value() == 1
    assert bus.retry_cycles.value() == 0


def test_fast_target_no_retry_timing():
    sim = Simulator()
    bus, master, target = build(sim, target_latency=0)
    master.read(0x40000000, 64)
    sim.run()
    # arbitration (2) + address (1) + wait-deadline window + data (16).
    assert sim.curtick >= (2 + 1 + 16) * PERIOD_33


def test_slow_target_causes_retry_cycles():
    sim = Simulator()
    # 8 wait states at 33 MHz is ~242 ns; a 2 us target must bounce.
    bus, master, target = build(sim, target_latency=ticks.from_us(2))
    master.read(0x40000000, 64)
    sim.run()
    assert len(master.responses) == 1  # delayed transaction completes
    assert bus.retry_cycles.value() >= 1


def test_writes_are_posted_on_the_bus():
    sim = Simulator()
    bus, master, target = build(sim)
    from repro.mem.packet import MemCmd, Packet

    master._queue.push(Packet(MemCmd.MESSAGE, 0x40000000, 64, data=bytes(64)))
    sim.run()
    assert bus.transactions.value() == 1
    assert len(target.requests) == 1


def test_bus_serializes_masters():
    sim = Simulator()
    bus = pci_bus(sim)
    masters = []
    for i in range(2):
        m = FakeMaster(sim, f"m{i}")
        m.port.bind(bus.attach_master(f"m{i}"))
        masters.append(m)
    target = FakeSlave(sim, "dev", ranges=[AddrRange(0x40000000, 0x10000)],
                       latency=0)
    bus.attach_target("dev_side").bind(target.port)
    masters[0].read(0x40000000, 64)
    masters[1].read(0x40001000, 64)
    sim.run()
    assert len(masters[0].responses) == 1
    assert len(masters[1].responses) == 1
    # Strictly serialized: second completion at least one full
    # transaction after the first.
    gaps = sorted(t.request_ticks[0] for t in [target])
    assert target.request_ticks[0] != target.request_ticks[0] + 1  # sanity
    assert bus.busy_ticks.value() >= 2 * (2 + 1 + 16) * PERIOD_33


def test_unclaimed_address_raises():
    sim = Simulator()
    bus, master, target = build(sim)
    master.read(0x90000000, 4)
    with pytest.raises(PortError):
        sim.run()


def test_load_limit_enforced():
    sim = Simulator()
    bus = pci_bus(sim)
    for i in range(MAX_PCI_LOADS):
        if i % 2:
            bus.attach_master(f"m{i}")
        else:
            bus.attach_target(f"t{i}")
    with pytest.raises(PortError):
        bus.attach_master("one_too_many")


def test_queue_depth_refuses_excess():
    sim = Simulator()
    bus, master, target = build(sim, queue_depth=2,
                                target_latency=ticks.from_us(5))
    for i in range(8):
        master.read(0x40000000 + 64 * i, 64)
    sim.run(max_events=1_000_000)
    # All complete eventually via the retry protocol.
    assert len(master.responses) == 8


def test_efficiency_below_one_with_slow_target():
    sim = Simulator()
    bus, master, target = build(sim, target_latency=ticks.from_us(1))
    for i in range(4):
        master.read(0x40000000 + 64 * i, 64)
    sim.run()
    stats = sim.dump_stats()
    key = [k for k in stats if k.endswith("pci_bus.efficiency")][0]
    assert 0 < stats[key] < 0.9  # wait states + retries burn bus time


def test_explicit_target_ranges():
    sim = Simulator()
    bus = pci_bus(sim)
    master = FakeMaster(sim, "cpu")
    master.port.bind(bus.attach_master("cpu"))
    target = FakeSlave(sim, "mem", ranges=[], latency=0)
    bus.attach_target(
        "mem_side", ranges=lambda: [AddrRange(0x80000000, 1 << 20)]
    ).bind(target.port)
    master.read(0x80000000, 4)
    sim.run()
    assert len(target.requests) == 1


def test_checkpoint_carries_useful_ticks_and_refuses_a_busy_bus():
    from repro.sim.checkpoint import CheckpointError

    sim = Simulator()
    bus, master, target = build(sim, target_latency=ticks.from_us(2))
    master.read(0x40000000, 64)
    sim.run(max_events=3)
    assert bus._busy or bus._queue or bus._waiting_completion
    with pytest.raises(CheckpointError,
                       match="pci_bus has work in flight in _queue, _waiting_completion"):
        bus.state_dict()
    sim.run()
    state = bus.state_dict()
    assert state == {"useful_ticks": 16 * PERIOD_33}
    twin = pci_bus(Simulator())
    twin.load_state_dict(state)
    assert twin.state_dict() == state
