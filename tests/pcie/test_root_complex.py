"""Unit tests for the root complex: routing, stamping, backpressure."""

import pytest

from repro.mem.addr import AddrRange
from repro.mem.packet import MemCmd, Packet
from repro.mem.port import PortError
from repro.pci import header as hdr
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import RootComplexSpec, SpecError, TopologySpec

from tests.mem.helpers import FakeMaster, FakeSlave
from tests.pcie.helpers import make_root_complex


MEM_WINDOW_0 = AddrRange(0x40000000, 0x100000)
MEM_WINDOW_1 = AddrRange(0x40100000, 0x100000)


def open_window(vp2p, window, secondary, subordinate):
    """Program a VP2P the way enumeration software would."""
    vp2p.set_memory_window(window)
    vp2p.config_write(hdr.SECONDARY_BUS, secondary, 1)
    vp2p.config_write(hdr.SUBORDINATE_BUS, subordinate, 1)
    vp2p.config_write(hdr.COMMAND, hdr.CMD_MEM_SPACE | hdr.CMD_BUS_MASTER, 2)


def build(sim, **kwargs):
    """RC with a CPU on the upstream slave, memory on the upstream
    master, and a fake device directly on each of two root ports."""
    rc = make_root_complex(sim, 2, **kwargs)
    cpu = FakeMaster(sim, "cpu")
    cpu.port.bind(rc.upstream_slave)
    memory = FakeSlave(sim, "memory", latency=ticks.from_ns(30))
    rc.upstream_master.bind(memory.port)
    devices = []
    for i, port in enumerate(rc.root_ports):
        dev_pio = FakeSlave(sim, f"dev{i}_pio", latency=ticks.from_ns(20))
        dev_dma = FakeMaster(sim, f"dev{i}_dma")
        port.master_port.bind(dev_pio.port)
        dev_dma.port.bind(port.slave_port)
        devices.append((dev_pio, dev_dma))
    open_window(rc.root_ports[0].vp2p, MEM_WINDOW_0, 1, 1)
    open_window(rc.root_ports[1].vp2p, MEM_WINDOW_1, 2, 2)
    return rc, cpu, memory, devices


def test_three_root_ports_by_default_with_wildcat_ids():
    sim = Simulator()
    rc = make_root_complex(sim, 3)
    assert len(rc.root_ports) == 3
    assert [v.device_id for v in rc.vp2ps] == [0x9C90, 0x9C92, 0x9C94]
    assert all(v.vendor_id == 0x8086 for v in rc.vp2ps)


def test_needs_at_least_one_port():
    with pytest.raises(SpecError, match="num_root_ports"):
        TopologySpec(root_complex=RootComplexSpec(num_root_ports=0)).validate()


def test_upstream_ranges_are_union_of_windows():
    sim = Simulator()
    rc, *_ = build(sim)
    ranges = rc.upstream_slave.get_ranges()
    assert MEM_WINDOW_0 in ranges
    assert MEM_WINDOW_1 in ranges


def test_mmio_request_routes_by_window():
    sim = Simulator()
    rc, cpu, memory, devices = build(sim)
    cpu.read(MEM_WINDOW_0.start + 0x10, 4)
    cpu.read(MEM_WINDOW_1.start + 0x20, 4)
    sim.run()
    assert len(devices[0][0].requests) == 1
    assert len(devices[1][0].requests) == 1
    assert len(cpu.responses) == 2


def test_cpu_requests_stamped_with_bus_zero():
    sim = Simulator()
    rc, cpu, memory, devices = build(sim)
    cpu.read(MEM_WINDOW_0.start, 4)
    sim.run()
    assert devices[0][0].requests[0].pci_bus_num == 0


def test_unclaimed_upstream_request_raises():
    sim = Simulator()
    rc, cpu, memory, devices = build(sim)
    cpu.read(0x50000000, 4)  # outside both windows
    with pytest.raises(PortError):
        sim.run()


def test_dma_stamped_with_secondary_bus_and_reaches_memory():
    sim = Simulator()
    rc, cpu, memory, devices = build(sim)
    devices[1][1].write(0x80000000, 64)
    sim.run()
    assert len(memory.requests) == 1
    assert memory.requests[0].pci_bus_num == 2
    assert len(devices[1][1].responses) == 1


def test_dma_response_routes_back_by_bus_number():
    sim = Simulator()
    rc, cpu, memory, devices = build(sim)
    devices[0][1].write(0x80000000, 64)
    devices[1][1].write(0x80001000, 64)
    sim.run()
    # Each device's DMA response comes back to it, not to its sibling.
    assert len(devices[0][1].responses) == 1
    assert len(devices[1][1].responses) == 1
    assert devices[0][1].responses[0].addr == 0x80000000
    assert devices[1][1].responses[0].addr == 0x80001000


def test_peer_to_peer_request_routes_across_root_ports():
    sim = Simulator()
    rc, cpu, memory, devices = build(sim)
    # Device 0 writes into device 1's window: must route down port 1,
    # not up toward memory.
    devices[0][1].write(MEM_WINDOW_1.start + 0x40, 64)
    sim.run()
    assert len(devices[1][0].requests) == 1
    assert memory.requests == []
    assert len(devices[0][1].responses) == 1


def test_latency_applied_both_ways():
    sim = Simulator()
    latency = ticks.from_ns(150)
    rc, cpu, memory, devices = build(sim, latency=latency, service_interval=0)
    cpu.read(MEM_WINDOW_0.start, 4)
    sim.run()
    # request: RC latency; device 20 ns; response: RC latency again.
    assert cpu.response_ticks[0] == 2 * latency + ticks.from_ns(20)


def test_service_interval_serializes_burst():
    sim = Simulator()
    interval = ticks.from_ns(30)
    rc, cpu, memory, devices = build(sim, latency=0, service_interval=interval)
    for i in range(4):
        devices[0][1].write(0x80000000 + 64 * i, 64)
    sim.run()
    arrivals = memory.request_ticks
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert all(g >= interval for g in gaps)


def test_bounded_port_buffers_backpressure_but_deliver_all():
    sim = Simulator()
    rc, cpu, memory, devices = build(sim, buffer_size=2)
    for i in range(12):
        devices[0][1].write(0x80000000 + 64 * i, 64)
    sim.run(max_events=200_000)
    assert len(memory.requests) == 12
    assert len(devices[0][1].responses) == 12


def test_register_with_host_builds_config_tree():
    from repro.pci.host import PciHost

    sim = Simulator()
    rc = make_root_complex(sim, 2)
    host = PciHost(sim)
    buses = rc.register_with_host(host)
    assert len(buses) == 2
    assert host.config_read(0, 0, 0, hdr.VENDOR_ID, 2) == 0x8086
    assert host.config_read(0, 1, 0, hdr.DEVICE_ID, 2) == 0x9C92
    assert host.config_read(0, 0, 0, hdr.HEADER_TYPE, 1) == 0x01
