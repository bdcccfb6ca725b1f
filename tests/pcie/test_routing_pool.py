"""Unit tests for the port-pool buffering of the routing engine."""

import pytest

from repro.mem.addr import AddrRange
from repro.pci import header as hdr
from repro.pcie.routing import PcieRoutingEngine
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import RootComplexSpec, SpecError, TopologySpec

from tests.mem.helpers import FakeMaster, FakeSlave
from tests.pcie.helpers import make_root_complex

WINDOW = AddrRange(0x40000000, 0x100000)


def build(sim, **kwargs):
    rc = make_root_complex(sim, 1, **kwargs)
    vp2p = rc.root_ports[0].vp2p
    vp2p.set_memory_window(WINDOW)
    vp2p.config_write(hdr.SECONDARY_BUS, 1, 1)
    vp2p.config_write(hdr.SUBORDINATE_BUS, 1, 1)
    vp2p.config_write(hdr.COMMAND, hdr.CMD_MEM_SPACE | hdr.CMD_BUS_MASTER, 2)
    cpu = FakeMaster(sim, "cpu")
    cpu.port.bind(rc.upstream_slave)
    memory = FakeSlave(sim, "memory", latency=ticks.from_ns(30))
    rc.upstream_master.bind(memory.port)
    dev_pio = FakeSlave(sim, "dev_pio", latency=ticks.from_ns(20))
    dev_dma = FakeMaster(sim, "dev_dma")
    rc.root_ports[0].master_port.bind(dev_pio.port)
    dev_dma.port.bind(rc.root_ports[0].slave_port)
    return rc, cpu, memory, dev_pio, dev_dma


def test_buffer_size_must_leave_a_response_slot():
    with pytest.raises(SpecError, match="root complex: buffer_size"):
        TopologySpec(root_complex=RootComplexSpec(buffer_size=1)).validate()


def test_datapath_scope_validated():
    with pytest.raises(SpecError, match="datapath scope 'quantum'"):
        TopologySpec(
            root_complex=RootComplexSpec(datapath_scope="quantum")).validate()


def test_pool_refuses_request_flood_but_all_complete():
    sim = Simulator()
    rc, cpu, memory, dev_pio, dev_dma = build(
        sim, buffer_size=4, service_interval=ticks.from_ns(100)
    )
    for i in range(32):
        dev_dma.write(0x80000000 + 64 * i, 64)
    sim.run(max_events=500_000)
    assert len(memory.requests) == 32
    assert len(dev_dma.responses) == 32
    # The flood outran the 100ns datapath: the pool refused some ingress.
    refusals = sum(
        port.ingress_refusals.value()
        for port in [rc.upstream_port] + rc.downstream_ports
    )
    assert refusals > 0


def test_requests_capped_below_pool_size():
    """Request classes (posted + non-posted) can never consume the
    completion partition: with buffer_size=4 the pool splits into
    cpl=1, p=1, np=2, so at most 3 request slots may ever be in use."""
    sim = Simulator()
    rc, cpu, memory, dev_pio, dev_dma = build(
        sim, buffer_size=4, service_interval=ticks.from_ns(200)
    )
    port = rc.root_ports[0]
    assert port._slot_caps == [rc.p_slots, rc.np_slots, rc.cpl_slots]
    max_req_slots = {"seen": 0}
    original = port._try_reserve

    def spy(flow_class):
        ok = original(flow_class)
        req_slots = port._slots[0] + port._slots[1]  # P + NP
        max_req_slots["seen"] = max(max_req_slots["seen"], req_slots)
        return ok

    port._try_reserve = spy
    for i in range(16):
        dev_dma.write(0x80000000 + 64 * i, 64)
    sim.run(max_events=500_000)
    assert max_req_slots["seen"] <= rc.p_slots + rc.np_slots  # == 3


def test_mixed_traffic_under_pressure_completes():
    sim = Simulator()
    rc, cpu, memory, dev_pio, dev_dma = build(
        sim, buffer_size=3, service_interval=ticks.from_ns(150)
    )
    for i in range(8):
        dev_dma.write(0x80000000 + 64 * i, 64)
        cpu.read(WINDOW.start + 64 * i, 4)
    sim.run(max_events=1_000_000)
    assert len(dev_dma.responses) == 8
    assert len(cpu.responses) == 8


def test_engine_scope_serializes_across_ports():
    sim = Simulator()
    interval = ticks.from_ns(50)
    rc, cpu, memory, dev_pio, dev_dma = build(
        sim, latency=0, service_interval=interval, datapath_scope="engine"
    )
    # One request through each ingress port back to back: with the
    # shared engine they cannot be processed concurrently.
    cpu.read(WINDOW.start, 4)
    dev_dma.write(0x80000000, 64)
    sim.run()
    arrivals = sorted(dev_pio.request_ticks + memory.request_ticks)
    assert arrivals[1] - arrivals[0] >= interval


def test_port_scope_processes_ports_concurrently():
    sim = Simulator()
    interval = ticks.from_ns(50)
    rc, cpu, memory, dev_pio, dev_dma = build(
        sim, latency=0, service_interval=interval, datapath_scope="port"
    )
    cpu.read(WINDOW.start, 4)
    dev_dma.write(0x80000000, 64)
    sim.run()
    arrivals = sorted(dev_pio.request_ticks + memory.request_ticks)
    assert arrivals[1] - arrivals[0] < interval


def test_pool_occupancy_stat_sampled():
    sim = Simulator()
    rc, cpu, memory, dev_pio, dev_dma = build(sim)
    dev_dma.write(0x80000000, 64)
    sim.run()
    assert rc.root_ports[0].pool_occupancy.count >= 1
