"""Unit tests for the enumeration software.

The scenarios mirror the paper's topologies: endpoints directly on root
ports, and a switch (bridge-of-bridges) with endpoints behind it.
"""

import pytest

from repro.mem.addr import AddrRange, disjoint
from repro.pci import header as hdr
from repro.pci.capabilities import (
    CAP_ID_PCIE,
    PcieCapability,
    PciePortType,
)
from repro.pci.enumeration import EnumerationError, Enumerator
from repro.pci.header import Bar, PciBridgeFunction, PciEndpointFunction
from repro.pci.host import PciHost
from repro.sim.simobject import Simulator


def make_host():
    return PciHost(Simulator())


def nic_function():
    fn = PciEndpointFunction(
        0x8086, 0x10D3, bars=[Bar(128 * 1024), Bar(4096), Bar(32, io=True)]
    )
    fn.add_capability(PcieCapability(PciePortType.ENDPOINT))
    return fn


def disk_function():
    return PciEndpointFunction(
        0x8086, 0x7111, bars=[Bar(16, io=True), Bar(16, io=True), Bar(4096)]
    )


def root_port_bridge():
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    bridge.add_capability(PcieCapability(PciePortType.ROOT_PORT), offset=0xD8)
    return bridge


def test_single_endpoint_on_bus0():
    host = make_host()
    host.root_bus.add_function(1, 0, nic_function())
    enumerator = Enumerator(host)
    roots = enumerator.enumerate()
    assert len(roots) == 1
    node = roots[0]
    assert not node.is_bridge
    assert node.device_id == 0x10D3
    assert len(node.bars) == 3
    sizes = {bar.index: bar.size for bar in node.bars}
    assert sizes == {0: 128 * 1024, 1: 4096, 2: 32}


def test_bar_assignment_aligned_and_disjoint():
    host = make_host()
    host.root_bus.add_function(1, 0, nic_function())
    enumerator = Enumerator(host)
    (node,) = enumerator.enumerate()
    ranges = [bar.assigned for bar in node.bars]
    assert all(rng is not None for rng in ranges)
    assert disjoint(ranges)
    for bar in node.bars:
        assert bar.assigned.start % bar.size == 0
        window = enumerator.io_alloc.window if bar.io else enumerator.mem_alloc.window
        assert window.contains_range(bar.assigned)


def test_device_enabled_for_decode_and_dma():
    host = make_host()
    fn = nic_function()
    host.root_bus.add_function(1, 0, fn)
    Enumerator(host).enumerate()
    assert fn.memory_enabled
    assert fn.io_enabled
    assert fn.bus_master_enabled


def test_interrupt_lines_assigned_uniquely():
    host = make_host()
    a, b = nic_function(), disk_function()
    host.root_bus.add_function(1, 0, a)
    host.root_bus.add_function(2, 0, b)
    enumerator = Enumerator(host)
    enumerator.enumerate()
    assert a.interrupt_line != b.interrupt_line
    assert a.interrupt_line >= 32


def test_bridge_gets_bus_numbers_and_windows():
    host = make_host()
    bridge = root_port_bridge()
    child = host.root_bus.add_bridge(0, 0, bridge)
    nic = nic_function()
    child.add_function(0, 0, nic)
    enumerator = Enumerator(host)
    (node,) = enumerator.enumerate()
    assert node.is_bridge
    assert node.secondary_bus == 1
    assert node.subordinate_bus == 1
    assert bridge.secondary_bus == 1
    # Windows cover the child's BARs.
    for bar in node.children[0].bars:
        window = bridge.io_window if bar.io else bridge.memory_window
        assert window is not None
        assert window.contains_range(bar.assigned)
    assert bridge.memory_enabled and bridge.io_enabled and bridge.bus_master_enabled


def test_switch_topology_depth_first_numbering():
    """Root port -> switch upstream -> two downstream ports -> endpoints.

    Depth-first numbering: root port sec=1, upstream sec=2, first
    downstream sec=3, second downstream sec=4; subordinates clamp to the
    deepest bus below each bridge.
    """
    host = make_host()
    root_port = root_port_bridge()
    bus1 = host.root_bus.add_bridge(0, 0, root_port)
    upstream = PciBridgeFunction(0x104C, 0x8232)
    upstream.add_capability(PcieCapability(PciePortType.UPSTREAM_SWITCH_PORT), offset=0xD8)
    bus2 = bus1.add_bridge(0, 0, upstream)
    down_a = PciBridgeFunction(0x104C, 0x8233)
    down_a.add_capability(PcieCapability(PciePortType.DOWNSTREAM_SWITCH_PORT), offset=0xD8)
    bus3 = bus2.add_bridge(0, 0, down_a)
    down_b = PciBridgeFunction(0x104C, 0x8233)
    down_b.add_capability(PcieCapability(PciePortType.DOWNSTREAM_SWITCH_PORT), offset=0xD8)
    bus4 = bus2.add_bridge(1, 0, down_b)
    nic = nic_function()
    disk = disk_function()
    bus3.add_function(0, 0, nic)
    bus4.add_function(0, 0, disk)

    enumerator = Enumerator(host)
    (root,) = enumerator.enumerate()
    assert root.secondary_bus == 1 and root.subordinate_bus == 4
    up = root.children[0]
    assert up.secondary_bus == 2 and up.subordinate_bus == 4
    da, db = up.children
    assert da.secondary_bus == 3 and da.subordinate_bus == 3
    assert db.secondary_bus == 4 and db.subordinate_bus == 4

    # Window nesting: each parent window contains each child window.
    assert root_port.memory_window.contains_range(upstream.memory_window)
    assert upstream.memory_window.contains_range(down_a.memory_window)
    assert upstream.memory_window.contains_range(down_b.memory_window)
    # Sibling windows must not overlap.
    assert not down_a.memory_window.overlaps(down_b.memory_window)

    # Every endpoint BAR is reachable through the whole bridge chain.
    for node in (da.children[0], db.children[0]):
        for bar in node.bars:
            for bridge in (root_port, upstream):
                assert any(
                    w.contains_range(bar.assigned) for w in bridge.forwarding_ranges()
                )


def test_bridge_without_children_gets_closed_windows():
    host = make_host()
    bridge = root_port_bridge()
    host.root_bus.add_bridge(0, 0, bridge)
    Enumerator(host).enumerate()
    assert bridge.memory_window is None
    assert bridge.io_window is None


def test_find_by_vendor_device():
    host = make_host()
    host.root_bus.add_function(1, 0, nic_function())
    enumerator = Enumerator(host)
    enumerator.enumerate()
    assert len(enumerator.find(0x8086, 0x10D3)) == 1
    assert enumerator.find(0x1234, 0x5678) == []


def test_capabilities_discovered():
    host = make_host()
    host.root_bus.add_function(1, 0, nic_function())
    enumerator = Enumerator(host)
    (node,) = enumerator.enumerate()
    assert CAP_ID_PCIE in [cap_id for cap_id, __ in node.capabilities]


def test_mem_space_exhaustion_raises():
    host = make_host()
    host.root_bus.add_function(1, 0, PciEndpointFunction(1, 1, bars=[Bar(1 << 20)]))
    enumerator = Enumerator(host, mem_window=AddrRange(0x40000000, 0x1000))
    with pytest.raises(EnumerationError):
        enumerator.enumerate()


def test_tree_text_renders():
    host = make_host()
    bridge = root_port_bridge()
    child = host.root_bus.add_bridge(0, 0, bridge)
    child.add_function(0, 0, nic_function())
    enumerator = Enumerator(host)
    enumerator.enumerate()
    text = enumerator.tree_text()
    assert "bridge 8086:9c90" in text
    assert "endpoint 8086:10d3" in text
    assert "sec=1" in text
