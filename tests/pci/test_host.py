"""Unit tests for the PCI host and structural config routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.packet import MemCmd, Packet
from repro.pci import header as hdr
from repro.pci.header import Bar, PciBridgeFunction, PciEndpointFunction
from repro.pci.host import PciHost
from repro.sim.simobject import Simulator

from tests.mem.helpers import FakeMaster


def test_ecam_encode_decode_round_trip():
    sim = Simulator()
    host = PciHost(sim)
    addr = host.encode(3, 17, 2, 0x44)
    assert host.decode(addr) == (3, 17, 2, 0x44)
    assert host.ecam_range.contains(addr)


def test_absent_device_reads_all_ones():
    sim = Simulator()
    host = PciHost(sim)
    assert host.config_read(0, 5, 0, hdr.VENDOR_ID, 2) == 0xFFFF
    assert host.config_read(9, 0, 0, hdr.VENDOR_ID, 4) == 0xFFFFFFFF
    assert host.missed_accesses.value() == 2


def test_write_to_absent_device_dropped():
    sim = Simulator()
    host = PciHost(sim)
    host.config_write(0, 5, 0, hdr.COMMAND, 0x7, 2)  # must not raise
    assert host.missed_accesses.value() == 1


def test_bus0_device_reachable():
    sim = Simulator()
    host = PciHost(sim)
    fn = PciEndpointFunction(0x8086, 0x10D3)
    host.root_bus.add_function(2, 0, fn)
    assert host.config_read(0, 2, 0, hdr.VENDOR_ID, 2) == 0x8086
    host.config_write(0, 2, 0, hdr.COMMAND, hdr.CMD_MEM_SPACE, 2)
    assert fn.memory_enabled


def test_duplicate_slot_rejected():
    sim = Simulator()
    host = PciHost(sim)
    host.root_bus.add_function(0, 0, PciEndpointFunction(1, 1))
    with pytest.raises(ValueError):
        host.root_bus.add_function(0, 0, PciEndpointFunction(2, 2))


def test_device_behind_unconfigured_bridge_unreachable():
    sim = Simulator()
    host = PciHost(sim)
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    child = host.root_bus.add_bridge(0, 0, bridge)
    child.add_function(0, 0, PciEndpointFunction(0x8086, 0x10D3))
    # Bridge still has secondary == 0: bus 1 resolves nowhere.
    assert host.config_read(1, 0, 0, hdr.VENDOR_ID, 2) == 0xFFFF


def test_config_cycles_route_through_programmed_bridge():
    sim = Simulator()
    host = PciHost(sim)
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    child = host.root_bus.add_bridge(0, 0, bridge)
    nic = PciEndpointFunction(0x8086, 0x10D3)
    child.add_function(0, 0, nic)
    host.config_write(0, 0, 0, hdr.SECONDARY_BUS, 1, 1)
    host.config_write(0, 0, 0, hdr.SUBORDINATE_BUS, 1, 1)
    assert host.config_read(1, 0, 0, hdr.DEVICE_ID, 2) == 0x10D3
    assert host.function_at(1, 0, 0) is nic


def test_nested_bridge_routing():
    sim = Simulator()
    host = PciHost(sim)
    root_port = PciBridgeFunction(0x8086, 0x9C90)
    bus1 = host.root_bus.add_bridge(0, 0, root_port)
    upstream = PciBridgeFunction(0x104C, 0x8232)
    bus2 = host.root_bus.child_behind(0, 0).add_bridge(0, 0, upstream)
    disk = PciEndpointFunction(0x8086, 0x7111)
    bus2.add_function(3, 0, disk)
    # Program bus numbers the way enumeration would.
    host.config_write(0, 0, 0, hdr.SECONDARY_BUS, 1, 1)
    host.config_write(0, 0, 0, hdr.SUBORDINATE_BUS, 2, 1)
    host.config_write(1, 0, 0, hdr.SECONDARY_BUS, 2, 1)
    host.config_write(1, 0, 0, hdr.SUBORDINATE_BUS, 2, 1)
    assert host.config_read(2, 3, 0, hdr.DEVICE_ID, 2) == 0x7111
    assert host.function_at(2, 3, 0) is disk
    # Bus 3 exists nowhere.
    assert host.config_read(3, 0, 0, hdr.VENDOR_ID, 2) == 0xFFFF


def test_add_bridge_type_checked():
    sim = Simulator()
    host = PciHost(sim)
    with pytest.raises(TypeError):
        host.root_bus.add_bridge(0, 0, PciEndpointFunction(1, 1))


def test_all_functions_walks_tree():
    sim = Simulator()
    host = PciHost(sim)
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    child = host.root_bus.add_bridge(0, 0, bridge)
    child.add_function(0, 0, PciEndpointFunction(0x8086, 0x10D3))
    host.root_bus.add_function(1, 0, PciEndpointFunction(0x8086, 0x1234))
    assert len(host.all_functions()) == 3


def test_timed_config_access_via_port():
    sim = Simulator()
    host = PciHost(sim, config_latency=100_000)
    fn = PciEndpointFunction(0x8086, 0x10D3)
    host.root_bus.add_function(2, 0, fn)
    master = FakeMaster(sim)
    master.port.bind(host.port)
    addr = host.encode(0, 2, 0, hdr.VENDOR_ID)
    master._queue.push(Packet(MemCmd.CONFIG_READ_REQ, addr, 2))
    sim.run()
    assert len(master.responses) == 1
    assert master.responses[0].data == (0x8086).to_bytes(2, "little")
    assert master.response_ticks[0] == 100_000


def test_timed_config_write_via_port():
    sim = Simulator()
    host = PciHost(sim)
    fn = PciEndpointFunction(0x8086, 0x10D3)
    host.root_bus.add_function(2, 0, fn)
    master = FakeMaster(sim)
    master.port.bind(host.port)
    addr = host.encode(0, 2, 0, hdr.COMMAND)
    value = (hdr.CMD_MEM_SPACE | hdr.CMD_BUS_MASTER).to_bytes(2, "little")
    master._queue.push(Packet(MemCmd.CONFIG_WRITE_REQ, addr, 2, data=value))
    sim.run()
    assert fn.memory_enabled and fn.bus_master_enabled
    assert master.responses[0].cmd is MemCmd.CONFIG_WRITE_RESP


# -- the bus-number memo ---------------------------------------------------


def _program(bridge, secondary, subordinate):
    """Reprogram a bridge's bus numbers straight into its config space,
    bypassing the host — as a model or test harness would."""
    bridge.config_write(hdr.SECONDARY_BUS, secondary, 1)
    bridge.config_write(hdr.SUBORDINATE_BUS, subordinate, 1)


def _reference_bus(host, bus):
    """The un-memoised structural walk, from the raw bus-number bytes."""
    cbus, number = host.root_bus, 0
    while bus != number:
        for __, bridge, child in cbus.bridges():
            secondary = bridge.config_read(hdr.SECONDARY_BUS, 1)
            subordinate = bridge.config_read(hdr.SUBORDINATE_BUS, 1)
            if secondary and secondary <= bus <= subordinate:
                cbus, number = child, secondary
                break
        else:
            return None
    return cbus


def test_direct_bridge_write_after_resolve_reroutes():
    sim = Simulator()
    host = PciHost(sim)
    left, right = PciBridgeFunction(1, 1), PciBridgeFunction(1, 2)
    nic, disk = PciEndpointFunction(1, 3), PciEndpointFunction(1, 4)
    host.root_bus.add_bridge(0, 0, left).add_function(0, 0, nic)
    host.root_bus.add_bridge(1, 0, right).add_function(0, 0, disk)
    _program(left, 1, 1)
    _program(right, 2, 2)
    assert host.function_at(1, 0) is nic and host.function_at(2, 0) is disk
    # Swap the two buses without going through the host.
    _program(left, 2, 2)
    _program(right, 1, 1)
    assert host.function_at(1, 0) is disk
    assert host.function_at(2, 0) is nic


def test_unreachable_bus_becomes_reachable_once_programmed():
    sim = Simulator()
    host = PciHost(sim)
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    nic = PciEndpointFunction(0x8086, 0x10D3)
    host.root_bus.add_bridge(0, 0, bridge).add_function(0, 0, nic)
    assert host.function_at(1, 0) is None
    host.config_write(0, 0, 0, hdr.SECONDARY_BUS, 1, 1)
    host.config_write(0, 0, 0, hdr.SUBORDINATE_BUS, 1, 1)
    assert host.function_at(1, 0) is nic


def test_growing_the_tree_after_resolve_is_seen():
    sim = Simulator()
    host = PciHost(sim)
    assert host.function_at(1, 0) is None
    # A bridge that arrives already programmed claims bus 1 at once.
    bridge = PciBridgeFunction(0x8086, 0x9C90)
    _program(bridge, 1, 1)
    child = host.root_bus.add_bridge(0, 0, bridge)
    nic = PciEndpointFunction(0x8086, 0x10D3)
    child.add_function(4, 0, nic)
    assert host.function_at(1, 4) is nic


def _memo_tree(host):
    """Bus 0 with two bridges; each child bus holds an endpoint at slot
    0 and a further bridge at slot 1 with an endpoint behind it."""
    bridges = []
    for device in range(2):
        bridge = PciBridgeFunction(0x8086, device)
        bus = host.root_bus.add_bridge(device, 0, bridge)
        bus.add_function(0, 0, PciEndpointFunction(0x8086, 0x100 + device))
        inner = PciBridgeFunction(0x8086, 0x10 + device)
        bus.add_bridge(1, 0, inner).add_function(
            0, 0, PciEndpointFunction(0x8086, 0x200 + device))
        bridges += [bridge, inner]
    return bridges


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6),
                          st.integers(0, 6)), min_size=1, max_size=12))
def test_memoised_resolve_equals_a_fresh_walk(programs):
    sim = Simulator()
    host = PciHost(sim)
    bridges = _memo_tree(host)
    reads = misses = 0
    for index, secondary, subordinate in programs:
        _program(bridges[index], secondary, subordinate)
        for bus in range(8):
            cbus = _reference_bus(host, bus)
            for device in range(2):
                want = None if cbus is None else cbus.function_at(device, 0)
                assert host.function_at(bus, device) is want
                host.config_read(bus, device, 0, hdr.VENDOR_ID, 2)
                reads += want is not None
                misses += want is None
    assert host.config_reads.value() == reads
    assert host.missed_accesses.value() == misses
