"""Unit tests for the PCI-Express switch."""

import pytest

from repro.mem.addr import AddrRange
from repro.pci import header as hdr
from repro.pci.capabilities import CAP_ID_PCIE, PciePortType
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import SpecError, SwitchSpec

from tests.mem.helpers import FakeMaster, FakeSlave
from tests.pcie.helpers import make_root_complex, make_switch

UP_WINDOW = AddrRange(0x40000000, 0x200000)
DOWN_WINDOW_0 = AddrRange(0x40000000, 0x100000)
DOWN_WINDOW_1 = AddrRange(0x40100000, 0x100000)


def program(vp2p, window, primary, secondary, subordinate):
    vp2p.set_memory_window(window)
    vp2p.config_write(hdr.PRIMARY_BUS, primary, 1)
    vp2p.config_write(hdr.SECONDARY_BUS, secondary, 1)
    vp2p.config_write(hdr.SUBORDINATE_BUS, subordinate, 1)
    vp2p.config_write(hdr.COMMAND, hdr.CMD_MEM_SPACE | hdr.CMD_BUS_MASTER, 2)


def build(sim, **kwargs):
    """Switch with an RC-stand-in upstream and a device per downstream
    port.  Bus numbering mirrors the paper's topology: upstream VP2P
    sec=2, downstream VP2Ps on buses 3 and 4."""
    switch = make_switch(sim, 2, **kwargs)
    rc_down = FakeMaster(sim, "rc_requests")  # CPU requests into the switch
    rc_up = FakeSlave(sim, "rc_memory", latency=ticks.from_ns(30))  # DMA sink
    rc_down.port.bind(switch.upstream_slave)
    switch.upstream_master.bind(rc_up.port)
    devices = []
    for i, port in enumerate(switch.downstream_ports):
        pio = FakeSlave(sim, f"dev{i}_pio", latency=ticks.from_ns(20))
        dma = FakeMaster(sim, f"dev{i}_dma")
        port.master_port.bind(pio.port)
        dma.port.bind(port.slave_port)
        devices.append((pio, dma))
    program(switch.upstream_vp2p, UP_WINDOW, 1, 2, 4)
    program(switch.downstream_ports[0].vp2p, DOWN_WINDOW_0, 2, 3, 3)
    program(switch.downstream_ports[1].vp2p, DOWN_WINDOW_1, 2, 4, 4)
    return switch, rc_down, rc_up, devices


def test_port_roles_in_capabilities():
    sim = Simulator()
    switch = make_switch(sim, 3)
    assert switch.upstream_vp2p.port_type is PciePortType.UPSTREAM_SWITCH_PORT
    assert all(
        p.vp2p.port_type is PciePortType.DOWNSTREAM_SWITCH_PORT
        for p in switch.downstream_ports
    )
    assert switch.upstream_vp2p.find_capability(CAP_ID_PCIE) == 0xD8


def test_needs_a_downstream_port():
    with pytest.raises(SpecError, match="num_ports"):
        SwitchSpec(num_ports=0).validate()


def test_upstream_claims_only_upstream_vp2p_window():
    sim = Simulator()
    switch, *_ = build(sim)
    assert switch.upstream_slave.get_ranges() == [UP_WINDOW]


def test_requests_route_to_correct_downstream_port():
    sim = Simulator()
    switch, rc_down, rc_up, devices = build(sim)
    rc_down.read(DOWN_WINDOW_0.start + 4, 4)
    rc_down.read(DOWN_WINDOW_1.start + 8, 4)
    sim.run()
    assert len(devices[0][0].requests) == 1
    assert len(devices[1][0].requests) == 1
    assert len(rc_down.responses) == 2


def test_dma_goes_upstream_with_stamped_bus():
    sim = Simulator()
    switch, rc_down, rc_up, devices = build(sim)
    devices[0][1].write(0x80000000, 64)
    sim.run()
    assert len(rc_up.requests) == 1
    assert rc_up.requests[0].pci_bus_num == 3
    assert len(devices[0][1].responses) == 1


def test_response_with_foreign_bus_goes_upstream():
    sim = Simulator()
    switch, rc_down, rc_up, devices = build(sim)
    # The request arrives unstamped (no root complex in this rig), so
    # the switch's upstream slave stamps the upstream VP2P's primary
    # bus (1).  Bus 1 is in no downstream VP2P [secondary, subordinate]
    # range, so the response must exit upstream.
    rc_down.read(DOWN_WINDOW_0.start, 4)
    sim.run()
    assert len(rc_down.responses) == 1
    assert rc_down.responses[0].pci_bus_num == 1


def test_peer_to_peer_between_downstream_ports():
    sim = Simulator()
    switch, rc_down, rc_up, devices = build(sim)
    devices[0][1].write(DOWN_WINDOW_1.start + 0x10, 64)
    sim.run()
    assert len(devices[1][0].requests) == 1
    assert rc_up.requests == []
    assert len(devices[0][1].responses) == 1


def test_store_and_forward_latency():
    sim = Simulator()
    switch, rc_down, rc_up, devices = build(sim, latency=ticks.from_ns(150),
                                            service_interval=0)
    rc_down.read(DOWN_WINDOW_0.start, 4)
    sim.run()
    assert rc_down.response_ticks[0] == ticks.from_ns(150 + 20 + 150)


def test_vp2ps_lists_upstream_first():
    sim = Simulator()
    switch = make_switch(sim, 2)
    assert switch.vp2ps[0] is switch.upstream_vp2p
    assert len(switch.vp2ps) == 3


def test_register_with_host_nested_tree():
    from repro.pci.host import PciHost
    sim = Simulator()
    host = PciHost(sim)
    rc = make_root_complex(sim, 1)
    (rp_bus,) = rc.register_with_host(host)
    switch = make_switch(sim, 2)
    down_buses = switch.register_with_host(rp_bus, device=0)
    assert len(down_buses) == 2
    # Program bus numbers so config cycles route: rp sec=1, up sec=2.
    host.config_write(0, 0, 0, hdr.SECONDARY_BUS, 1, 1)
    host.config_write(0, 0, 0, hdr.SUBORDINATE_BUS, 4, 1)
    host.config_write(1, 0, 0, hdr.SECONDARY_BUS, 2, 1)
    host.config_write(1, 0, 0, hdr.SUBORDINATE_BUS, 4, 1)
    # The downstream VP2Ps appear as devices 0 and 1 on bus 2.
    assert host.config_read(2, 0, 0, hdr.VENDOR_ID, 2) == 0x10B5
    assert host.config_read(2, 1, 0, hdr.VENDOR_ID, 2) == 0x10B5
    assert host.config_read(2, 2, 0, hdr.VENDOR_ID, 2) == 0xFFFF
