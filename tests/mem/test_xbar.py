"""Unit tests for the crossbars."""

import pytest

from repro.mem.addr import AddrRange
from repro.mem.packet import MemCmd, Packet
from repro.mem.port import PortError
from repro.mem.xbar import CoherentXBar, NoncoherentXBar
from repro.sim.simobject import Simulator

from tests.mem.helpers import FakeMaster, FakeSlave


def build_xbar(sim, n_slaves=2, **kwargs):
    xbar = NoncoherentXBar(sim, "iobus", **kwargs)
    master = FakeMaster(sim)
    master.port.bind(xbar.attach_master("cpu"))
    slaves = []
    for i in range(n_slaves):
        slave = FakeSlave(
            sim,
            f"dev{i}",
            ranges=[AddrRange(0x1000 * (i + 1), 0x1000)],
            latency=100,
        )
        slave.port.bind(xbar.attach_slave(f"dev{i}_side"))
        slaves.append(slave)
    return xbar, master, slaves


def test_routes_by_address_range():
    sim = Simulator()
    xbar, master, (dev0, dev1) = build_xbar(sim)
    master.read(0x1100, 64)
    master.read(0x2100, 64)
    sim.run()
    assert len(dev0.requests) == 1 and dev0.requests[0].addr == 0x1100
    assert len(dev1.requests) == 1 and dev1.requests[0].addr == 0x2100
    assert len(master.responses) == 2


def test_unclaimed_address_raises_without_default():
    sim = Simulator()
    xbar, master, _ = build_xbar(sim)
    master.read(0xDEAD0000, 64)
    with pytest.raises(PortError):
        sim.run()


def test_default_port_catches_unclaimed():
    sim = Simulator()
    xbar = NoncoherentXBar(sim, "bus")
    master = FakeMaster(sim)
    master.port.bind(xbar.attach_master("cpu"))
    dev = FakeSlave(sim, "dev", ranges=[AddrRange(0x1000, 0x1000)])
    dev.port.bind(xbar.attach_slave("dev_side"))
    catchall = FakeSlave(sim, "mem", ranges=[])
    default_port = xbar.attach_slave("mem_side")
    catchall.port.bind(default_port)
    xbar.set_default_port(default_port)
    master.read(0xDEAD0000, 64)
    sim.run()
    assert len(catchall.requests) == 1


def test_default_port_must_belong_to_xbar():
    sim = Simulator()
    xbar_a = NoncoherentXBar(sim, "a")
    xbar_b = NoncoherentXBar(sim, "b")
    foreign = xbar_b.attach_slave("x")
    with pytest.raises(ValueError):
        xbar_a.set_default_port(foreign)


def test_port_names_are_unique_per_direction():
    # The layer horizons are keyed by port name.
    sim = Simulator()
    xbar = NoncoherentXBar(sim, "bus")
    xbar.attach_slave("x")
    xbar.attach_master("x")
    with pytest.raises(ValueError):
        xbar.attach_slave("x")
    with pytest.raises(ValueError):
        xbar.attach_master("x")


def test_responses_return_to_originating_port():
    sim = Simulator()
    xbar = NoncoherentXBar(sim, "bus")
    masters = []
    for i in range(2):
        m = FakeMaster(sim, f"m{i}")
        m.port.bind(xbar.attach_master(f"cpu{i}"))
        masters.append(m)
    dev = FakeSlave(sim, "dev", ranges=[AddrRange(0x1000, 0x1000)])
    dev.port.bind(xbar.attach_slave("dev_side"))
    masters[0].read(0x1000, 64)
    masters[1].read(0x1040, 64)
    sim.run()
    assert len(masters[0].responses) == 1
    assert len(masters[1].responses) == 1
    assert masters[0].responses[0].addr == 0x1000
    assert masters[1].responses[0].addr == 0x1040
    assert xbar.outstanding_responses == 0


def test_latency_applied():
    sim = Simulator()
    xbar, master, (dev0, _) = build_xbar(sim)
    master.read(0x1000, 64)
    sim.run()
    # Request path: frontend + serialization + forward; read request has
    # no payload so serialization is 0 ticks.
    expected_req_arrival = xbar.frontend_latency + xbar.forward_latency
    assert dev0.request_ticks[0] == expected_req_arrival
    # Response carries 64B payload: ceil(64/16)=4 ticks serialization.
    expected_resp = expected_req_arrival + 100 + xbar.frontend_latency + 4 + xbar.forward_latency
    assert master.response_ticks[0] == expected_resp


def test_serialization_spaces_back_to_back_packets():
    sim = Simulator()
    xbar = NoncoherentXBar(sim, "bus", frontend_latency=10, forward_latency=0, width=1)
    master = FakeMaster(sim)
    master.port.bind(xbar.attach_master("cpu"))
    dev = FakeSlave(sim, "dev", ranges=[AddrRange(0x0, 0x10000)], latency=0)
    dev.port.bind(xbar.attach_slave("dev_side"))
    master.write(0x0, 64)
    master.write(0x40, 64)
    sim.run()
    # Each write occupies the layer for 10 + 64 ticks.
    assert dev.request_ticks == [74, 148]


def test_posted_message_routes_without_response():
    sim = Simulator()
    xbar, master, (dev0, _) = build_xbar(sim)
    msg = Packet(MemCmd.MESSAGE, 0x1000, 4, data=bytes(4))
    master._queue.push(msg)
    sim.run()
    assert len(dev0.requests) == 1
    assert master.responses == []
    assert xbar.outstanding_responses == 0


def test_stats_count_packets():
    sim = Simulator()
    xbar, master, _ = build_xbar(sim)
    master.write(0x1000, 64)
    sim.run()
    assert xbar.pkt_count.value() == 2  # request + response
    assert xbar.bytes_moved.value() == 64  # only the write carries payload


def test_coherent_xbar_behaves_like_noncoherent():
    sim = Simulator()
    xbar = CoherentXBar(sim, "membus")
    master = FakeMaster(sim)
    master.port.bind(xbar.attach_master("cpu"))
    dev = FakeSlave(sim, "mem", ranges=[AddrRange(0x0, 0x10000)])
    dev.port.bind(xbar.attach_slave("mem_side"))
    master.read(0x40, 64)
    sim.run()
    assert len(master.responses) == 1


def test_many_requests_through_small_queues_all_complete():
    sim = Simulator()
    xbar = NoncoherentXBar(sim, "bus", queue_depth=2)
    master = FakeMaster(sim)
    master.port.bind(xbar.attach_master("cpu"))
    dev = FakeSlave(sim, "dev", ranges=[AddrRange(0x0, 0x100000)], latency=500,
                    max_outstanding=1)
    dev.port.bind(xbar.attach_slave("dev_side"))
    for i in range(20):
        master.read(i * 64, 64)
    sim.run(max_events=100_000)
    assert len(master.responses) == 20
