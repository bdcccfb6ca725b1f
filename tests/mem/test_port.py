"""Unit tests for ports, the retry protocol, and PacketQueue."""

import pytest

from repro.mem.packet import MemCmd, Packet
from repro.mem.port import MasterPort, PacketQueue, PortError, SlavePort
from repro.sim.simobject import SimObject, Simulator

from tests.mem.helpers import FakeMaster, FakeSlave


def make_pair(sim):
    owner_m = SimObject(sim, "m")
    owner_s = SimObject(sim, "s")
    master = MasterPort(owner_m, "port")
    slave = SlavePort(owner_s, "port")
    master.bind(slave)
    return master, slave


def test_bind_is_symmetric():
    sim = Simulator()
    master, slave = make_pair(sim)
    # A peer is a weak proxy: == compares the port it stands for.
    assert master.peer == slave
    assert slave.peer == master
    assert master.bound and slave.bound


def test_double_bind_raises():
    sim = Simulator()
    master, slave = make_pair(sim)
    other = MasterPort(SimObject(sim, "o"), "port")
    with pytest.raises(PortError):
        other.bind(slave)


def test_bind_type_checked():
    sim = Simulator()
    master = MasterPort(SimObject(sim, "m"), "port")
    with pytest.raises(TypeError):
        master.bind(master)


def test_unbound_send_raises():
    sim = Simulator()
    master = MasterPort(SimObject(sim, "m"), "port")
    with pytest.raises(PortError):
        master.send_timing_req(Packet(MemCmd.READ_REQ, 0, 4))


def test_send_req_delivers_to_handler():
    sim = Simulator()
    master, slave = make_pair(sim)
    got = []
    slave.recv_timing_req = lambda pkt: (got.append(pkt), True)[1]
    pkt = Packet(MemCmd.READ_REQ, 0x10, 4)
    assert master.send_timing_req(pkt)
    assert got == [pkt]


def test_response_through_wrong_direction_raises():
    sim = Simulator()
    master, slave = make_pair(sim)
    with pytest.raises(PortError):
        master.send_timing_req(Packet(MemCmd.READ_RESP, 0, 4))
    with pytest.raises(PortError):
        slave.send_timing_resp(Packet(MemCmd.READ_REQ, 0, 4))


def test_refusal_marks_retry_owed():
    sim = Simulator()
    master, slave = make_pair(sim)
    slave.recv_timing_req = lambda pkt: False
    master.recv_req_retry = lambda: None
    assert not master.send_timing_req(Packet(MemCmd.READ_REQ, 0, 4))
    assert master.waiting_for_req_retry
    assert slave.retry_owed
    slave.send_retry_req()
    assert not slave.retry_owed
    assert not master.waiting_for_req_retry


def test_retry_without_refusal_raises():
    # With the invariant checker enabled (REPRO_CHECK=on) the same
    # illegal double retry surfaces as an InvariantViolation before the
    # port machinery can raise its PortError; both are correct.
    from repro.check import InvariantViolation

    sim = Simulator()
    master, slave = make_pair(sim)
    with pytest.raises((PortError, InvariantViolation)):
        slave.send_retry_req()
    with pytest.raises((PortError, InvariantViolation)):
        master.send_retry_resp()


def test_resp_retry_owed_property_mirrors_state():
    # Public mirror of SlavePort.retry_owed for the response direction:
    # owners (the link interface) must never reach into the private
    # _resp_retry_owed attribute.
    sim = Simulator()
    master, slave = make_pair(sim)
    master.recv_timing_resp = lambda pkt: False
    slave.recv_timing_req = lambda pkt: True
    slave.recv_resp_retry = lambda: None
    req = Packet(MemCmd.READ_REQ, 0x10, 4)
    assert master.send_timing_req(req)
    assert not master.resp_retry_owed
    assert not slave.send_timing_resp(req.make_response())
    assert master.resp_retry_owed
    master.send_retry_resp()
    assert not master.resp_retry_owed


def test_unwired_handler_raises():
    sim = Simulator()
    master, slave = make_pair(sim)
    with pytest.raises(PortError):
        master.send_timing_req(Packet(MemCmd.READ_REQ, 0, 4))


def test_master_slave_round_trip():
    sim = Simulator()
    master = FakeMaster(sim)
    slave = FakeSlave(sim, latency=100)
    master.port.bind(slave.port)
    master.read(0x1000, 64)
    sim.run()
    assert len(slave.requests) == 1
    assert len(master.responses) == 1
    assert master.responses[0].cmd is MemCmd.READ_RESP
    assert master.response_ticks[0] == 100


def test_backpressure_via_retry():
    sim = Simulator()
    master = FakeMaster(sim)
    slave = FakeSlave(sim, latency=100, max_outstanding=2)
    master.port.bind(slave.port)
    for i in range(6):
        master.read(0x1000 + i * 64, 64)
    sim.run()
    # All six eventually complete despite the 2-entry bound.
    assert len(master.responses) == 6
    # They complete in waves of two per 100-tick service window.
    assert master.response_ticks == [100, 100, 200, 200, 300, 300]


def test_slave_ranges():
    sim = Simulator()
    from repro.mem.addr import AddrRange

    slave = SlavePort(SimObject(sim, "s"), "port", ranges=[AddrRange(0x0, 0x100)])
    assert slave.get_ranges() == [AddrRange(0x0, 0x100)]
    slave.set_ranges([AddrRange(0x200, 0x100)])
    assert slave.get_ranges() == [AddrRange(0x200, 0x100)]


# --- PacketQueue --------------------------------------------------------------


def test_packet_queue_capacity():
    sim = Simulator()
    owner = SimObject(sim, "o")
    q = PacketQueue(owner, "q", lambda pkt: True, capacity=2)
    assert q.push(Packet(MemCmd.READ_REQ, 0, 4))
    assert q.push(Packet(MemCmd.READ_REQ, 4, 4))
    # Third push while nothing drained yet this tick... drain happens via
    # events, so both are still queued.
    assert q.full
    assert not q.push(Packet(MemCmd.READ_REQ, 8, 4))
    assert q.refused.value() == 1


def test_packet_queue_capacity_validated():
    sim = Simulator()
    owner = SimObject(sim, "o")
    with pytest.raises(ValueError):
        PacketQueue(owner, "q", lambda pkt: True, capacity=0)


def test_packet_queue_honours_ready_delay():
    sim = Simulator()
    owner = SimObject(sim, "o")
    sent = []
    q = PacketQueue(owner, "q", lambda pkt: (sent.append(sim.curtick), True)[1], 8)
    q.push(Packet(MemCmd.READ_REQ, 0, 4), delay=50)
    q.push(Packet(MemCmd.READ_REQ, 4, 4), delay=10)
    sim.run()
    # FIFO: the second packet cannot pass the first even though its own
    # ready time is earlier.
    assert sent == [50, 50]


def test_packet_queue_waits_for_retry():
    sim = Simulator()
    owner = SimObject(sim, "o")
    accept = {"ok": False}
    sent = []

    def send(pkt):
        if accept["ok"]:
            sent.append(pkt)
            return True
        return False

    q = PacketQueue(owner, "q", send, 8)
    q.push(Packet(MemCmd.READ_REQ, 0, 4))
    sim.run()
    assert sent == []
    accept["ok"] = True
    q.retry()
    sim.run()
    assert len(sent) == 1


def test_packet_queue_space_freed_callback():
    sim = Simulator()
    owner = SimObject(sim, "o")
    freed = []
    q = PacketQueue(owner, "q", lambda pkt: True, 4)
    q.on_space_freed = lambda: freed.append(sim.curtick)
    q.push(Packet(MemCmd.READ_REQ, 0, 4), delay=10)
    sim.run()
    assert freed == [10]


def test_packet_queue_reentrant_push_schedules_one_drain():
    # send_fn pushes while _drain is running (an engine handing the
    # packet straight to another queue entry does this).  The push
    # re-arms the drain; when the loop then meets a not-yet-ready head
    # it must see that and not schedule a second drain.
    sim = Simulator()
    owner = SimObject(sim, "o")
    sent = []

    def send(pkt):
        sent.append((sim.curtick, pkt.addr))
        if pkt.addr == 0:
            assert q.push(Packet(MemCmd.READ_REQ, 8, 4))
        return True

    q = PacketQueue(owner, "q", send, 8)
    q.push(Packet(MemCmd.READ_REQ, 0, 4))
    q.push(Packet(MemCmd.READ_REQ, 4, 4), delay=100)
    assert sim.eventq.service_one()  # the first drain: sends addr 0 only
    assert sent == [(0, 0)]
    assert q._drain_scheduled
    assert len(sim.eventq) == 1
    sim.run()
    assert sent == [(0, 0), (100, 4), (100, 8)]
    assert sim.eventq.empty() and not q._drain_scheduled
