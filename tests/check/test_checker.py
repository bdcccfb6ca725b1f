"""Unit tests for the runtime invariant checker (repro.check).

Each protocol rule gets a positive test (a deliberately broken exchange
fires exactly that rule) and the legal variants around it stay silent.
Negative tests use ``record_only`` so one test can observe several
rules without the first raise aborting the exchange.
"""

import pytest

from repro.check import InvariantChecker, InvariantViolation
from repro.mem.packet import MemCmd, Packet
from repro.mem.port import MasterPort, PortError, SlavePort
from repro.obs.trace import MemorySink, Tracer
from repro.pcie.fc import CreditLedger
from repro.pcie.pkt import PciePacket
from repro.sim.eventq import call
from repro.sim.simobject import CHECK_ENV, SimObject, Simulator
from repro.system.spec import validation_spec
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload

from tests.pcie.test_link import build_dma_path


def make_pair(sim):
    master = MasterPort(SimObject(sim, "m"), "port")
    slave = SlavePort(SimObject(sim, "s"), "port")
    master.bind(slave)
    return master, slave


class FakeLinkIface:
    """Just enough link-interface surface for the checker's link rules."""

    full_name = "fake_link.if"

    def __init__(self):
        self.replay_buffer = []
        self.replay_buffer_size = 2
        self.send_seq = 0
        self.fc = CreditLedger(6, 6, 4)


def tlp(seq, addr=0x1000):
    pkt = Packet(MemCmd.WRITE_REQ, addr, 64, data=bytes(64))
    return PciePacket.for_tlp(pkt, seq)


# -- lifecycle ---------------------------------------------------------------


def test_checker_off_by_default(monkeypatch):
    monkeypatch.delenv(CHECK_ENV, raising=False)
    sim = Simulator()
    assert not sim.checker.enabled
    assert sim.checker.violations == []


def test_check_env_enables(monkeypatch):
    monkeypatch.setenv(CHECK_ENV, "on")
    assert Simulator().checker.enabled
    # An explicit knob always beats the environment.
    assert not Simulator(check=False).checker.enabled


def test_check_knob_enables_without_arming_the_tracer(monkeypatch):
    monkeypatch.delenv(CHECK_ENV, raising=False)
    sim = Simulator(check=True)
    assert sim.checker.enabled
    assert sim.tracer.enabled is False
    assert sim.tracer.sinks == []
    sim.checker.disable()
    assert not sim.checker.enabled
    # A checker-armed dd allocates no tracer TLP ids.
    system = build_system(validation_spec(root_link_width=1,
                                          device_link_width=1),
                          check=True)
    dd = DdWorkload(system.kernel, system.drivers["disk"], 4096,
                    startup_overhead=0)
    process = system.kernel.spawn("dd", dd.run())
    system.run()
    assert process.done
    assert system.sim.checker.violations == []
    assert system.sim.tracer.enabled is False
    assert system.sim.tracer._next_tlp_id == 0


def test_components_cache_the_checker():
    sim = Simulator(check=True)
    master, slave = make_pair(sim)
    assert master.checker is sim.checker
    assert slave.checker is sim.checker
    assert sim.eventq.checker is sim.checker


# -- event queue -------------------------------------------------------------


def probe():
    """A dispatch target whose label is its name."""


def test_time_monotonic_rule():
    sim = Simulator(check=True)
    sim.checker.record_only = True
    sim.checker.on_dispatch(10, 0, call, probe)
    sim.checker.on_dispatch(5, 0, call, probe)
    assert [v.rule for v in sim.checker.violations] == ["eventq.time_monotonic"]
    assert "'probe'" in sim.checker.violations[0].detail


def test_normal_run_is_monotonic_and_clean():
    sim = Simulator(check=True)
    fired = []
    sim.schedule_callback(10, lambda: fired.append(10))
    sim.schedule_callback(5, lambda: fired.append(5))
    sim.run()
    assert fired == [5, 10]
    assert sim.checker.violations == []


# -- timing-port protocol ----------------------------------------------------


def test_new_request_while_retry_owed_violates():
    sim = Simulator(check=True)
    master, slave = make_pair(sim)
    slave.recv_timing_req = lambda pkt: False
    master.recv_req_retry = lambda: None
    first = Packet(MemCmd.READ_REQ, 0x0, 4)
    assert not master.send_timing_req(first)
    with pytest.raises(InvariantViolation) as exc:
        master.send_timing_req(Packet(MemCmd.READ_REQ, 0x40, 4))
    assert exc.value.rule == "port.req_while_retry_owed"
    assert exc.value.component == master.full_name


def test_resending_the_refused_request_is_legal():
    sim = Simulator(check=True)
    master, slave = make_pair(sim)
    answers = [False, True]
    slave.recv_timing_req = lambda pkt: answers.pop(0)
    master.recv_req_retry = lambda: None
    first = Packet(MemCmd.READ_REQ, 0x0, 4)
    assert not master.send_timing_req(first)
    assert master.send_timing_req(first)  # the replay path does this
    assert sim.checker.violations == []


def test_retry_clears_the_pending_refusal():
    sim = Simulator(check=True)
    master, slave = make_pair(sim)
    answers = [False, True]
    slave.recv_timing_req = lambda pkt: answers.pop(0)
    master.recv_req_retry = lambda: None
    assert not master.send_timing_req(Packet(MemCmd.READ_REQ, 0x0, 4))
    slave.send_retry_req()
    # After the retry the master may choose a different packet.
    assert master.send_timing_req(Packet(MemCmd.READ_REQ, 0x40, 4))
    assert sim.checker.violations == []


def test_unrequested_response_violates_conservation():
    sim = Simulator(check=True)
    master, slave = make_pair(sim)
    master.recv_timing_resp = lambda pkt: True
    with pytest.raises(InvariantViolation) as exc:
        slave.send_timing_resp(Packet(MemCmd.READ_RESP, 0, 4))
    assert exc.value.rule == "port.resp_conservation"


def test_matched_response_is_legal_but_a_second_violates():
    sim = Simulator(check=True)
    master, slave = make_pair(sim)
    slave.recv_timing_req = lambda pkt: True
    master.recv_timing_resp = lambda pkt: True
    req = Packet(MemCmd.READ_REQ, 0x10, 4)
    assert master.send_timing_req(req)
    assert slave.send_timing_resp(req.make_response())
    assert sim.checker.violations == []
    with pytest.raises(InvariantViolation) as exc:
        slave.send_timing_resp(req.make_response())
    assert exc.value.rule == "port.resp_conservation"


def test_double_retry_rules_fire_in_both_directions():
    sim = Simulator(check=True)
    sim.checker.record_only = True
    master, slave = make_pair(sim)
    with pytest.raises(PortError):
        slave.send_retry_req()
    with pytest.raises(PortError):
        master.send_retry_resp()
    assert [v.rule for v in sim.checker.violations] == [
        "port.double_retry", "port.double_retry"]


# -- link layer --------------------------------------------------------------


def test_send_seq_must_increase_by_one():
    sim = Simulator(check=True)
    sim.checker.record_only = True
    iface = FakeLinkIface()
    sim.checker.link_tlp_queued(iface, tlp(0))
    sim.checker.link_tlp_queued(iface, tlp(2))  # skipped seq 1
    assert [v.rule for v in sim.checker.violations] == ["link.send_seq"]


def test_replay_buffer_overflow_rule():
    sim = Simulator(check=True)
    sim.checker.record_only = True
    iface = FakeLinkIface()
    iface.replay_buffer = [tlp(0), tlp(1), tlp(2)]  # size is 2
    sim.checker.link_tlp_queued(iface, tlp(0))
    assert "link.replay_buffer_overflow" in [
        v.rule for v in sim.checker.violations]


def test_recv_seq_must_advance_by_one():
    sim = Simulator(check=True)
    sim.checker.record_only = True
    iface = FakeLinkIface()
    sim.checker.link_tlp_delivered(iface, tlp(0))
    sim.checker.link_tlp_delivered(iface, tlp(3))  # skipped 1 and 2
    assert [v.rule for v in sim.checker.violations] == ["link.recv_seq"]


def test_forged_ack_for_unsent_tlp_violates():
    sim = Simulator(check=True)
    link, device, memory = build_dma_path(sim)
    tx = link.downstream_if
    assert tx.send_seq == 0
    with pytest.raises(InvariantViolation) as exc:
        tx._receive_dllp(PciePacket.ack(7))
    assert exc.value.rule == "link.ack_unsent_seq"


def test_replay_deadlock_flagged_at_quiescence():
    sim = Simulator(check=True)
    sim.checker.record_only = True
    link, device, memory = build_dma_path(sim)
    # A TLP stranded in the replay buffer with no replay timer armed can
    # never drain: exactly the wedge the watchdog exists to catch.
    link.downstream_if.replay_buffer.append(tlp(0))
    sim.run()
    assert "link.replay_deadlock" in [v.rule for v in sim.checker.violations]


def test_stuck_input_queue_flagged_at_quiescence():
    sim = Simulator(check=True)
    sim.checker.record_only = True
    link, device, memory = build_dma_path(sim)
    link.downstream_if._in_req.append(Packet(MemCmd.READ_REQ, 0, 4))
    sim.run()
    assert "link.stuck_input_queue" in [v.rule for v in sim.checker.violations]


def test_clean_link_traffic_reports_no_violations():
    sim = Simulator(check=True)
    link, device, memory = build_dma_path(sim)
    for i in range(8):
        device.write(0x80000000 + i * 64, 64)
    sim.run()
    assert len(memory.requests) == 8
    assert sim.checker.violations == []


# -- violation objects -------------------------------------------------------


def test_violation_carries_trace_context():
    sim = Simulator(check=True)
    link, device, memory = build_dma_path(sim)
    device.write(0x80000000, 64)
    sim.run()
    with pytest.raises(InvariantViolation) as exc:
        link.downstream_if._receive_dllp(PciePacket.ack(99))
    # The ring captured the dispatches that preceded the violation.
    assert exc.value.context
    assert "link.ack_unsent_seq" in str(exc.value)
    assert "last" in str(exc.value)  # the rendered context header


def test_violation_context_equals_the_traced_dispatch_tail():
    sim = Simulator(tracer=Tracer(categories={"eventq"}), check=True)
    sink = sim.tracer.attach(MemorySink())
    link, device, memory = build_dma_path(sim)
    for i in range(8):  # enough dispatches to wrap the ring
        device.write(0x80000000 + i * 64, 64)
    sim.run()
    with pytest.raises(InvariantViolation) as exc:
        link.downstream_if._receive_dllp(PciePacket.ack(99))
    assert len(sink.events) > sim.checker.context_events
    assert exc.value.context == sink.events[-sim.checker.context_events:]


def test_zero_context_events_records_nothing():
    sim = Simulator()  # it owns the checker's ring; keep it
    checker = InvariantChecker(sim, context_events=0,
                               record_only=True).enable()
    checker.on_dispatch(10, 0, call, probe)
    checker.on_dispatch(5, 0, call, probe)
    assert checker.recent_events() == []
    assert [v.context for v in checker.violations] == [[]]


def test_record_only_collects_instead_of_raising():
    sim = Simulator(check=True)
    sim.checker.record_only = True
    link, device, memory = build_dma_path(sim)
    link.downstream_if._receive_dllp(PciePacket.ack(99))
    assert len(sim.checker.violations) == 1
    assert sim.checker.violations[0].rule == "link.ack_unsent_seq"


def test_violation_str_renders_fields():
    v = InvariantViolation(
        rule="demo.rule", component="sys.link", tick=42, detail="boom",
        context=[{"t": 41, "cat": "link", "comp": "sys.link",
                  "ev": "tlp_tx", "seq": 3}],
    )
    text = str(v)
    assert "demo.rule" in text
    assert "sys.link" in text
    assert "tick 42" in text
    assert "boom" in text
    assert "seq" in text
