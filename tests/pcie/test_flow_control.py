"""Unit and behaviour tests for per-class credit flow control.

Covers the three layers of the credit machinery: TLP classification
(posted / non-posted / completion follows the wire format), the
:class:`~repro.pcie.fc.CreditLedger` arithmetic (advertise / consume /
return, cumulative limits), and the link-level behaviour built on top
— credit-gated transmission, UpdateFC return DLLPs, starvation stall
clocks, and the FC watchdog that heals lost UpdateFCs.
"""

import pytest

from repro.mem.packet import FLOW_CPL, FLOW_NP, FLOW_P, MemCmd, Packet
from repro.pcie.fc import ALL_CLASSES, CreditLedger, FlowClass
from repro.pcie.link import PcieLink
from repro.pcie.pkt import FLOW_CLASS_FOR_DLLP, DllpType, PciePacket
from repro.pcie.timing import PcieGen, fc_watchdog_ticks
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import LinkSpec, SpecError

from tests.pcie.test_link import build_dma_path


# -- classification ----------------------------------------------------------


def test_tlp_classification_follows_wire_format():
    expected = {
        MemCmd.READ_REQ: FLOW_NP,
        MemCmd.WRITE_REQ: FLOW_P,
        MemCmd.CONFIG_READ_REQ: FLOW_NP,
        MemCmd.CONFIG_WRITE_REQ: FLOW_NP,
        MemCmd.MESSAGE: FLOW_P,
    }
    for cmd, flow in expected.items():
        assert Packet(cmd, 0x1000, 4).flow_class == flow, cmd


def test_every_response_is_completion_class_and_nothing_else():
    for cmd in MemCmd:
        pkt = Packet(cmd, 0x1000, 4)
        assert (pkt.flow_class == FLOW_CPL) == pkt.is_response, cmd


def test_flowclass_enum_mirrors_packet_constants():
    assert FlowClass.P == FLOW_P
    assert FlowClass.NP == FLOW_NP
    assert FlowClass.CPL == FLOW_CPL
    assert [c.label for c in ALL_CLASSES] == ["p", "np", "cpl"]


def test_pcie_packet_exposes_flow_class():
    ppkt = PciePacket.for_tlp(Packet(MemCmd.READ_REQ, 0x1000, 4), seq=0)
    assert ppkt.flow_class is FlowClass.NP


def test_updatefc_dllp_carries_class_and_limit():
    for cls in ALL_CLASSES:
        ppkt = PciePacket.update_fc(cls, 17)
        assert ppkt.is_dllp
        assert FLOW_CLASS_FOR_DLLP[ppkt.dllp_type] == cls
        assert ppkt.seq == 17


# -- ledger arithmetic -------------------------------------------------------


def test_ledger_requires_at_least_one_credit_per_class():
    # The ledger's capacities come from the link's record, which is the
    # only place they are range-checked.
    for field in ("p_credits", "cpl_credits"):
        with pytest.raises(SpecError, match=field):
            LinkSpec(**{field: 0}).validate()


def test_consume_reduces_headroom_until_advertised():
    fc = CreditLedger(2, 2, 2)
    assert fc.tx_headroom(FLOW_P) == 0  # nothing advertised yet
    assert not fc.try_consume(FLOW_P)
    assert fc.advertise(FLOW_P, 2)
    assert fc.tx_headroom(FLOW_P) == 2
    assert fc.try_consume(FLOW_P)
    assert fc.try_consume(FLOW_P)
    assert fc.tx_headroom(FLOW_P) == 0
    assert not fc.try_consume(FLOW_P), "no headroom: nothing spent"
    assert fc.tx_consumed[FLOW_P] == 2
    # Classes are independent: NP and CPL were never touched.
    assert fc.tx_headroom(FLOW_NP) == 0
    fc.advertise(FLOW_NP, 2)
    assert fc.tx_headroom(FLOW_NP) == 2


def test_advertise_is_monotone_cumulative():
    fc = CreditLedger(4, 4, 4)
    assert fc.advertise(FLOW_NP, 4)
    assert not fc.advertise(FLOW_NP, 4)  # same limit: no new credits
    assert not fc.advertise(FLOW_NP, 2)  # regression: ignored
    assert fc.tx_headroom(FLOW_NP) == 4
    assert fc.advertise(FLOW_NP, 7)
    assert fc.tx_headroom(FLOW_NP) == 7


def test_rx_accept_and_drain_move_the_advertised_limit():
    fc = CreditLedger(3, 3, 3)
    assert fc.rx_limit(FLOW_CPL) == 3
    fc.rx_accept(FLOW_CPL)
    fc.rx_accept(FLOW_CPL)
    assert fc.rx_held[FLOW_CPL] == 2
    assert fc.rx_limit(FLOW_CPL) == 3  # limit moves on drain, not accept
    assert fc.rx_drain(FLOW_CPL) == 4  # returns the new limit
    assert fc.rx_held[FLOW_CPL] == 1
    assert fc.rx_drained[FLOW_CPL] == 1
    assert fc.rx_limit(FLOW_CPL) == 4  # capacity + drained


def test_stall_clock_accumulates_per_class():
    fc = CreditLedger(1, 1, 1)
    fc.stall_begin(FLOW_NP, 100)
    fc.stall_begin(FLOW_NP, 150)  # idempotent: first begin wins
    assert fc.stalled(FLOW_NP)
    fc.stall_end(FLOW_NP, 300)
    assert not fc.stalled(FLOW_NP)
    assert fc.stall_ticks[FLOW_NP] == 200
    assert fc.stall_ticks[FLOW_P] == 0
    fc.stall_end(FLOW_NP, 400)  # no stall in progress: no-op
    assert fc.stall_ticks[FLOW_NP] == 200


# -- link integration --------------------------------------------------------


def test_link_advertises_initial_credits_at_link_up():
    sim = Simulator()
    link = PcieLink.from_spec(sim, "link", LinkSpec(
        p_credits=5, np_credits=3, cpl_credits=2))
    for iface in (link.upstream_if, link.downstream_if):
        assert iface.fc.tx_headroom(FLOW_P) == 5
        assert iface.fc.tx_headroom(FLOW_NP) == 3
        assert iface.fc.tx_headroom(FLOW_CPL) == 2


def test_link_rejects_zero_credit_classes():
    with pytest.raises(SpecError, match="np_credits"):
        LinkSpec(np_credits=0).validate()


def test_credits_consumed_and_returned_over_traffic():
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    for i in range(8):
        device.write(0x80000000 + i * 64, 64)
    sim.run()
    assert len(device.responses) == 8
    for iface in (link.upstream_if, link.downstream_if):
        fc = iface.fc
        for cls in ALL_CLASSES:
            # Quiescence: every consumed credit came back.
            assert fc.tx_headroom(cls) == iface.peer.fc.rx_capacity[cls]
            # And the peer's books agree with ours.
            assert fc.tx_consumed[cls] == (iface.peer.fc.rx_drained[cls]
                                           + iface.peer.fc.rx_held[cls])
    assert link.downstream_if.fc_updates_received.value() > 0
    assert link.upstream_if.fc_updates_sent.value() > 0


def test_single_np_credit_serializes_reads_but_everything_completes():
    sim = Simulator()
    link, device, memory = build_dma_path(sim, np_credits=1)
    n = 6
    for i in range(n):
        device.read(0x80000000 + i * 64, 64)
    sim.run()
    assert len(device.responses) == n
    tx = link.downstream_if
    # The transmitter stalled on NP credits (only one read in flight at
    # a time) but never on completions, and never fell back to replays.
    assert tx.fc.stall_ticks[FLOW_NP] > 0
    assert tx.peer.fc.stall_ticks[FLOW_CPL] == 0
    assert tx.tlp_replays.value() == 0


def test_np_saturation_leaves_completions_reachable():
    # The former-livelock shape in miniature: a deep pipeline of DMA
    # reads saturates the NP credit pool while their completions stream
    # back against the NP flood on the other interface.  Completions
    # have dedicated credits, so the pileup can't starve them.
    sim = Simulator()
    link, device, memory = build_dma_path(
        sim, np_credits=2, device_kwargs={"max_outstanding": 64}
    )
    n = 32
    for i in range(n):
        device.read(0x80000000 + i * 64, 64)
    sim.run(max_events=2_000_000)
    assert len(device.responses) == n
    tx = link.downstream_if
    rx = link.upstream_if
    assert tx.fc.stall_ticks[FLOW_NP] > 0  # the storm did starve NP
    assert rx.fc.stall_ticks[FLOW_CPL] == 0  # completions never stalled
    assert tx.timeouts.value() == 0


def test_fc_stall_stats_exported_per_class():
    sim = Simulator()
    link, device, memory = build_dma_path(sim, np_credits=1)
    for i in range(4):
        device.read(0x80000000 + i * 64, 64)
    sim.run()
    stats = sim.dump_stats()
    np_key = [k for k in stats if k.endswith("down_if.fc_stall_ticks_np")]
    assert np_key and stats[np_key[0]] > 0
    for label in ("p", "cpl"):
        key = [k for k in stats
               if k.endswith(f"down_if.fc_stall_ticks_{label}")]
        assert key and stats[key[0]] == 0


def test_watchdog_defaults_to_twice_replay_timeout():
    sim = Simulator()
    link = PcieLink.from_spec(sim, "link", LinkSpec(gen="GEN3", width=4))
    expected = fc_watchdog_ticks(PcieGen.GEN3, 4, link.max_payload)
    assert link.fc_watchdog == expected
    assert link.config_dict()["fc_watchdog"] == expected


def test_watchdog_heals_corrupted_updatefc():
    # DLLP corruption can eat the UpdateFC that returns the last
    # credit; with one posted credit the transmitter is then starved
    # forever unless the watchdog re-advertises.  The error seed is
    # chosen so at least one UpdateFC dies in flight.
    sim = Simulator()
    link, device, memory = build_dma_path(
        sim, p_credits=1, dllp_error_rate=0.4, error_seed=11
    )
    n = 24
    for i in range(n):
        device.write(0x80000000 + i * 64, 64)
    sim.run(max_events=2_000_000)
    assert len(device.responses) == n  # reliable despite lost UpdateFCs
    tx = link.downstream_if
    assert link.upstream_if.dllp_corrupted.value() > 0
    assert tx.fc_watchdog_fires.value() > 0
    # Conservation still holds at quiescence — every consumed credit is
    # accounted for in the peer's receive books.  (Full headroom is NOT
    # guaranteed here: a corrupted *final* UpdateFC is only re-sent when
    # new work starves, and there is none.)
    for cls in ALL_CLASSES:
        peer_fc = tx.peer.fc
        assert tx.fc.tx_consumed[cls] == (peer_fc.rx_drained[cls]
                                          + peer_fc.rx_held[cls])
        assert peer_fc.rx_held[cls] == 0  # RX buffers fully drained


def test_quiescent_idle_link_schedules_no_watchdog():
    # An idle link must stay quiescent: the watchdog only arms while a
    # class is credit-starved with work pending, so a clean run ends
    # with no pending FC events (this is what keeps sim.run() able to
    # detect quiescence at all).
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    device.write(0x80000000, 64)
    sim.run()
    assert len(device.responses) == 1
    for iface in (link.upstream_if, link.downstream_if):
        assert not iface._fc_watchdog_event.scheduled
        assert iface.fc_watchdog_fires.value() == 0
