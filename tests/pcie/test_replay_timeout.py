"""Unit tests for the replay-timer path of the link layer.

The happy path (ACK arrives, buffer purges) is covered by
``test_link.py``; here the ACKs are taken away.  Suppressing the
receiver's ``_schedule_ack`` forces the sender down ``_replay_timeout``,
so the tests can pin down *when* the timer fires (exactly
``replay_timeout`` ticks after the transmission that armed it) and that
``_reset_replay_timer`` re-arms or disarms correctly on partial and
full acknowledgement.
"""

from repro.obs.trace import MemorySink
from repro.pcie.link import PcieLink
from repro.pcie.pkt import PciePacket
from repro.sim.simobject import Simulator
from repro.system.spec import LinkSpec

from tests.mem.helpers import FakeMaster, FakeSlave


def build_dma_path(sim, **link_kwargs):
    link = PcieLink.from_spec(sim, "link", LinkSpec(**link_kwargs))
    device = FakeMaster(sim, "device")
    memory = FakeSlave(sim, "memory")
    device.port.bind(link.downstream_if.slave_port)
    link.upstream_if.master_port.bind(memory.port)
    return link, device, memory


def suppress_acks(interface):
    """Make an interface stop sending ACK/NAK DLLPs for deliveries."""
    interface._schedule_ack = lambda: None


def test_replay_timer_fires_exactly_replay_timeout_after_tx_start():
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    tx = link.downstream_if
    suppress_acks(link.upstream_if)
    sink = sim.tracer.attach(MemorySink())

    device.write(0x1000, 64)
    sim.run(until=0)  # process the tick-0 events: TX starts
    tx_start = next(ev["t"] for ev in sink.events
                    if ev["ev"] == "tlp_tx" and ev["comp"] == tx.full_name)
    assert tx._replay_event.scheduled
    assert tx._replay_event.when == tx_start + link.replay_timeout

    # Not a tick early...
    sim.run(until=tx_start + link.replay_timeout - 1)
    assert tx.timeouts.value() == 0
    assert tx.tlp_replays.value() == 0
    # ...and at exactly the deadline the timeout fires and the TLP is
    # retransmitted (the link is idle, so the replay starts immediately).
    sim.run(until=tx_start + link.replay_timeout)
    assert tx.timeouts.value() == 1
    assert tx.tlp_replays.value() == 1
    replays = [ev for ev in sink.events if ev["ev"] == "tlp_tx" and ev["replay"]]
    assert len(replays) == 1
    assert replays[0]["t"] == tx_start + link.replay_timeout


def test_replay_repeats_until_an_ack_finally_lands():
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    tx, rx = link.downstream_if, link.upstream_if
    original_schedule_ack = rx._schedule_ack
    suppress_acks(rx)

    device.write(0x1000, 64)
    # Each timeout re-arms the timer while the buffer stays populated.
    deadline = link.replay_timeout * 3 + 1000
    sim.run(until=deadline)
    assert tx.timeouts.value() >= 3
    assert len(tx.replay_buffer) == 1
    # Every replay reaches the receiver as a duplicate (recv_seq already
    # advanced past it) and is re-ACKed — but the re-ACK is suppressed.
    assert rx.out_of_seq.value() >= 2

    # Restore ACKs: the next duplicate replay triggers a real re-ACK,
    # the buffer purges, the timer disarms, and the link goes quiet.
    rx._schedule_ack = original_schedule_ack
    sim.run(max_events=1_000_000)
    assert len(tx.replay_buffer) == 0
    assert not tx._replay_event.scheduled
    assert tx.acks_received.value() == 1
    # Despite everything the TLP was delivered exactly once.
    assert len(memory.requests) == 1


def test_partial_ack_resets_the_timer_for_the_remainder():
    sim = Simulator()
    link, device, memory = build_dma_path(sim, replay_buffer_size=4)
    tx, rx = link.downstream_if, link.upstream_if
    suppress_acks(rx)

    device.write(0x1000, 64)
    device.write(0x2000, 64)
    sim.run(until=tx.replay_timeout // 2)
    assert len(tx.replay_buffer) == 2
    armed_at = tx._replay_event.when

    # Hand-deliver an ACK for the first sequence number only.
    inject_at = sim.curtick
    tx._receive_dllp(PciePacket.ack(0))
    assert [ppkt.seq for ppkt in tx.replay_buffer] == [1]
    # _reset_replay_timer re-armed for the survivor, from the ACK tick.
    assert tx._replay_event.scheduled
    assert tx._replay_event.when == inject_at + link.replay_timeout
    assert tx._replay_event.when != armed_at

    # Acknowledging the rest disarms the timer entirely.
    tx._receive_dllp(PciePacket.ack(1))
    assert len(tx.replay_buffer) == 0
    assert not tx._replay_event.scheduled


def test_no_timeouts_on_a_healthy_link():
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    for i in range(8):
        device.write(0x1000 + i * 64, 64)
    sim.run(max_events=1_000_000)
    assert link.downstream_if.timeouts.value() == 0
    assert link.downstream_if.tlp_replays.value() == 0
    assert len(memory.requests) == 8
