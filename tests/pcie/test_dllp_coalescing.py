"""ACK/NAK DLLP coalescing in the transmit queue.

ACKs and NAKs are cumulative, so a pending same-type DLLP is updated in
place to the highest sequence number instead of queueing another entry.
Before this existed, sustained TLP corruption (every received TLP NAKed
while the transmitter was busy) grew ``dllp_queue`` without bound.
"""

from repro.pcie.pkt import DllpType
from repro.sim.simobject import Simulator

from tests.pcie.test_link import build_dma_path


def spy_on_queue(iface):
    """Record dllp_queue occupancy after every enqueue attempt."""
    occupancies = []
    original = iface._queue_dllp

    def spy(dllp_type, seq):
        original(dllp_type, seq)
        occupancies.append(len(iface.dllp_queue))

    iface._queue_dllp = spy
    return occupancies


def test_same_type_dllps_coalesce_to_highest_seq():
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    rx = link.upstream_if
    rx._queue_dllp(DllpType.NAK, 1)
    rx._queue_dllp(DllpType.NAK, 4)
    assert len(rx.dllp_queue) == 1
    assert rx.dllp_queue[0].seq == 4
    # Cumulative: a lower sequence never regresses the pending DLLP.
    rx._queue_dllp(DllpType.NAK, 2)
    assert len(rx.dllp_queue) == 1
    assert rx.dllp_queue[0].seq == 4


def test_ack_and_nak_do_not_coalesce_with_each_other():
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    rx = link.upstream_if
    rx._queue_dllp(DllpType.NAK, 3)
    rx._queue_dllp(DllpType.ACK, 5)
    assert len(rx.dllp_queue) == 2
    assert {p.dllp_type for p in rx.dllp_queue} == {DllpType.ACK, DllpType.NAK}


def test_sustained_corruption_keeps_dllp_queue_bounded():
    sim = Simulator()
    link, device, memory = build_dma_path(sim, error_rate=1.0)
    rx = link.upstream_if
    occupancies = spy_on_queue(rx)

    for i in range(8):
        device.write(0x80000000 + i * 64, 64)
    # Nothing ever delivers at error_rate=1.0; every arrival is NAKed
    # and the sender replays forever.  Bound the run by wall time.
    sim.run(until=link.replay_timeout * 40)

    assert rx.corrupted.value() > 8          # plenty of NAK triggers...
    assert memory.requests == []             # ...and zero deliveries
    assert occupancies                       # the spy saw traffic
    # One pending NAK at most (no deliveries, so no ACKs): the queue
    # stays bounded no matter how long corruption persists.
    assert max(occupancies) <= 2


def test_immediate_acks_coalesce_while_transmitter_busy():
    sim = Simulator()
    link, device, memory = build_dma_path(sim, ack_policy="immediate")
    rx = link.upstream_if
    occupancies = spy_on_queue(rx)

    n = 16
    for i in range(n):
        device.read(0x80000000 + i * 64, 64)
    sim.run()

    assert len(device.responses) == n
    # The memory side's transmitter is busy with 84-byte response TLPs
    # while 8-byte ACKs pile up; cumulative coalescing caps the backlog
    # at one pending ACK (plus at most one NAK slot, unused here).
    assert max(occupancies) <= 2
    # Coalescing really happened: fewer ACKs were sent than deliveries
    # were acknowledged.
    assert rx.acks_sent.value() < rx.delivered.value()
