"""Unit tests for the PCI-Express link model and its ACK/NAK protocol."""

import pytest

from repro.mem.addr import AddrRange
from repro.mem.packet import MemCmd, Packet
from repro.pcie.link import PcieLink
from repro.sim import ticks
from repro.sim.simobject import SimObject, Simulator
from repro.system.spec import LinkSpec, SpecError

from tests.mem.helpers import FakeMaster, FakeSlave


def build_mmio_path(sim, **link_kwargs):
    """Requester at the upstream end (like a root port), device at the
    downstream end: models the CPU->device MMIO direction."""
    link = PcieLink.from_spec(sim, "link", LinkSpec(**link_kwargs))
    requester = FakeMaster(sim, "requester")
    device = FakeSlave(sim, "device", latency=ticks.from_ns(100))
    requester.port.bind(link.upstream_if.slave_port)
    link.downstream_if.master_port.bind(device.port)
    return link, requester, device


def build_dma_path(sim, device_kwargs=None, **link_kwargs):
    """Requester at the downstream end (like a device doing DMA),
    memory at the upstream end."""
    link = PcieLink.from_spec(sim, "link", LinkSpec(**link_kwargs))
    device = FakeMaster(sim, "device")
    memory_kwargs = {"latency": ticks.from_ns(50)}
    memory_kwargs.update(device_kwargs or {})
    memory = FakeSlave(sim, "memory", **memory_kwargs)
    device.port.bind(link.downstream_if.slave_port)
    link.upstream_if.master_port.bind(memory.port)
    return link, device, memory


def test_mmio_round_trip():
    sim = Simulator()
    link, requester, device = build_mmio_path(sim)
    requester.read(0x1000, 64)
    sim.run()
    assert len(device.requests) == 1
    assert len(requester.responses) == 1
    assert requester.responses[0].cmd is MemCmd.READ_RESP


def test_mmio_latency_accounts_for_wire_time():
    sim = Simulator()
    link, requester, device = build_mmio_path(sim, gen="GEN2", width=1)
    requester.read(0x1000, 64)
    sim.run()
    # Request: 20 wire bytes -> 40 ns + 4 ns propagation.
    assert device.request_ticks[0] == ticks.from_ns(44)
    # Response: 84 wire bytes -> 168 ns + 4 ns, after 100 ns device time.
    assert requester.response_ticks[0] == ticks.from_ns(44 + 100 + 172)


def test_wider_link_is_faster():
    results = {}
    for width in (1, 4):
        sim = Simulator()
        link, requester, device = build_mmio_path(sim, width=width)
        requester.read(0x1000, 64)
        sim.run()
        results[width] = requester.response_ticks[0]
    assert results[4] < results[1]


def test_dma_direction_works():
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    device.write(0x80000000, 64)
    sim.run()
    assert len(memory.requests) == 1
    assert memory.requests[0].cmd is MemCmd.WRITE_REQ
    assert len(device.responses) == 1


def test_sequence_numbers_assigned_in_order():
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    for i in range(5):
        device.write(0x80000000 + i * 64, 64)
    sim.run()
    tx = link.downstream_if
    assert tx.send_seq == 5
    assert tx.peer.recv_seq == 5
    assert [p.addr for p in memory.requests] == [0x80000000 + i * 64 for i in range(5)]


def test_ack_purges_replay_buffer():
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    device.write(0x80000000, 64)
    sim.run()
    tx = link.downstream_if
    assert len(tx.replay_buffer) == 0
    assert tx.peer.acks_sent.value() >= 1
    assert tx.acks_received.value() >= 1
    assert tx.timeouts.value() == 0


def test_throughput_near_wire_rate_gen2_x1():
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    n = 64
    for i in range(n):
        device.write(0x80000000 + i * 64, 64)
    sim.run()
    assert len(device.responses) == n
    # 64 TLPs of 84 wire bytes at 2 ns/byte is 10.75 us of pure wire
    # time; protocol overhead should keep us within ~30 % of that.
    wire_time = n * ticks.from_ns(168)
    assert sim.curtick < wire_time * 1.3
    assert link.downstream_if.tlp_replays.value() == 0


def test_slow_receiver_backpressures_through_credits_not_replays():
    # A receiver an order of magnitude slower than the link used to
    # force dropped deliveries and replay storms; with credit-based flow
    # control the TLPs park in the RX buffer / stall at the transmitter
    # instead, and the replay machinery stays idle.
    sim = Simulator()
    link, device, memory = build_dma_path(
        sim, device_kwargs={"max_outstanding": 1, "latency": ticks.from_us(3)}
    )
    for i in range(6):
        device.write(0x80000000 + i * 64, 64)
    sim.run(max_events=500_000)
    tx = link.downstream_if
    assert len(device.responses) == 6  # reliability: everything arrives
    assert tx.peer.delivery_refused.value() > 0  # RX buffer did absorb refusals
    assert tx.timeouts.value() == 0  # ...without a single replay timeout
    assert tx.tlp_replays.value() == 0
    # Credits round-tripped: the transmitter ends with full headroom.
    for cls in (0, 1, 2):
        assert tx.fc.tx_headroom(cls) == tx.peer.fc.rx_capacity[cls]


def test_duplicate_replays_are_discarded_by_sequence_check():
    sim = Simulator()
    # Force ACKs to lag the replay timer: delivered TLPs time out before
    # their ACK returns, so the replay re-sends an already-delivered TLP
    # and the receiver's sequence check must discard the duplicate.
    link, device, memory = build_dma_path(
        sim,
        replay_timeout=ticks.from_ns(400),
        ack_period=ticks.from_ns(900),
    )
    device.write(0x80000000, 64)
    device.write(0x80000040, 64)
    sim.run(max_events=500_000)
    rx = link.upstream_if
    assert rx.out_of_seq.value() >= 1
    assert len(memory.requests) == 2  # no duplicate deliveries
    assert len(device.responses) == 2


def test_replay_buffer_size_one_serializes_by_ack():
    sim = Simulator()
    link, device, memory = build_dma_path(sim, replay_buffer_size=1)
    for i in range(4):
        device.write(0x80000000 + i * 64, 64)
    sim.run()
    assert len(device.responses) == 4
    # With one replay slot, each TLP waits for the previous TLP's ACK:
    # spacing must exceed the pure wire time.
    tx_if = link.downstream_if
    assert tx_if.timeouts.value() == 0
    assert sim.curtick > 4 * ticks.from_ns(168)


def test_immediate_ack_policy():
    sim = Simulator()
    link, device, memory = build_dma_path(sim, ack_policy="immediate")
    for i in range(3):
        device.write(0x80000000 + i * 64, 64)
    sim.run()
    rx = link.upstream_if
    # One ACK per delivered TLP (plus acks for delivered responses on
    # the other interface).
    assert rx.acks_sent.value() == 3


def test_invalid_parameters_rejected():
    # The record is the link's only range check.
    with pytest.raises(SpecError, match="replay_buffer_size"):
        LinkSpec(replay_buffer_size=0).validate()
    with pytest.raises(SpecError, match="ack policy 'sometimes'"):
        LinkSpec(ack_policy="sometimes").validate()


def test_error_injection_exercises_nak_path():
    sim = Simulator()
    link, device, memory = build_dma_path(sim, error_rate=0.2, error_seed=7)
    n = 32
    for i in range(n):
        device.write(0x80000000 + i * 64, 64)
    sim.run(max_events=1_000_000)
    rx = link.upstream_if
    assert rx.corrupted.value() > 0
    assert rx.naks_sent.value() > 0
    assert link.downstream_if.tlp_replays.value() > 0
    # Reliable delivery despite the errors.
    assert len(memory.requests) == n
    assert len(device.responses) == n


def test_error_injection_is_deterministic():
    def run_once():
        sim = Simulator()
        link, device, memory = build_dma_path(sim, error_rate=0.2, error_seed=7)
        for i in range(16):
            device.write(0x80000000 + i * 64, 64)
        sim.run(max_events=1_000_000)
        return (
            link.upstream_if.corrupted.value(),
            link.downstream_if.tlp_replays.value(),
            sim.curtick,
        )

    assert run_once() == run_once()


def test_utilization_stats():
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    device.write(0x80000000, 64)
    sim.run()
    assert link.up_link.packets.value() >= 1  # the TLP
    assert link.down_link.packets.value() >= 2  # response TLP + ACK
    assert link.up_link.bytes.value() >= 84


def test_replay_fraction_formula():
    sim = Simulator()
    link, device, memory = build_dma_path(sim)
    device.write(0x80000000, 64)
    sim.run()
    stats = sim.dump_stats()
    key = [k for k in stats if k.endswith("down_if.replay_fraction")]
    assert key and stats[key[0]] == 0.0
