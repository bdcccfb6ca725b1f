"""Property-based tests of the link-layer reliability invariants.

The ACK/NAK protocol's whole job is: every TLP handed to a link arrives
at the other side **exactly once and in order**, no matter how the
receiver misbehaves (full buffers) or how many packets the error
injector corrupts.  Hypothesis drives randomized traffic at randomized
adversity and checks exactly that.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcie.link import PcieLink
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import LinkSpec

from tests.mem.helpers import FakeMaster, FakeSlave


def run_traffic(n_packets, width, replay_buffer, error_rate, seed,
                receiver_outstanding, receiver_latency_ns):
    sim = Simulator()
    link = PcieLink.from_spec(sim, "link", LinkSpec(
        gen="GEN2",
        width=width,
        replay_buffer_size=replay_buffer,
        error_rate=error_rate,
        error_seed=seed,
    ))
    device = FakeMaster(sim, "device")
    memory = FakeSlave(sim, "memory",
                       latency=ticks.from_ns(receiver_latency_ns),
                       max_outstanding=receiver_outstanding)
    device.port.bind(link.downstream_if.slave_port)
    link.upstream_if.master_port.bind(memory.port)
    expected = []
    for i in range(n_packets):
        pkt = device.write(0x80000000 + i * 64, 64)
        expected.append(pkt.req_id)
    sim.run(max_events=3_000_000)
    return link, device, memory, expected


@settings(max_examples=20, deadline=None)
@given(
    n_packets=st.integers(min_value=1, max_value=24),
    width=st.sampled_from([1, 4, 8]),
    replay_buffer=st.integers(min_value=1, max_value=4),
    error_rate=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**16),
    receiver_outstanding=st.integers(min_value=1, max_value=8),
    receiver_latency_ns=st.integers(min_value=0, max_value=2000),
)
def test_exactly_once_in_order_delivery(n_packets, width, replay_buffer,
                                        error_rate, seed,
                                        receiver_outstanding,
                                        receiver_latency_ns):
    link, device, memory, expected = run_traffic(
        n_packets, width, replay_buffer, error_rate, seed,
        receiver_outstanding, receiver_latency_ns,
    )
    delivered = [pkt.req_id for pkt in memory.requests]
    # Exactly once, in issue order, despite refusals/corruption/replays.
    assert delivered == expected
    # And the sender got every response back.
    assert sorted(pkt.req_id for pkt in device.responses) == sorted(expected)
    # Replay buffers fully drained at quiescence.
    assert len(link.downstream_if.replay_buffer) == 0


@settings(max_examples=15, deadline=None)
@given(
    n_packets=st.integers(min_value=2, max_value=16),
    error_rate=st.floats(min_value=0.05, max_value=0.4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_corruption_forces_replays_but_never_duplicates(n_packets,
                                                        error_rate, seed):
    link, device, memory, expected = run_traffic(
        n_packets, 1, 4, error_rate, seed, 64, 50,
    )
    assert [p.req_id for p in memory.requests] == expected
    rx = link.upstream_if
    if rx.corrupted.value():
        assert link.downstream_if.tlp_replays.value() > 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_sequence_numbers_consistent_after_run(seed):
    link, device, memory, expected = run_traffic(12, 1, 2, 0.1, seed, 2, 500)
    tx = link.downstream_if
    rx = link.upstream_if
    # Everything sent was eventually received: counters agree.
    assert tx.send_seq == rx.recv_seq == len(expected)
