"""Property-based tests on core data structures (hypothesis)."""

import statistics

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.addr import AddrRange, disjoint, union_span
from repro.mem.packet import MemCmd, Packet
from repro.pci.config import ConfigSpace
from repro.pcie.timing import (
    PcieGen,
    LinkTiming,
    VALID_WIDTHS,
    ack_timer_ticks,
    replay_timeout_ticks,
)
from repro.sim import ticks
from repro.sim.eventq import CallbackEvent, EventQueue
from repro.sim.stats import Distribution

ranges = st.builds(
    AddrRange,
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=1, max_value=1 << 30),
)


@given(st.integers(min_value=0, max_value=10**12))
def test_tick_conversion_round_trip(ns):
    assert ticks.to_ns(ticks.from_ns(ns)) == ns


@given(st.floats(min_value=0.001, max_value=1000))
def test_gbps_conversion_round_trip(rate):
    back = ticks.bytes_per_tick_to_gbps(ticks.gbps_to_bytes_per_tick(rate))
    assert abs(back - rate) / rate < 1e-9


@given(ranges, ranges)
def test_overlap_is_symmetric(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(ranges, ranges)
def test_overlap_iff_shared_address(a, b):
    shared_start = max(a.start, b.start)
    shared_end = min(a.end, b.end)
    assert a.overlaps(b) == (shared_start < shared_end)


@given(st.lists(ranges, min_size=1, max_size=8))
def test_union_span_contains_every_range(rs):
    span = union_span(rs)
    assert all(span.contains_range(r) for r in rs)


@given(st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=10))
def test_bump_allocation_is_disjoint(sizes):
    cursor = 0
    out = []
    for size in sizes:
        out.append(AddrRange(cursor, size))
        cursor += size
    assert disjoint(out)


@given(
    st.integers(min_value=0, max_value=250),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_config_write_mask_invariant(offset, size, init, mask, written):
    """Software writes never disturb read-only bits."""
    cfg = ConfigSpace(256)
    size = min(size, 256 - offset)
    field_mask = (1 << (8 * size)) - 1
    cfg.init_field(offset, size, init & field_mask, writable_mask=mask & field_mask)
    before = cfg.read(offset, size)
    cfg.write(offset, written & field_mask, size)
    after = cfg.read(offset, size)
    readonly = ~(mask & field_mask)
    assert before & readonly == after & readonly
    # Writable bits took the written value.
    assert after & mask & field_mask == written & mask & field_mask


@given(st.integers(min_value=4, max_value=27))
def test_bar_probe_recovers_any_power_of_two_size(log_size):
    from repro.pci.header import Bar, PciEndpointFunction, BAR0

    size = 1 << log_size
    fn = PciEndpointFunction(0x8086, 0x1234, bars=[Bar(size)])
    fn.config_write(BAR0, 0xFFFFFFFF, 4)
    probed = fn.config_read(BAR0, 4)
    decoded = ((~(probed & 0xFFFFFFF0)) & 0xFFFFFFFF) + 1
    assert decoded == size


@given(
    st.sampled_from(list(PcieGen)),
    st.sampled_from(VALID_WIDTHS),
    st.integers(min_value=1, max_value=4096),
)
def test_transmission_time_positive_and_width_monotone(gen, width, nbytes):
    timing = LinkTiming(gen, width)
    t = timing.transmission_ticks(nbytes)
    assert t >= 1
    if width > 1:
        narrower = LinkTiming(gen, 1).transmission_ticks(nbytes)
        assert t <= narrower


@given(st.sampled_from(list(PcieGen)), st.sampled_from(VALID_WIDTHS),
       st.integers(min_value=1, max_value=4096))
def test_ack_timer_always_one_third_of_replay(gen, width, payload):
    replay = replay_timeout_ticks(gen, width, payload)
    ack = ack_timer_ticks(gen, width, payload)
    assert ack == max(1, replay // 3)
    assert replay >= 1


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                          st.integers(min_value=-5, max_value=5)),
                min_size=1, max_size=50))
def test_event_queue_fires_in_order(specs):
    q = EventQueue()
    fired = []
    for when, priority in specs:
        event = CallbackEvent(lambda w=when, p=priority: fired.append((w, p)),
                              priority=priority)
        q.schedule(event, when)
    q.run()
    assert fired == sorted(fired)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=100))
def test_distribution_matches_statistics_module(samples):
    dist = Distribution("d")
    for v in samples:
        dist.sample(v)
    assert dist.mean == pytest_approx(statistics.fmean(samples))
    # The streaming sum-of-squares formula is mildly unstable for large
    # magnitudes; a loose relative bound is the honest contract.
    assert dist.stddev == pytest_approx(statistics.stdev(samples),
                                        rel_tol=1e-4, abs_tol=1e-4)
    assert dist.minimum == min(samples)
    assert dist.maximum == max(samples)


def pytest_approx(value, rel_tol=1e-6, abs_tol=1e-6):
    import pytest

    return pytest.approx(value, rel=rel_tol, abs=abs_tol)


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_bridge_bus_range_check(primary, secondary, subordinate):
    from repro.pci.header import PciBridgeFunction, PRIMARY_BUS, SECONDARY_BUS, SUBORDINATE_BUS

    bridge = PciBridgeFunction(0x8086, 0x9C90)
    bridge.config_write(PRIMARY_BUS, primary, 1)
    bridge.config_write(SECONDARY_BUS, secondary, 1)
    bridge.config_write(SUBORDINATE_BUS, subordinate, 1)
    for bus in range(0, 256, 17):
        assert bridge.routes_bus(bus) == (0 < secondary <= bus <= subordinate)
