"""Unit tests for PCI-Express wire timing and the timer formulas."""

import pytest

from repro.pcie.timing import (
    DLLP_WIRE_BYTES,
    TLP_OVERHEAD_BYTES,
    LinkTiming,
    PcieGen,
    ack_factor,
    ack_timer_ticks,
    replay_timeout_ticks,
)
from repro.sim import ticks


def test_generation_lane_rates():
    assert PcieGen.GEN1.gt_per_second == 2.5
    assert PcieGen.GEN2.gt_per_second == 5.0
    assert PcieGen.GEN3.gt_per_second == 8.0


def test_symbol_times():
    # Gen 1: 10 bits per byte at 2.5 Gbps -> 4 ns per byte per lane.
    assert PcieGen.GEN1.symbol_time_ticks == pytest.approx(ticks.from_ns(4))
    assert PcieGen.GEN2.symbol_time_ticks == pytest.approx(ticks.from_ns(2))
    # Gen 3: 130 bits per 16 bytes at 8 Gbps -> 1.015625 ns per byte.
    assert PcieGen.GEN3.symbol_time_ticks == pytest.approx(1015.625)


def test_effective_bandwidth_after_encoding():
    assert PcieGen.GEN1.effective_gbps_per_lane == pytest.approx(2.0)
    assert PcieGen.GEN2.effective_gbps_per_lane == pytest.approx(4.0)
    assert PcieGen.GEN3.effective_gbps_per_lane == pytest.approx(8 * 128 / 130)


def test_table1_overheads():
    # 12B header + 2B sequence + 4B LCRC + 2B framing.
    assert TLP_OVERHEAD_BYTES == 20
    assert DLLP_WIRE_BYTES == 8


def test_tlp_transmission_time_gen2_x1():
    timing = LinkTiming(PcieGen.GEN2, 1)
    # A 64B-payload TLP is 84 wire bytes; at 2 ns per byte -> 168 ns.
    assert timing.transmission_ticks(timing.tlp_wire_bytes(64)) == ticks.from_ns(168)


def test_width_divides_transmission_time():
    x1 = LinkTiming(PcieGen.GEN2, 1)
    x4 = LinkTiming(PcieGen.GEN2, 4)
    t1 = x1.transmission_ticks(84)
    t4 = x4.transmission_ticks(84)
    assert t4 == pytest.approx(t1 / 4, rel=1e-3)


def test_device_level_throughput_matches_paper():
    # The paper: "each sector (4KB) of the IDE disk is transferred with
    # a throughput of 3.072 Gbps over our PCI-Express link" (Gen 2 x1,
    # 64B write TLPs).  Pure wire arithmetic gives 64B/168ns = 3.05 Gbps.
    timing = LinkTiming(PcieGen.GEN2, 1)
    per_tlp = timing.transmission_ticks(timing.tlp_wire_bytes(64))
    gbps = 64 * 8 / ticks.to_ns(per_tlp)
    assert gbps == pytest.approx(3.05, rel=0.02)


def test_invalid_width_rejected():
    with pytest.raises(ValueError):
        LinkTiming(PcieGen.GEN2, 3)
    with pytest.raises(ValueError):
        ack_factor(128, 5)


def test_ack_factor_table():
    assert ack_factor(64, 1) == 1.4  # clamps to the 128B row
    assert ack_factor(128, 1) == 1.4
    assert ack_factor(128, 8) == 2.5
    assert ack_factor(128, 16) == 3.0
    assert ack_factor(1024, 1) == 2.4
    assert ack_factor(4096, 32) == 3.0
    with pytest.raises(ValueError):
        ack_factor(8192, 1)


def test_replay_timeout_formula_gen2_x1():
    # ((64 + 28) / 1 * 1.4) * 3 = 386.4 symbols; Gen2 symbol = 2 ns.
    expected = 386.4 * 2
    got = replay_timeout_ticks(PcieGen.GEN2, 1, 64)
    assert got == pytest.approx(ticks.from_ns(expected), rel=1e-3)


def test_replay_timeout_formula_gen2_x8():
    # ((64 + 28) / 8 * 2.5) * 3 = 86.25 symbols -> 172.5 ns.
    got = replay_timeout_ticks(PcieGen.GEN2, 8, 64)
    assert got == pytest.approx(ticks.from_ns(172.5), rel=1e-2)


def test_ack_timer_is_one_third_of_replay():
    replay = replay_timeout_ticks(PcieGen.GEN2, 4, 64)
    ack = ack_timer_ticks(PcieGen.GEN2, 4, 64)
    assert ack == replay // 3


def test_wider_links_time_out_sooner():
    timeouts = [
        replay_timeout_ticks(PcieGen.GEN2, w, 64) for w in (1, 2, 4)
    ]
    assert timeouts == sorted(timeouts, reverse=True)


def test_speed_codes():
    assert PcieGen.GEN1.speed_code == 1
    assert PcieGen.GEN2.speed_code == 2
    assert PcieGen.GEN3.speed_code == 3


def test_link_timing_equality():
    assert LinkTiming(PcieGen.GEN2, 4) == LinkTiming(PcieGen.GEN2, 4)
    assert LinkTiming(PcieGen.GEN2, 4) != LinkTiming(PcieGen.GEN3, 4)


def _formula_ticks(gen, width, max_payload):
    """The spec formula, derived afresh on every call."""
    from fractions import Fraction
    import math

    symbols = (Fraction(max_payload + 28, width)
               * Fraction(ack_factor(max_payload, width)).limit_denominator(100)
               * 3)
    return max(1, math.ceil(symbols * gen.symbol_time_exact))


def test_memoised_timer_periods_equal_the_formula():
    """Every generation x width, at every payload of the AckFactor
    table's row edges and their neighbours (the formula is a step
    function of the row), from an empty memo and then from a warm one."""
    from repro.pcie import timing

    replay_timeout_ticks.cache_clear()
    edges = (128, 256, 512, 1024, 2048, 4096)
    payloads = sorted({1, 64} | {edge + step for edge in edges
                                 for step in (-1, 0, 1) if edge + step <= 4096})
    for __ in range(2):
        for gen in PcieGen:
            for width in timing.VALID_WIDTHS:
                for payload in payloads:
                    want = _formula_ticks(gen, width, payload)
                    assert replay_timeout_ticks(gen, width, payload) == want
                    assert ack_timer_ticks(gen, width, payload) == max(1, want // 3)
                    assert timing.fc_watchdog_ticks(gen, width, payload) == 2 * want
    assert replay_timeout_ticks.cache_info().currsize == len(PcieGen) * len(
        timing.VALID_WIDTHS) * len(payloads)
