"""Unit tests for the dd workload model."""

import pytest

from repro.sim import ticks
from repro.system.spec import validation_spec
from repro.system.topology import build_system
from repro.workloads.dd import DdResult, DdWorkload


def test_result_throughput_arithmetic():
    result = DdResult(nbytes=1 << 20, elapsed_ticks=ticks.from_ms(1),
                      transfer_ticks=ticks.from_us(800))
    # 1 MiB in 1 ms = 8.39 Gbps.
    assert result.throughput_gbps == pytest.approx(8.388, rel=1e-3)
    assert result.transfer_gbps > result.throughput_gbps
    assert "MB" in repr(result)


def test_block_size_must_align_to_sectors():
    system = build_system(validation_spec())
    with pytest.raises(ValueError):
        DdWorkload(system.kernel, system.disk_driver, block_size=1000)


def test_startup_overhead_included_in_report():
    system = build_system(validation_spec())
    dd = DdWorkload(system.kernel, system.disk_driver, 16 * 1024,
                    startup_overhead=ticks.from_ms(1))
    proc = system.kernel.spawn("dd", dd.run())
    system.run(max_events=10_000_000)
    assert proc.done
    assert dd.result.elapsed_ticks >= ticks.from_ms(1)
    assert dd.result.transfer_ticks < dd.result.elapsed_ticks
    assert dd.result.throughput_gbps < dd.result.transfer_gbps


def test_multi_block_count():
    system = build_system(validation_spec())
    dd = DdWorkload(system.kernel, system.disk_driver, 8 * 1024, count=3,
                    startup_overhead=0)
    proc = system.kernel.spawn("dd", dd.run())
    system.run(max_events=10_000_000)
    assert proc.done
    assert dd.result.nbytes == 3 * 8 * 1024
    assert system.disk.sectors_transferred.value() == 6


def test_throughput_grows_with_block_size_under_fixed_startup():
    values = {}
    for block in (16 * 1024, 128 * 1024):
        system = build_system(validation_spec())
        dd = DdWorkload(system.kernel, system.disk_driver, block,
                        startup_overhead=ticks.from_us(200))
        system.kernel.spawn("dd", dd.run())
        system.run(max_events=20_000_000)
        values[block] = dd.result.throughput_gbps
    assert values[128 * 1024] > values[16 * 1024]
