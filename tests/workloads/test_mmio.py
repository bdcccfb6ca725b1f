"""Unit tests for the MMIO-latency microbenchmark."""

import pytest

from repro.sim import ticks
from repro.system.spec import nic_spec
from repro.system.topology import build_system
from repro.workloads.mmio import MmioReadBench


def test_validates_iterations():
    system = build_system(nic_spec())
    with pytest.raises(ValueError):
        MmioReadBench(system.kernel, 0x40000000, iterations=0)


def test_measures_each_iteration():
    system = build_system(nic_spec())
    bench = MmioReadBench(system.kernel, system.nic_driver.bar0 + 0x8,
                          iterations=10)
    assert bench.mean_latency_ns is None
    proc = system.kernel.spawn("bench", bench.run())
    system.run()
    assert proc.done
    assert len(bench.latencies_ticks) == 10
    assert bench.mean_latency_ns > 0


def test_steady_state_latency_is_stable():
    system = build_system(nic_spec())
    bench = MmioReadBench(system.kernel, system.nic_driver.bar0 + 0x8,
                          iterations=10)
    system.kernel.spawn("bench", bench.run())
    system.run()
    tail = bench.latencies_ticks[2:]
    assert max(tail) == min(tail)  # dependent reads on an idle fabric


def test_latency_includes_rc_both_ways():
    fast = build_system(nic_spec(rc_latency=ticks.from_ns(50)))
    bench = MmioReadBench(fast.kernel, fast.nic_driver.bar0 + 0x8, iterations=5)
    fast.kernel.spawn("bench", bench.run())
    fast.run()
    # Two RC crossings alone are 100 ns; the link, crossbar and device
    # add the rest — the paper's Table II smallest value is 318 ns.
    assert bench.mean_latency_ns > 150
