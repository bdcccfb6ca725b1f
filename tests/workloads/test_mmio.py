"""The MMIO-latency kernel module (Table II) as an ``mmio_read`` flow."""

import pytest

from repro.sim import ticks
from repro.system.spec import nic_spec
from repro.system.topology import build_system
from repro.workloads.traffic import FlowSpec, TrafficEngine, TrafficError


def run_reads(spec, requests):
    """Time ``requests`` dependent 4-byte reads of the NIC's STATUS
    register; return the flow's results record."""
    system = build_system(spec)
    engine = TrafficEngine(system, [
        FlowSpec("mmio", "mmio_read", "nic", requests=requests)])
    engine.start()
    system.run()
    assert engine.completed
    return engine.results()["flows"]["mmio"]


def test_validates_iterations():
    with pytest.raises(TrafficError, match="requests"):
        FlowSpec("mmio", "mmio_read", "nic", requests=0).validate()


def test_measures_each_iteration():
    record = run_reads(nic_spec(), 10)
    assert record["requests_completed"] == 10
    assert record["bytes"] == 10 * 4
    assert record["mean_ns"] > 0


def test_steady_state_latency_is_stable():
    record = run_reads(nic_spec(), 10)
    # Dependent reads on an idle fabric: the slowest read is the mean.
    assert record["p999_ns"] == record["mean_ns"]


def test_latency_includes_rc_both_ways():
    record = run_reads(nic_spec(rc_latency=ticks.from_ns(50)), 5)
    # Two RC crossings alone are 100 ns; the link, crossbar and device
    # add the rest — the paper's Table II smallest value is 318 ns.
    assert record["mean_ns"] > 150


def _probe(mmio_offset):
    """A NIC probe flow at ``mmio_offset``."""
    return FlowSpec("m", "mmio_read", "nic", mmio_offset=mmio_offset)


def test_a_negative_offset_is_rejected():
    # BAR0 sits at the bottom of the MMIO window, so a negative offset
    # would probe the configuration space just below it.
    with pytest.raises(TrafficError, match="mmio_offset must be an int >= 0"):
        _probe(-8).validate()


@pytest.mark.parametrize("offset", [128 * 1024 - 2, 128 * 1024, 1 << 20])
def test_an_offset_past_bar0_is_rejected_before_any_event(offset):
    system = build_system(nic_spec())
    events = system.sim.eventq.events_processed
    with pytest.raises(TrafficError,
                       match="flow 'm': mmio_offset .* 0x20000-byte BAR0"):
        TrafficEngine(system, [_probe(offset)])
    assert system.sim.eventq.events_processed == events


def test_the_last_word_of_bar0_may_be_probed():
    system = build_system(nic_spec())
    engine = TrafficEngine(system, [_probe(128 * 1024 - 4)])
    engine.start()
    system.run()
    assert engine.completed
    assert system.devices["nic"].function.bars[0].size == 128 * 1024
