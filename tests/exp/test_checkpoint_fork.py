"""Fork-vs-cold byte identity: the tentpole acceptance tests.

A machine restored from a warm-up checkpoint must be **byte-identical** —
statistics, traces, metrics — to a cold run from tick 0 that simulates
the same warm-up inline, with the invariant checker armed throughout.
Exercised on the paper's validation fabric, on a deep-hierarchy
topology, on the classic shared PCI bus, and under fault injection
(where the restored run must also finish with zero protocol
violations).
"""

import pytest

from repro.obs import MemorySink
from repro.sim.checkpoint import capture, checkpoint_json, restore
from repro.system.spec import (classic_pci_spec, deep_hierarchy_spec,
                               validation_spec)
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload

WARM_BYTES = 16 * 1024
MEASURED_BYTES = 256 * 1024


def _run_measured(system, driver, sink):
    """Attach ``sink``, run the measured dd block, return its workload."""
    system.sim.tracer.attach(sink)
    dd = DdWorkload(system.kernel, driver, MEASURED_BYTES)
    process = system.kernel.spawn("dd", dd.run())
    system.run(max_events=50_000_000)
    assert process.done
    return dd


def _warm(system, driver):
    warm = DdWorkload(system.kernel, driver, WARM_BYTES)
    process = system.kernel.spawn("dd", warm.run())
    system.run(max_events=50_000_000)
    assert process.done


def _identity_pair(build):
    """Cold-with-warm vs rebuild+restore on ``build()``-made systems.

    ``build`` returns ``(system, driver)``; both paths attach a memory
    trace sink only for the measured phase, so the two sinks must
    produce identical JSONL bytes and the two simulators identical
    statistics documents.
    """
    cold_system, cold_driver = build()
    _warm(cold_system, cold_driver)
    cold_sink = MemorySink()
    cold_dd = _run_measured(cold_system, cold_driver, cold_sink)

    donor_system, donor_driver = build()
    _warm(donor_system, donor_driver)
    snapshot = donor_system.sim.checkpoint()

    forked_system, forked_driver = build()
    restore(forked_system.sim, snapshot)
    forked_sink = MemorySink()
    forked_dd = _run_measured(forked_system, forked_driver, forked_sink)

    assert forked_sink.to_jsonl() == cold_sink.to_jsonl()
    assert forked_system.sim.dump_stats() == cold_system.sim.dump_stats()
    assert forked_dd.result.throughput_gbps == cold_dd.result.throughput_gbps
    return cold_system, forked_system


@pytest.mark.slow
def test_validation_fabric_fork_is_byte_identical():
    def build():
        system = build_system(validation_spec(), check=True)
        return system, system.drivers["disk"]

    cold, forked = _identity_pair(build)
    assert cold.sim.checker.violations == []
    assert forked.sim.checker.violations == []


@pytest.mark.slow
def test_deep_hierarchy_fork_is_byte_identical():
    spec = deep_hierarchy_spec(2, 2).to_dict()

    def build():
        system = build_system(spec, check=True)
        return system, system.drivers["sw2_disk1"]

    cold, forked = _identity_pair(build)
    assert cold.sim.checker.violations == []
    assert forked.sim.checker.violations == []


def test_classic_pci_fork_is_byte_identical():
    # The bus's data-phase tally feeds pci_bus.efficiency: a fork that
    # dropped it would report half the cold run's efficiency.
    def build():
        system = build_system(classic_pci_spec(), check=True)
        return system, system.drivers["disk"]

    cold, forked = _identity_pair(build)
    efficiency = forked.sim.dump_stats()["pci_bus.efficiency"]
    assert efficiency == cold.sim.dump_stats()["pci_bus.efficiency"] > 0
    assert forked.sim.checker.violations == []


@pytest.mark.slow
def test_fault_injected_fork_completes_with_zero_violations():
    # The stress-campaign shape: error injection on every link, checker
    # armed in record mode via check=True at build time.  A restored run
    # must recover from every injected fault exactly like the cold one.
    def build():
        system = build_system(validation_spec(error_rate=0.05,
                                              dllp_error_rate=0.05,
                                              replay_buffer_size=2,
                                              input_queue_size=2),
                              check=True)
        return system, system.drivers["disk"]

    cold, forked = _identity_pair(build)
    assert cold.sim.checker.violations == []
    assert forked.sim.checker.violations == []


def test_prefix_checkpoint_is_quiescent_and_deterministic():
    def warm_checkpoint():
        system = build_system(validation_spec(), check=True)
        _warm(system, system.drivers["disk"])
        return system.sim.checkpoint()

    first, second = warm_checkpoint(), warm_checkpoint()
    assert first["events"] == [], "a drained run checkpoints empty"
    assert checkpoint_json(first) == checkpoint_json(second)


def test_capture_refuses_mid_flight_packets():
    # Stop a dd transfer mid-flight: some component holds live packets,
    # whose state_dict guard must refuse rather than silently drop them.
    system = build_system(validation_spec())
    dd = DdWorkload(system.kernel, system.drivers["disk"], 64 * 1024)
    system.kernel.spawn("dd", dd.run())
    system.run(max_events=2_000)
    assert not system.sim.eventq.empty(), "transfer still in flight"
    from repro.sim.checkpoint import CheckpointError

    with pytest.raises(CheckpointError):
        capture(system.sim)
