"""``DdWorkload`` is the oracle of a one-flow ``dd_read`` point.

A sweep's ``dd`` is one ``dd_read`` request of the whole block whose
start delay is dd's startup cost.  On every kind of machine the sweeps
run, that flow must be the dd model to the last bit: the same finish
tick, the same two ``DdResult`` throughputs and the same link
statistics — every machine statistic, in fact, and the same
fast-forward skips — with exactly one event fewer: dd's startup
``Delay``, which the flow folds into its spawn.
"""

import pytest

from benchmarks import config
from benchmarks.sweeps import (CLASSIC_METRICS, FIGURE_METRICS,
                               STRESS_METRICS, STRESS_STARTUP, dd_flows)
from repro.analysis.report import link_replay_stats
from repro.exp import points
from repro.system.spec import (classic_pci_spec, deep_hierarchy_spec,
                               validation_spec)
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload
from repro.workloads.scenarios import run_flows

#: Two 32-sector requests: enough for both fast-forward levels to
#: engage, small enough to stay cheap with the checker armed.
BLOCK = 256 * 1024

#: (topology, device, block bytes, startup ticks, check, metrics).
CASES = {
    "validation_x1": (validation_spec(), "disk", BLOCK, config.DD_STARTUP,
                      None, FIGURE_METRICS),
    "validation_x8": (validation_spec(root_link_width=8,
                                      device_link_width=8),
                      "disk", BLOCK, config.DD_STARTUP, None,
                      FIGURE_METRICS),
    "posted_writes": (validation_spec(posted_writes=True), "disk", BLOCK,
                      config.DD_STARTUP, None, FIGURE_METRICS),
    "classic_pci": (classic_pci_spec(), "disk", BLOCK, config.DD_STARTUP,
                    None, CLASSIC_METRICS),
    "deepest_disk": (deep_hierarchy_spec(4, 8), "sw4_disk7", 64 * 1024,
                     config.DD_STARTUP, None, FIGURE_METRICS),
    "stress_armed": (validation_spec(error_rate=0.1, dllp_error_rate=0.1,
                                     replay_buffer_size=1,
                                     input_queue_size=1),
                     "disk", 64 * 1024, STRESS_STARTUP, True,
                     STRESS_METRICS),
}


def reference(topology, device, block, startup, check, record):
    """Run ``DdWorkload`` on the machine; return it and the system."""
    system = build_system(topology, check=check)
    if record and system.sim.checker.enabled:
        system.sim.checker.record_only = True
    dd = DdWorkload(system.kernel, system.drivers[device], block,
                    startup_overhead=startup)
    process = system.kernel.spawn("dd", dd.run())
    system.run(max_events=points._MAX_EVENTS)
    assert process.done
    return dd, system


@pytest.mark.parametrize("case", sorted(CASES))
def test_dd_flow_matches_dd_workload(case, monkeypatch):
    spec, device, block, startup, check, metrics = CASES[case]
    topology = spec.to_dict()
    seen = {}

    def capture(*args, **kwargs):
        seen["system"], seen["engine"] = run_flows(*args, **kwargs)
        return seen["system"], seen["engine"]

    monkeypatch.setattr(points, "run_flows", capture)
    reported = points.run_point(
        topology, dd_flows(block, startup, device=device),
        dict(metrics, throughput_gbps="dd_throughput_gbps",
             transfer_gbps="dd_transfer_gbps"), check=check)
    system = seen["system"]
    dd, ref = reference(topology, device, block, startup, check,
                        "violations" in metrics.values())

    assert reported["throughput_gbps"] == dd.result.throughput_gbps
    assert reported["transfer_gbps"] == dd.result.transfer_gbps
    finish = seen["engine"].results()["flows"]["dd"]["finish_tick"]
    start = seen["engine"].start_tick
    assert finish - start == dd.result.elapsed_ticks
    assert system.sim.curtick == ref.sim.curtick
    assert (system.sim.eventq.events_processed
            == ref.sim.eventq.events_processed - 1)
    if device in ref.links:
        assert (link_replay_stats(system.links[device])
                == link_replay_stats(ref.links[device]))
    machine = {key: value for key, value in system.stats().items()
               if not key.startswith("traffic.")}
    assert machine == ref.stats()
    skips = [(s.kernel.block_layer.requests_fast_forwarded,
              s.kernel.block_layer.sectors_fast_forwarded)
             for s in (system, ref)]
    assert skips[0] == skips[1]
    assert (system.sim.checker.violations == []) == (
        ref.sim.checker.violations == [])
