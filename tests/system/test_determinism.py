"""Whole-system determinism and statistics-dump sanity."""

import json

from repro.obs import MemorySink, export_stats
from repro.system.spec import validation_spec
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload


def run_once(trace=False, **kwargs):
    system = build_system(validation_spec(**kwargs))
    sink = None
    if trace:
        system.sim.tracer.categories = frozenset(("link", "engine"))
        sink = system.sim.tracer.attach(MemorySink())
    dd = DdWorkload(system.kernel, system.disk_driver, 32 * 1024,
                    startup_overhead=0)
    process = system.kernel.spawn("dd", dd.run())
    system.run(max_events=10_000_000)
    assert process.done
    return system, dd, sink


def test_identical_configs_produce_identical_results():
    system_a, dd_a, __ = run_once()
    system_b, dd_b, __ = run_once()
    assert system_a.sim.curtick == system_b.sim.curtick
    assert dd_a.result.elapsed_ticks == dd_b.result.elapsed_ticks
    assert system_a.sim.eventq.events_processed == system_b.sim.eventq.events_processed


def test_determinism_holds_under_error_injection():
    runs = [run_once(error_rate=0.1)[1].result.elapsed_ticks for __ in range(2)]
    assert runs[0] == runs[1]


def test_stats_dump_covers_the_whole_tree():
    system, __, __s = run_once()
    flat = system.stats()
    # Spot-check every subsystem appears in the flattened tree.
    for needle in (
        "disk.sectors_transferred",
        "disk_link.up_link.packets",
        "root_complex.upstream.pool_occupancy",
        "switch.down_port0.ingress_refusals",
        "iocache.allocations",
        "dram.writes",
        "kernel.intc.dispatched",
        "membus.pkt_count",
    ):
        assert any(needle in key for key in flat), f"missing {needle}"
    # And the pretty renderer handles the full tree.
    text = system.sim.stats.pretty()
    assert "disk_link" in text


def test_stats_reset_zeroes_counters_but_keeps_wiring():
    system, __, __s = run_once()
    assert system.disk.sectors_transferred.value() > 0
    system.sim.reset_stats()
    assert system.disk.sectors_transferred.value() == 0
    # The system still works after a reset (fresh measurement interval).
    dd = DdWorkload(system.kernel, system.disk_driver, 8 * 1024,
                    startup_overhead=0)
    process = system.kernel.spawn("dd2", dd.run())
    system.run(max_events=10_000_000)
    assert process.done
    assert system.disk.sectors_transferred.value() == 2


def test_traces_are_identical_across_fresh_simulators():
    __, __d, sink_a = run_once(trace=True)
    __, __d, sink_b = run_once(trace=True)
    # Not just the same counts at the end — the same events at the same
    # ticks, byte for byte once serialized.
    assert sink_a.to_jsonl() == sink_b.to_jsonl()


def test_traces_are_identical_under_error_injection():
    sinks = [run_once(trace=True, error_rate=0.1)[2] for __ in range(2)]
    assert sinks[0].to_jsonl() == sinks[1].to_jsonl()
    # The error path really was exercised.
    assert any(ev["ev"] == "tlp_corrupt" for ev in sinks[0].events)


def test_stats_export_is_identical_across_fresh_simulators():
    system_a, __, __s = run_once()
    system_b, __, __s = run_once()
    doc_a = json.dumps(export_stats(system_a.sim), sort_keys=True)
    doc_b = json.dumps(export_stats(system_b.sim), sort_keys=True)
    assert doc_a == doc_b


def test_tracing_does_not_perturb_simulated_time():
    system_plain, dd_plain, __s = run_once()
    system_traced, dd_traced, sink = run_once(trace=True)
    # Observation is pure: same final tick, same event count, same
    # workload result whether or not a sink was attached.
    assert system_plain.sim.curtick == system_traced.sim.curtick
    assert (system_plain.sim.eventq.events_processed
            == system_traced.sim.eventq.events_processed)
    assert (dd_plain.result.elapsed_ticks == dd_traced.result.elapsed_ticks)
    assert len(sink.events) > 0
