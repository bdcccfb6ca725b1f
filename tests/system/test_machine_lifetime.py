"""A dropped machine is freed by reference counting.

A built machine's strong references point down: the Simulator owns its
queue, tracer, checker, statistics and objects, a parent its children,
an owner its ports, queues and timers.  Every upward, peer and callback
edge is weak (ARCHITECTURE "Who owns whom").  So dropping the last
handle frees the whole machine at once, with the cyclic collector off:
a sweep, a benchmark loop or a script that builds machines one after
another holds one machine's memory, not one per collection interval.
"""

import gc
import weakref
from contextlib import contextmanager

from benchmarks import config
from benchmarks.sweeps import FIGURE_METRICS, dd_flows, stress_sweep
from repro.exp import Sweep, SweepEngine
from repro.exp.points import run_point
from repro.obs.trace import MemorySink
from repro.sim.simobject import Simulator
from repro.system.spec import validation_spec
from repro.system.topology import build_system
from repro.workloads.scenarios import run_flows
from repro.workloads.traffic import FlowSpec

from tests.golden.scenario import four_flow_scenario


@contextmanager
def collector_off():
    """The cyclic collector disabled, garbage from before swept first;
    the body must leave no cyclic garbage behind.  (A cycle among a
    machine's components need not hold its Simulator, whose weak
    reference would then die all the same.)"""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0, "the dropped machine left cyclic garbage"
    finally:
        if enabled:
            gc.enable()


def live_simulators() -> int:
    return sum(isinstance(obj, Simulator) for obj in gc.get_objects())


def _run_deep4(check=False, sink=None):
    """A weak reference to the Simulator of a finished four-flow deep4
    run whose every handle has been dropped."""
    scenario = four_flow_scenario()
    sim = Simulator(check=check)
    system, engine = run_flows(sim, scenario.topology, scenario.flows,
                               sink=sink)
    assert engine.completed
    assert not sim.checker.violations
    ref = weakref.ref(sim)
    del sim, system, engine
    return ref


def test_run_deep4_machine_dies_on_drop():
    with collector_off():
        assert _run_deep4()() is None


def test_checked_and_traced_deep4_machine_dies_on_drop():
    sink = MemorySink()
    with collector_off():
        ref = _run_deep4(check=True, sink=sink)
        assert ref() is None
    assert sink.events  # the sink outlives the machine it observed


def test_machine_whose_msi_waited_for_queue_space_dies_on_drop():
    # Posted DMA writes still fill the queue when a read completes, so
    # its MSI waits in a DMA pump (kernel/test_fast_forward.py).
    spec = validation_spec(posted_writes=True, enable_msi=True)
    flows = [FlowSpec("dd", "dd_read", "disk", requests=2,
                      bytes_per_request=64 * 512)]
    with collector_off():
        sim = Simulator(check=False)
        system, engine = run_flows(sim, spec, flows)
        assert engine.completed
        assert system.msi_doorbell.msis_received.value() == 2
        ref = weakref.ref(sim)
        del sim, system, engine
        assert ref() is None


def test_built_machine_dies_on_drop():
    with collector_off():
        system = build_system(four_flow_scenario().topology)
        ref = weakref.ref(system.sim)
        del system
        assert ref() is None


def test_flows_point_leaves_no_simulator():
    flows = dd_flows(config.BLOCK_SIZES["64MB"], 0)
    with collector_off():
        before = live_simulators()
        record = run_point(validation_spec().to_dict(), flows, FIGURE_METRICS)
        assert live_simulators() == before
    assert record["throughput_gbps"] > 0


def test_serial_checked_stress_sweep_leaves_no_simulator():
    # Every fourth point of the checker-armed stress grid (the sample
    # the pooled-sweep test runs), serially, in this process.
    full = stress_sweep().points
    sweep = Sweep("stress_sample")
    for point in full[::4]:
        sweep.add(point.key, point.runner, **point.params)
    with collector_off():
        before = live_simulators()
        results = SweepEngine().run(sweep, workers=1).results
        assert live_simulators() == before
    assert len(results) == len(sweep.points)
