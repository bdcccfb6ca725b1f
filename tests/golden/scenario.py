"""The canonical runs behind the golden-trace regression files.

A golden trace freezes the *entire observable behaviour* of a scenario
— every TLP transmission, delivery, refusal, replay and DLLP, with
exact ticks and sequence numbers — as canonical JSONL bytes.  Any
change to event ordering, link timing, replay policy or the trace
vocabulary flips the byte comparison red, which is the point: such
changes must be deliberate, reviewed, and followed by ``regen.py``.

The ``dd`` scenarios drive a 4 KiB ``dd`` read through the paper's
validation topology narrowed to Gen 2 x1 links; ``dd_gen2x1_err`` also
injects ``error_rate=0.2`` to pin the NAK/replay machinery.  The
``traffic`` scenario (``two_flow_fanout``) runs two concurrent dd
readers behind one shared uplink through the multi-flow traffic
engine, pinning the deterministic interleaving of concurrent
initiators.  Traces restrict to the ``link``/``engine`` categories —
the TLP lifecycle — so the files stay reviewable (a few thousand
events each).

:func:`four_flow_scenario` has no trace file: it is the deep-fabric
run whose event schedule ``tests/sim/test_hot_path_budget.py`` pins.
"""

import os

from repro.obs.trace import MemorySink
from repro.system.spec import deep_hierarchy_spec, validation_spec
from repro.system.topology import build_system
from repro.workloads import scenarios as scenario_lib
from repro.workloads.dd import DdWorkload
from repro.workloads.traffic import FlowSpec

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

#: name -> scenario kwargs (plus an optional ``kind`` selecting the
#: runner: ``"dd"`` is the single-flow validation run, ``"traffic"``
#: the multi-flow engine).  The meta recorded in the header is exactly
#: these kwargs, so a golden file says what made it.
SCENARIOS = {
    "dd_gen2x1": {"error_rate": 0.0},
    "dd_gen2x1_err": {"error_rate": 0.2},
    "two_flow_fanout": {"kind": "traffic", "error_rate": 0.0},
}

BLOCK_BYTES = 4096
TRACE_CATEGORIES = ("link", "engine")


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.jsonl")


def run_dd_system(name: str, error_rate: float, sink=None,
                  categories=TRACE_CATEGORIES, **overrides):
    """Run a ``dd`` golden scenario to completion; return the finished
    system and the trace sink (a fresh :class:`MemorySink` unless given)
    that watched the ``categories``."""
    system = build_system(validation_spec(root_link_width=1,
                                          device_link_width=1,
                                          error_rate=error_rate, **overrides))
    if sink is None:
        sink = MemorySink()
    system.sim.tracer.categories = frozenset(categories)
    system.sim.tracer.attach(sink)
    dd = DdWorkload(system.kernel, system.drivers["disk"], BLOCK_BYTES,
                    startup_overhead=0)
    process = system.kernel.spawn("dd", dd.run())
    system.run(max_events=10_000_000)
    assert process.done, f"golden scenario {name!r} did not finish"
    return system, sink


def _run_dd(name: str, error_rate: float, **overrides) -> str:
    __, sink = run_dd_system(name, error_rate, **overrides)
    meta = {"scenario": name, "block_bytes": BLOCK_BYTES,
            "error_rate": error_rate,
            "categories": sorted(TRACE_CATEGORIES)}
    return sink.to_jsonl(meta=meta)


def _run_traffic(name: str, error_rate: float, **overrides) -> str:
    scenario = scenario_lib.fanout_contention(
        fanout=2, requests=1, block_bytes=BLOCK_BYTES,
        error_rate=error_rate, **overrides,
    )
    sink = MemorySink()
    system, engine = scenario_lib.run_scenario(
        scenario, sink=sink, categories=TRACE_CATEGORIES)
    assert engine.completed, f"golden scenario {name!r} did not finish"
    meta = {"scenario": name, "block_bytes": BLOCK_BYTES,
            "error_rate": error_rate, "flows": len(scenario.flows),
            "categories": sorted(TRACE_CATEGORIES)}
    return sink.to_jsonl(meta=meta)


def four_flow_scenario() -> scenario_lib.Scenario:
    """Two readers and two writers, one per level of the depth-4
    fan-out-2 MSI fabric, all contending for the root link."""
    topo = deep_hierarchy_spec(4, 2, enable_msi=True)
    flows = [
        FlowSpec(name=f"f{i}", kind="dd_write" if i % 2 else "dd_read",
                 device=f"sw{i + 1}_disk0", requests=6,
                 bytes_per_request=16384, seed=7 + i)
        for i in range(4)
    ]
    return scenario_lib.Scenario(name="deep_msi", topology=topo, flows=flows)


def run_scenario(name: str, **overrides) -> str:
    """Run one golden scenario from a fresh Simulator; return the trace
    as the exact JSONL text a golden file holds."""
    kwargs = dict(SCENARIOS[name])
    kwargs.update(overrides)
    kind = kwargs.pop("kind", "dd")
    error_rate = kwargs.pop("error_rate")
    runner = _run_traffic if kind == "traffic" else _run_dd
    return runner(name, error_rate, **kwargs)
