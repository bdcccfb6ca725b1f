"""Named, JSON-describable multi-flow scenarios.

A :class:`Scenario` pairs a :class:`~repro.system.spec.TopologySpec`
with a list of :class:`~repro.workloads.traffic.FlowSpec` flows under a
stable name, and serializes to canonical JSON exactly like a topology
spec — so a sweep point, a trace artifact and a bug report can all
name *the complete experiment* (machine + traffic) they ran, and the
sweep result cache keys on it.

The library (:data:`SCENARIOS`) holds the canonical contention studies:

* ``fanout_contention`` — N equal ``dd`` readers behind one shared
  Gen2 x1 switch uplink (the fairness benchmark; widening the uplink
  is the canonical relief experiment);
* ``mixed_rw`` — a reader, a writer and an MMIO latency probe sharing
  one root port;
* ``irq_storm`` — a ``dd`` reader with a NIC spraying MSIs at the CPU;
* ``nic_loopback`` — two NICs streaming loopback frames side by side;
* ``accel_fanout`` — two DMA copy accelerators saturating a shared
  uplink from the third device kind.

Run one from Python (:func:`run_scenario`) or the command line::

    python -m repro.workloads.scenarios --list
    python -m repro.workloads.scenarios fanout_contention --check
    python -m repro.workloads.scenarios --all --check

The CLI exits non-zero if any flow fails to complete or (with
``--check`` or ``REPRO_CHECK=on``) any protocol invariant is violated;
tier-1 runs ``--all --check`` (``tests/workloads/test_scenarios.py``).
"""

import argparse
import sys
from typing import Any, List, Optional, Sequence, Tuple

from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.system.spec import (DeviceSpec, LinkSpec, Record, SwitchSpec,
                               TopologySpec, given, record_field,
                               records_field)
from repro.system.topology import build_system
from repro.workloads.traffic import FlowSpec, TrafficEngine, TrafficError

#: Trace categories scenario runs record when given a sink: the TLP
#: lifecycle, same vocabulary as the golden traces.
TRACE_CATEGORIES = ("link", "engine")


class Scenario(Record):
    """A named (topology, flows) pair; pure data, like the specs.

    Args:
        name: stable scenario name (cache keys, artifact names).
        topology: the fabric to build (finalized
            :class:`~repro.system.spec.TopologySpec`).
        flows: the traffic to drive through it.
        description: one human-readable line.
    """

    what = "scenario"
    error = TrafficError

    name: str
    topology: TopologySpec = record_field(TopologySpec)
    flows: List[FlowSpec] = records_field(
        lambda doc, where: FlowSpec.from_dict(doc))
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise TrafficError("scenario name must be non-empty")
        if not self.flows:
            raise TrafficError(f"scenario {self.name!r} has no flows")
        self.flows = list(self.flows)

    def __repr__(self) -> str:
        return (f"<Scenario {self.name!r} flows={len(self.flows)} "
                f"digest={self.digest()}>")


# -- library builders -------------------------------------------------------
#
# Each builder names only the knobs its experiment changes; every other
# link and device field takes its record's default (a device given no
# link gets the LinkSpec defaults, named after the device).

def fanout_contention(
    fanout: int = 4,
    uplink_width: Optional[int] = None,
    requests: int = 8,
    block_bytes: int = 8192,
    error_rate: Optional[float] = None,
) -> Scenario:
    """``fanout`` equal ``dd`` readers on sibling disks behind one
    shared uplink — the canonical fairness experiment.

    The fabric is depth 2: a x4 trunk to the top switch, then the
    contended ``uplink`` (Gen 2, ``uplink_width`` lanes) down to a leaf
    switch fanning out to the disks on x4 device links, so the uplink
    is the only bottleneck.  ``error_rate`` applies to the uplink (the
    stress-campaign point injects there).
    """
    uplink = LinkSpec(name="uplink",
                      **given(width=uplink_width, error_rate=error_rate))
    disks = [DeviceSpec("disk", name=f"disk{i}", link=LinkSpec(width=4))
             for i in range(fanout)]
    topology = TopologySpec(children=[
        SwitchSpec(name="sw_top", link=LinkSpec(name="trunk", width=4),
                   children=[SwitchSpec(name="sw_leaf", link=uplink,
                                        children=disks)]),
    ]).finalize()
    flows = [
        FlowSpec(name=f"reader{i}", kind="dd_read", device=f"disk{i}",
                 requests=requests, bytes_per_request=block_bytes,
                 seed=1 + i)
        for i in range(fanout)
    ]
    return Scenario(
        "fanout_contention", topology, flows,
        f"{fanout} equal dd readers contending at a Gen2 "
        f"x{uplink.width} uplink")


def mixed_rw(requests: int = 6) -> Scenario:
    """A ``dd`` reader, a ``dd`` writer and an MMIO latency probe
    sharing one x1 root uplink (read/write/completion TLPs mixed on
    one edge)."""
    topology = TopologySpec(children=[
        SwitchSpec(name="switch", link=LinkSpec(name="root_uplink"),
                   children=[DeviceSpec("disk", name="disk_r"),
                             DeviceSpec("disk", name="disk_w")]),
    ]).finalize()
    flows = [
        FlowSpec(name="reader", kind="dd_read", device="disk_r",
                 requests=requests, bytes_per_request=8192, seed=1),
        FlowSpec(name="writer", kind="dd_write", device="disk_w",
                 requests=requests, bytes_per_request=8192, seed=2),
        FlowSpec(name="probe", kind="mmio_read", device="disk_r",
                 requests=requests * 2, gap=ticks.from_us(20), seed=3),
    ]
    return Scenario("mixed_rw", topology, flows,
                    "reader + writer + MMIO probe on one x1 root uplink")


def irq_storm(requests: int = 4, storm_interrupts: int = 40,
              seed: int = 1) -> Scenario:
    """A ``dd`` reader racing a NIC that sprays jittered MSI writes at
    the CPU through the shared root port (MSI is enabled fabric-wide,
    so every interrupt is a posted memory write on the wires)."""
    topology = TopologySpec(
        enable_msi=True,
        children=[
            SwitchSpec(name="switch", link=LinkSpec(name="root_uplink"),
                       children=[DeviceSpec("disk", name="disk"),
                                 DeviceSpec("nic", name="nic")]),
        ]).finalize()
    flows = [
        FlowSpec(name="reader", kind="dd_read", device="disk",
                 requests=requests, bytes_per_request=8192, seed=seed),
        FlowSpec(name="storm", kind="irq_storm", device="nic",
                 requests=storm_interrupts, gap=ticks.from_us(2),
                 jitter=0.5, seed=seed + 1),
    ]
    return Scenario("irq_storm", topology, flows,
                    "dd reader racing an MSI interrupt storm")


def nic_loopback(frames: int = 6) -> Scenario:
    """Two NICs streaming MAC-loopback frames side by side behind one
    switch (every frame is a TX DMA read plus an RX DMA write)."""
    topology = TopologySpec(children=[
        SwitchSpec(name="switch", link=LinkSpec(name="root_uplink", width=2),
                   children=[DeviceSpec("nic", name=f"nic{i}")
                             for i in range(2)]),
    ]).finalize()
    flows = [
        FlowSpec(name=f"stream{i}", kind="nic_tx", device=f"nic{i}",
                 requests=frames, bytes_per_request=1500, loopback=True,
                 seed=1 + i)
        for i in range(2)
    ]
    return Scenario("nic_loopback", topology, flows,
                    "two NICs streaming loopback frames side by side")


def accel_fanout(copies: int = 4) -> Scenario:
    """Two DMA copy accelerators (the third device kind) fanning DMA
    read+write bursts through a shared x2 uplink.

    The accelerators run at their device-default DMA depth.  This
    scenario used to pin ``dma_outstanding: 8`` to dodge the shared
    buffer pool's request livelock; per-class flow-control credits
    (see ARCHITECTURE.md, "Flow control & ordering") removed the need.
    """
    topology = TopologySpec(children=[
        SwitchSpec(name="switch", link=LinkSpec(name="root_uplink", width=2),
                   children=[DeviceSpec("accel", name=f"accel{i}")
                             for i in range(2)]),
    ]).finalize()
    flows = [
        FlowSpec(name=f"copier{i}", kind="accel_copy", device=f"accel{i}",
                 requests=copies, bytes_per_request=16384, seed=1 + i)
        for i in range(2)
    ]
    return Scenario("accel_fanout", topology, flows,
                    "two DMA copy accelerators sharing an uplink")


def np_storm(requests: int = 4) -> Scenario:
    """Two concurrent unthrottled ``dd`` writers — a non-posted DMA read
    storm at the disks' default DMA depth (64 outstanding each).

    This is the exact configuration that used to livelock the fabric
    when ports kept a single shared buffer pool (known deviation #4,
    retired): the writers' DMA reads filled every buffer on the path
    and the completions they waited on had nowhere to land.  With
    per-class credits (see ARCHITECTURE.md, "Flow control & ordering")
    a non-posted flood can exhaust only the NP partition, completions
    always have a dedicated path, and the storm completes.  The
    scenario stays in the library as the credit-starvation regression:
    it must finish checker-armed with zero violations, unpinned.
    """
    topology = TopologySpec(children=[
        SwitchSpec(name="switch", link=LinkSpec(name="root_uplink"),
                   children=[DeviceSpec("disk", name=f"disk{i}")
                             for i in range(2)]),
    ]).finalize()
    flows = [
        FlowSpec(name=f"writer{i}", kind="dd_write", device=f"disk{i}",
                 requests=requests, bytes_per_request=16384, seed=1 + i)
        for i in range(2)
    ]
    return Scenario(
        "np_storm", topology, flows,
        "2 unthrottled dd writers (non-posted DMA read storm)")


#: The scenario library: stable name -> zero-argument builder.  Every
#: entry must run checker-armed with zero violations (the test battery
#: runs ``--all --check`` to enforce it).
SCENARIOS = {
    "fanout_contention": fanout_contention,
    "mixed_rw": mixed_rw,
    "irq_storm": irq_storm,
    "nic_loopback": nic_loopback,
    "accel_fanout": accel_fanout,
    "np_storm": np_storm,
}


def run_scenario(
    scenario: Scenario,
    check: Optional[bool] = None,
    sink=None,
    categories: Sequence[str] = TRACE_CATEGORIES,
    max_events: int = 200_000_000,
) -> Tuple[Any, TrafficEngine]:
    """Build the scenario's fabric, drive its flows to completion, and
    return ``(system, engine)``.

    Args:
        scenario: the scenario to run.
        check: arm the invariant checker (None defers to the
            ``REPRO_CHECK`` environment variable).  Armed runs record
            violations (``system.sim.checker.violations``) instead of
            raising, so callers can assert on the full list.
        sink: optional trace sink attached *after* boot (the trace
            covers traffic, not enumeration), restricted to
            ``categories``.
        max_events: safety valve for runaway scenarios.

    Keep ``system`` while using ``engine``: the engine refers to it
    weakly, and dropping it frees the machine.
    """
    sim = Simulator(check=check)
    if sim.checker.enabled:
        sim.checker.record_only = True
    return run_flows(sim, scenario.topology, scenario.flows, sink=sink,
                     categories=categories, max_events=max_events)


def run_flows(sim: Simulator, topology, flows: Sequence[FlowSpec], sink=None,
              categories: Sequence[str] = TRACE_CATEGORIES,
              max_events: int = 200_000_000) -> Tuple[Any, TrafficEngine]:
    """Build ``topology`` (a spec or its document) on ``sim`` and drive
    ``flows`` to completion: the path every scenario and sweep point
    runs.  Arguments and result are :func:`run_scenario`'s."""
    system = build_system(topology, sim=sim)
    if sink is not None:
        sim.tracer.categories = frozenset(categories)
        sim.tracer.attach(sink)
    engine = TrafficEngine(system, flows)
    engine.start()
    system.run(max_events=max_events)
    return system, engine


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: run library scenarios and summarize per-flow results."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.scenarios",
        description="Run multi-flow traffic scenarios from the library.")
    parser.add_argument("names", nargs="*",
                        help="scenario names (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list library scenarios and exit")
    parser.add_argument("--all", action="store_true",
                        help="run every library scenario")
    parser.add_argument("--check", action="store_true",
                        help="arm the protocol-invariant checker")
    args = parser.parse_args(argv)

    if args.list:
        for name, builder in sorted(SCENARIOS.items()):
            scenario = builder()
            print(f"{name:20s} {scenario.description} "
                  f"({len(scenario.flows)} flows, digest {scenario.digest()})")
        return 0

    names = sorted(SCENARIOS) if args.all else list(args.names)
    if not names:
        parser.error("give scenario names, --all, or --list")
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenarios: {unknown} "
                     f"(library: {sorted(SCENARIOS)})")

    failed = False
    for name in names:
        scenario = SCENARIOS[name]()
        system, engine = run_scenario(
            scenario, check=True if args.check else None)
        results = engine.results()
        violations = system.sim.checker.violations
        print(f"== {name} (digest {scenario.digest()}) ==")
        from repro.analysis.report import flow_table, format_table
        print(format_table(flow_table(results)))
        print(f"fairness_index = {results['fairness_index']:.4f}   "
              f"total = {results['total_gbps']:.3f} Gbps   "
              f"completed = {results['completed']}   "
              f"violations = {len(violations)}")
        if not results["completed"]:
            print(f"FAIL: scenario {name!r} did not complete", file=sys.stderr)
            failed = True
        if violations:
            rules = sorted({v.rule for v in violations})
            print(f"FAIL: scenario {name!r} violated invariants: {rules}",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
