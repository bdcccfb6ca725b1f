"""Sweep definitions for every paper figure/table reproduction.

One builder per experiment, each returning a :class:`repro.exp.Sweep`
whose points carry only canonical-JSON-safe parameters (so they cache
and parallelise; see :mod:`repro.exp.spec`).  The
``python -m benchmarks.harness`` CLI runs them, and tier-1's
``tests/test_artifacts.py`` regenerates every payload through it, which
keeps the set of simulated configurations defined in exactly one place.

Every point is the same triple for the one runner,
:func:`repro.exp.points.run_point`:

* ``topology`` — the serialised spec a :mod:`repro.system.spec` preset
  made (``validation_spec``, ``nic_spec``, ``classic_pci_spec``,
  ``deep_hierarchy_spec``) with the swept knob set on the preset;
* ``flows`` — the software as serialised flow specs: a ``dd`` is one
  ``dd_read`` request of the whole block whose start delay is dd's
  startup cost, Table II's kernel module one ``mmio_read`` flow, and a
  scenario its own flows;
* ``metrics`` — which entries of the point's record land in the
  payload, under which names.

A point's cache key is therefore the canonical document of the exact
experiment it runs, never a builder's argument list.

Point keys are stable, human-readable labels (``"128MB/x8"``,
``"rc100"``) — they are the merge keys of the persisted results, so
renaming one invalidates nothing in the cache but does change the
result document.
"""

from benchmarks import config
from repro.exp import Sweep
from repro.sim import ticks
from repro.system.spec import (classic_pci_spec, deep_hierarchy_spec,
                               nic_spec, validation_spec)
from repro.workloads.scenarios import SCENARIOS, fanout_contention, np_storm
from repro.workloads.traffic import FlowSpec

#: The runner every point names (see repro.exp.points).
RUN_POINT = "repro.exp.points:run_point"

#: Fig. 9(b) sweeps the paper's smallest and a mid-size block.
FIG9B_BLOCKS = ("64MB", "256MB")

#: Fig. 9(c)/(d) and the ablations use one mid/low block size.
FIG9CD_BLOCK = "128MB"
ABLATION_BLOCK = "64MB"

#: Payload keys of the dd figure points, read from the ``dd`` flow.
FIGURE_METRICS = {key: f"dd_{key}" for key in (
    "throughput_gbps", "transfer_gbps", "replay_fraction", "fc_stall_ticks",
    "timeouts", "tlps_sent", "device_level_gbps")}

#: The classic PCI bus has no link layer to report on.
CLASSIC_METRICS = {"throughput_gbps": "dd_throughput_gbps"}

#: The stress gate's pair, plus the disk link's recovery counters.
STRESS_METRICS = {
    "completed": "completed",
    "violations": "violations",
    "violated_rules": "violated_rules",
    **{key: f"dd_{key}" for key in (
        "throughput_gbps", "replay_fraction", "timeouts", "tlps_corrupted",
        "dllps_corrupted")},
}

#: Table II: the mean latency of the ``mmio`` probe flow.
MMIO_METRICS = {"mmio_read_ns": "mmio_mean_ns"}

#: Timed 4-byte reads Table II averages over.
MMIO_READS = 50


def dd_flows(block_bytes, start_delay, device="disk"):
    """``dd`` as a flow list: one read of the whole block, after dd's
    startup cost, from ``device``."""
    return [FlowSpec("dd", "dd_read", device, requests=1,
                     bytes_per_request=block_bytes,
                     start_delay=start_delay).to_dict()]


def _dd_params(block_label, **spec_kwargs):
    """Calibrated dd-point parameters for one paper block size, on the
    validation fabric with ``spec_kwargs`` set on its preset."""
    return dict(topology=validation_spec(**spec_kwargs).to_dict(),
                flows=dd_flows(config.BLOCK_SIZES[block_label],
                               config.DD_STARTUP),
                metrics=FIGURE_METRICS)


def scenario_params(scenario):
    """A library scenario as point parameters, reporting the stress-gate
    pair, the fairness headline and each flow's rate, share, tail and
    bytes under their record names."""
    keys = ["completed", "violations", "violated_rules", "fairness_index",
            "total_gbps"]
    keys += [f"{flow.name}_{key}" for flow in scenario.flows
             for key in ("gbps", "share", "p99_ns", "bytes")]
    return dict(topology=scenario.topology.to_dict(),
                flows=[flow.to_dict() for flow in scenario.flows],
                metrics={key: key for key in keys})


def fig9a_sweep() -> Sweep:
    """Fig. 9(a): block size × switch latency (50/100/150 ns)."""
    sweep = Sweep("fig9a")
    for label in config.BLOCK_SIZES:
        for ns in config.SWITCH_LATENCIES_NS:
            sweep.add(f"{label}/L{ns}", RUN_POINT,
                      **_dd_params(label, switch_latency=ticks.from_ns(ns)))
    return sweep


def fig9b_sweep() -> Sweep:
    """Fig. 9(b): link width x1/x2/x4/x8, all links swept together."""
    sweep = Sweep("fig9b")
    for label in FIG9B_BLOCKS:
        for width in config.LINK_WIDTHS:
            sweep.add(f"{label}/x{width}", RUN_POINT,
                      **_dd_params(label, root_link_width=width,
                                   device_link_width=width))
    return sweep


def fig9c_sweep() -> Sweep:
    """Fig. 9(c): x8 fabric, replay-buffer size 1/2/3/4."""
    sweep = Sweep("fig9c")
    for rb in config.REPLAY_BUFFER_SIZES:
        sweep.add(f"rb{rb}", RUN_POINT,
                  **_dd_params(FIG9CD_BLOCK, root_link_width=8,
                               device_link_width=8, replay_buffer_size=rb))
    return sweep


def fig9d_sweep() -> Sweep:
    """Fig. 9(d): x8 fabric, port buffers 16/20/24/28 (+rb2 reference)."""
    sweep = Sweep("fig9d")
    for buf in config.PORT_BUFFER_SIZES:
        sweep.add(f"buf{buf}", RUN_POINT,
                  **_dd_params(FIG9CD_BLOCK, root_link_width=8,
                               device_link_width=8, buffer_size=buf))
    sweep.add("rb2_reference", RUN_POINT,
              **_dd_params(FIG9CD_BLOCK, root_link_width=8,
                           device_link_width=8, replay_buffer_size=2))
    return sweep


def table2_sweep() -> Sweep:
    """Table II: root-complex latency vs 4-byte MMIO read time."""
    sweep = Sweep("table2")
    for ns in config.RC_LATENCIES_NS:
        sweep.add(f"rc{ns}", RUN_POINT,
                  topology=nic_spec(rc_latency=ticks.from_ns(ns)).to_dict(),
                  flows=[FlowSpec("mmio", "mmio_read", "nic",
                                  requests=MMIO_READS).to_dict()],
                  metrics=MMIO_METRICS)
    return sweep


def ablations_sweep() -> Sweep:
    """DESIGN.md's modelling-decision ablations (not paper figures)."""
    sweep = Sweep("ablations")
    sweep.add("baseline", RUN_POINT, **_dd_params(ABLATION_BLOCK))
    sweep.add("posted_writes", RUN_POINT,
              **_dd_params(ABLATION_BLOCK, posted_writes=True))
    sweep.add("ack_timer", RUN_POINT,
              **_dd_params(ABLATION_BLOCK, ack_policy="timer"))
    sweep.add("engine_datapath", RUN_POINT,
              **_dd_params(ABLATION_BLOCK, datapath_scope="engine"))
    sweep.add("gen1", RUN_POINT, **_dd_params(ABLATION_BLOCK, gen="GEN1"))
    sweep.add("gen3", RUN_POINT, **_dd_params(ABLATION_BLOCK, gen="GEN3"))
    sweep.add("zero_switch_latency", RUN_POINT,
              **_dd_params(ABLATION_BLOCK, switch_latency=0))
    sweep.add("classic_pci", RUN_POINT,
              topology=classic_pci_spec().to_dict(),
              flows=dd_flows(config.BLOCK_SIZES[ABLATION_BLOCK],
                             config.DD_STARTUP),
              metrics=CLASSIC_METRICS)
    return sweep


#: Stress-campaign grid (see stress_sweep): deliberately includes the
#: degenerate single-entry replay buffer and input queue, where every
#: recovery corner (source throttling + NAK + timeout) is exercised.
STRESS_ERROR_RATES = (0.0, 0.02, 0.1)
STRESS_DLLP_ERROR_RATES = (0.0, 0.1)
STRESS_REPLAY_BUFFERS = (1, 2, 4)
STRESS_INPUT_QUEUES = (1, 2)

#: One small dd block per stress point keeps the 36-point grid (38 with
#: the multi-flow and credit-starvation points) cheap while still
#: moving enough TLPs (~1k) to hit every recovery path.
STRESS_BLOCK_BYTES = 64 * 1024

#: The stress grid's dd startup: the dd model's default, 500 us.
STRESS_STARTUP = ticks.from_us(500)


def stress_sweep() -> Sweep:
    """Fault-injection campaign: error rates × link-layer buffer sizes.

    Every point runs ``dd`` under the runtime invariant checker, in
    record mode because its metrics report ``violations``; the campaign
    passes when every configuration completes the transfer with zero
    protocol-invariant violations.
    """
    sweep = Sweep("stress")
    for er in STRESS_ERROR_RATES:
        for dr in STRESS_DLLP_ERROR_RATES:
            for rb in STRESS_REPLAY_BUFFERS:
                for iq in STRESS_INPUT_QUEUES:
                    spec = validation_spec(
                        error_rate=er, dllp_error_rate=dr,
                        replay_buffer_size=rb, input_queue_size=iq)
                    sweep.add(f"er{er}/dllp{dr}/rb{rb}/iq{iq}", RUN_POINT,
                              topology=spec.to_dict(),
                              flows=dd_flows(STRESS_BLOCK_BYTES,
                                             STRESS_STARTUP),
                              metrics=STRESS_METRICS, check=True)
    # The 37th point: a *multi-flow* scenario under fault injection on
    # the shared uplink, so the campaign also gates concurrent-initiator
    # recovery.
    sweep.add(
        "multiflow/er0.02", RUN_POINT,
        **scenario_params(fanout_contention(fanout=2, requests=2,
                                             block_bytes=8192,
                                             error_rate=0.02)),
        check=True,
    )
    # The 38th point: the credit-starvation regression.  Unthrottled
    # concurrent dd writers at the disk-default DMA depth — the exact
    # configuration that livelocked under the single shared buffer pool
    # (retired known deviation #4) — must complete checker-armed, which
    # also arms the per-class credit-conservation invariants.
    sweep.add(
        "np_storm/unpinned", RUN_POINT,
        **scenario_params(np_storm(requests=2)),
        check=True,
    )
    return sweep


#: Deep-hierarchy exploration grid: switch-spine depth × devices per
#: switch.  The deepest point (d4/f8) is a 32-device fabric.
DEEP_HIERARCHY_DEPTHS = (1, 2, 3, 4)
DEEP_HIERARCHY_FANOUTS = (1, 2, 4, 8)

#: One small dd block per deep-hierarchy point: the experiment measures
#: fabric traversal cost, not sustained bandwidth, so a short transfer
#: over the 16-point grid is enough.
DEEP_HIERARCHY_BLOCK_BYTES = 64 * 1024


def deep_hierarchy_sweep() -> Sweep:
    """Topology exploration: dd throughput vs switch depth and fan-out.

    Each point builds a :func:`repro.system.spec.deep_hierarchy_spec`
    machine — a spine of ``depth`` switches carrying ``fanout`` devices
    each — and runs ``dd`` against the *deepest* disk, so throughput
    decays with every store-and-forward hop the fabric adds.  The full
    serialised spec travels in the point parameters: the result cache
    keys on the exact machine, and the results artifact names it.
    """
    sweep = Sweep("deep_hierarchy")
    for depth in DEEP_HIERARCHY_DEPTHS:
        for fanout in DEEP_HIERARCHY_FANOUTS:
            sweep.add(f"d{depth}/f{fanout}", RUN_POINT,
                      topology=deep_hierarchy_spec(depth, fanout).to_dict(),
                      flows=dd_flows(DEEP_HIERARCHY_BLOCK_BYTES,
                                     config.DD_STARTUP,
                                     device=f"sw{depth}_disk{fanout - 1}"),
                      metrics=FIGURE_METRICS)
    return sweep


#: Uplink widths the traffic sweep relieves the contended uplink with.
TRAFFIC_UPLINK_WIDTHS = (1, 2, 4)


def traffic_sweep() -> Sweep:
    """Multi-flow contention study: the scenario library as sweep points.

    ``fanout_contention`` runs at three uplink widths (the fairness/
    tail-latency relief curve); the rest of the library rides along at
    defaults so the sweep doubles as a cached regression net over every
    scenario.  Each point's parameters carry the full serialised
    scenario, so the result cache keys on the exact experiment.
    """
    sweep = Sweep("traffic")
    for width in TRAFFIC_UPLINK_WIDTHS:
        sweep.add(f"fanout_contention/x{width}", RUN_POINT,
                  **scenario_params(fanout_contention(uplink_width=width)))
    for name, builder in sorted(SCENARIOS.items()):
        if name == "fanout_contention":
            continue  # swept above at three widths
        sweep.add(name, RUN_POINT, **scenario_params(builder()))
    return sweep


def device_level_sweep() -> Sweep:
    """Section VI-B in-text: device-level sector throughput, Gen 2 x1."""
    sweep = Sweep("device_level")
    sweep.add("gen2_x1", RUN_POINT, **_dd_params("64MB"))
    return sweep


#: CLI/EXPERIMENTS.md registry: experiment name -> sweep builder.
SWEEPS = {
    "fig9a": fig9a_sweep,
    "fig9b": fig9b_sweep,
    "fig9c": fig9c_sweep,
    "fig9d": fig9d_sweep,
    "table2": table2_sweep,
    "ablations": ablations_sweep,
    "device_level": device_level_sweep,
    "stress": stress_sweep,
    "deep_hierarchy": deep_hierarchy_sweep,
    "traffic": traffic_sweep,
}
