"""Library-level sweep-point runners.

These are the functions sweep points reference by dotted path
(``"repro.exp.points:dd_point"``).  Each builds a fresh system, runs
one workload to completion, and returns a flat, canonical-JSON-safe
metrics dict — no tracing, no file output, no shared state — so a
point is exactly as reproducible from its parameters as the cache
assumes.

Every runner takes its machine as ``topology``: the ``to_dict()``
document of a :class:`~repro.system.spec.TopologySpec` (or
:class:`~repro.system.spec.ClassicPciSpec`), usually made by one of
the presets in :mod:`repro.system.spec`.  The whole document lands in
the point's parameters, so the result cache keys on the canonical
serialisation of the exact machine a point runs.  The remaining
parameters are JSON-safe scalars; tick quantities (such as
``startup_overhead``) are plain tick ints.
"""

from typing import Any, Dict, Optional

from repro.analysis.report import link_replay_stats
from repro.sim import ticks
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload
from repro.workloads.mmio import MmioReadBench
from repro.workloads.scenarios import Scenario, run_scenario

__all__ = ["dd_point", "mmio_point", "classic_pci_point", "stress_point",
           "scenario_point"]

#: Guard against wedged simulations when a point runs unattended in a
#: worker process; matches the benchmark harness's historical bound.
_MAX_EVENTS = 500_000_000


def _run_dd(system, driver, block_bytes: int,
            startup_overhead: int) -> DdWorkload:
    """Run one ``dd`` block through ``driver`` to completion."""
    dd = DdWorkload(system.kernel, driver, block_bytes,
                    startup_overhead=startup_overhead)
    process = system.kernel.spawn("dd", dd.run())
    system.run(max_events=_MAX_EVENTS)
    if not process.done:
        raise RuntimeError("dd did not finish — simulation wedged?")
    return dd


def dd_point(topology: Dict[str, Any], block_bytes: int,
             startup_overhead: int = 0, device: Optional[str] = None,
             check: Optional[bool] = None) -> Dict[str, float]:
    """Run one ``dd`` transfer on the machine ``topology`` describes.

    Args:
        topology: the machine, as a serialised topology spec.
        block_bytes: bytes transferred by the single ``dd`` block.
        startup_overhead: dd's fixed software startup cost, in ticks.
        device: instance name of the disk ``dd`` targets (its link
            shares the name); None uses the topology's sole disk.
        check: arm the runtime invariant checker (None defers to
            ``REPRO_CHECK``; the harness's ``--check`` sets True).

    Returns:
        Flat metrics dict: dd-level and transfer-level throughput,
        replay fraction, credit-stall ticks, timeout and TLP counts,
        and device-level per-sector throughput — everything Figures
        9(a–d) and the device-level check consume.
    """
    system = build_system(topology, check=check)
    if device is not None:
        driver = system.drivers[device]
        disk, link = driver.device, system.links[device]
    else:
        driver, disk, link = system.disk_driver, system.disk, system.disk_link
        if driver is None:
            raise ValueError("topology has no unambiguous disk; "
                             "name the target with device=")
    dd = _run_dd(system, driver, block_bytes, startup_overhead)
    stats = link_replay_stats(link)
    sector_mean = disk.sector_transfer_ticks.mean
    return {
        "throughput_gbps": dd.result.throughput_gbps,
        "transfer_gbps": dd.result.transfer_gbps,
        "replay_fraction": stats["replay_fraction"],
        "fc_stall_ticks": stats["fc_stall_ticks"],
        "timeouts": stats["timeouts"],
        "tlps_sent": stats["tlps_sent"],
        "device_level_gbps": (
            disk.sector_size * 8 / ticks.to_ns(sector_mean)
            if sector_mean
            else 0.0
        ),
    }


def mmio_point(topology: Dict[str, Any], iterations: int = 50,
               check: Optional[bool] = None) -> Dict[str, float]:
    """Measure mean 4-byte MMIO read latency to the machine's sole NIC.

    Args:
        topology: the machine, as a serialised topology spec (Table II
            sweeps the root-complex latency of ``nic_spec``).
        iterations: timed MMIO reads to average over.
        check: arm the runtime invariant checker (None defers to
            ``REPRO_CHECK``).

    Returns:
        ``{"mmio_read_ns": <mean latency in ns>}``.
    """
    system = build_system(topology, check=check)
    bench = MmioReadBench(system.kernel, system.nic_driver.bar0 + 0x8,
                          iterations=iterations)
    process = system.kernel.spawn("mmio", bench.run())
    system.run()
    if not process.done:
        raise RuntimeError("MMIO bench did not finish")
    return {"mmio_read_ns": bench.mean_latency_ns}


def classic_pci_point(topology: Dict[str, Any], block_bytes: int,
                      startup_overhead: int = 0,
                      check: bool = False) -> Dict[str, float]:
    """Run one ``dd`` transfer on a classic shared-PCI-bus machine.

    Used by the PCI-vs-PCIe ablation with a ``classic_pci_spec``
    document; returns only dd-level throughput because the classic bus
    has no link layer to report on.  ``check`` arms the runtime
    invariant checker (``--check`` in the harness).
    """
    system = build_system(topology, check=check)
    dd = _run_dd(system, system.disk_driver, block_bytes, startup_overhead)
    return {"throughput_gbps": dd.result.throughput_gbps}


def stress_point(topology: Dict[str, Any], block_bytes: int,
                 check: bool = True) -> Dict[str, float]:
    """One point of the fault-injection stress campaign.

    Builds the machine — the campaign sets error rates, replay buffers
    and input queues on both links of a ``validation_spec`` — arms the
    invariant checker in *record* mode, runs a single ``dd`` transfer,
    and reports whether the transfer completed and how many protocol
    invariants were violated along the way.  A healthy link layer
    completes every configuration in the campaign grid with
    ``violations == 0`` — that pair of assertions is the campaign's
    entire point.

    Args:
        topology: the machine, as a serialised topology spec.
        block_bytes: bytes moved by the single ``dd`` block (the
            campaign uses a small block so the whole grid stays cheap).
        check: arm the checker (kept as a knob so ``--check`` composes).

    Returns:
        ``completed``/``violations`` plus link-recovery metrics of the
        disk's link (replay fraction, timeouts, corruption counts).
    """
    system = build_system(topology, check=check)
    # Record-only: a campaign point reports every violation it saw
    # rather than dying on the first, so one sweep run characterises
    # the whole grid.
    system.sim.checker.record_only = True
    dd = DdWorkload(system.kernel, system.disk_driver, block_bytes)
    process = system.kernel.spawn("dd", dd.run())
    system.run(max_events=_MAX_EVENTS)
    stats = link_replay_stats(system.disk_link)
    ifaces = [system.disk_link.upstream_if, system.disk_link.downstream_if]
    return {
        "completed": 1.0 if process.done else 0.0,
        "violations": float(len(system.sim.checker.violations)),
        "violated_rules": sorted({v.rule for v in system.sim.checker.violations}),
        "throughput_gbps": dd.result.throughput_gbps if process.done else 0.0,
        "replay_fraction": stats["replay_fraction"],
        "timeouts": stats["timeouts"],
        "tlps_corrupted": sum(i.corrupted.value() for i in ifaces),
        "dllps_corrupted": sum(i.dllp_corrupted.value() for i in ifaces),
    }


def scenario_point(scenario: Dict[str, Any],
                   check: Optional[bool] = None) -> Dict[str, Any]:
    """Run one multi-flow traffic scenario as a sweep point.

    Args:
        scenario: a :meth:`repro.workloads.scenarios.Scenario.to_dict`
            document (topology + flows).  The whole document lands in
            the point's parameters, so the result cache keys on the
            canonical serialisation of the exact experiment.
        check: arm the invariant checker in record mode (None defers to
            ``REPRO_CHECK``; the harness's ``--check`` sets True).

    Returns:
        ``completed``/``violations`` (the stress-gate pair), the
        Jain's-fairness-index and total throughput, plus per-flow
        ``<flow>_gbps``/``<flow>_share``/``<flow>_p99_ns``/
        ``<flow>_bytes`` flattened for table rendering.
    """
    system, engine = run_scenario(Scenario.from_dict(scenario), check=check,
                                  max_events=_MAX_EVENTS)
    results = engine.results()
    out: Dict[str, Any] = {
        "completed": 1.0 if results["completed"] else 0.0,
        "violations": float(len(system.sim.checker.violations)),
        "violated_rules": sorted(
            {v.rule for v in system.sim.checker.violations}),
        "fairness_index": results["fairness_index"],
        "total_gbps": results["total_gbps"],
    }
    for name, record in results["flows"].items():
        out[f"{name}_gbps"] = record["throughput_gbps"]
        out[f"{name}_share"] = record["share"]
        out[f"{name}_p99_ns"] = record["p99_ns"]
        out[f"{name}_bytes"] = record["bytes"]
    return out
