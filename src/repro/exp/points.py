"""The one sweep-point runner, :func:`run_point`.

A sweep point is a machine plus the software it runs, both as
canonical-JSON documents: ``topology`` is a serialised spec from
:mod:`repro.system.spec` and ``flows`` a list of serialised
:class:`~repro.workloads.traffic.FlowSpec`.  The paper's ``dd`` is one
``dd_read`` request of the whole block whose ``start_delay`` is dd's
startup cost; its MMIO kernel module is one ``mmio_read`` flow.  Both
documents land in the point's parameters, so the result cache keys on
the exact experiment.  A point builds a fresh system and returns a flat
JSON-safe dict: no tracing, no files, no shared state.
"""

from typing import Any, Dict, List, Optional

from repro.analysis.report import link_replay_stats
from repro.sim import ticks
from repro.sim.simobject import Simulator
from repro.workloads.dd import DdResult
from repro.workloads.scenarios import run_flows
from repro.workloads.traffic import FlowSpec

__all__ = ["run_point"]

#: Guard against wedged simulations when a point runs unattended in a
#: worker process; matches the benchmark harness's historical bound.
_MAX_EVENTS = 500_000_000


def run_point(topology: Dict[str, Any], flows: List[Dict[str, Any]],
              metrics: Dict[str, str],
              check: Optional[bool] = None) -> Dict[str, Any]:
    """Run ``flows`` on ``topology``; return the record entries that
    ``metrics`` (``{payload name: record name}``) names.

    The record holds ``completed``, ``violations``, ``violated_rules``,
    ``fairness_index`` and ``total_gbps``, and per flow ``f``:
    ``f_gbps``, ``f_share``, ``f_p99_ns``, ``f_mean_ns``, ``f_bytes``,
    dd's ``f_throughput_gbps`` (start delay included) and
    ``f_transfer_gbps``; from ``f``'s link every
    :func:`~repro.analysis.report.link_replay_stats` entry (such as
    ``f_replay_fraction``, ``f_fc_stall_ticks``, ``f_timeouts``,
    ``f_tlps_sent``) plus ``f_tlps_corrupted`` and
    ``f_dllps_corrupted``; on a disk ``f_device_level_gbps``.  A name
    not in the record raises ``KeyError``.

    ``check`` arms the invariant checker (None defers to
    ``REPRO_CHECK``).  An armed point records violations if its metrics
    report ``violations`` and otherwise raises on the first; a point
    that does not report ``completed`` raises if its flows wedge.
    """
    reported = set(metrics.values())
    sim = Simulator(check=check)
    if sim.checker.enabled and "violations" in reported:
        sim.checker.record_only = True
    system, engine = run_flows(
        sim, topology, [FlowSpec.from_dict(flow) for flow in flows],
        max_events=_MAX_EVENTS)
    if not engine.completed and "completed" not in reported:
        raise RuntimeError("flows did not finish — simulation wedged?")
    record = _record(system, engine)
    return {payload: record[name] for payload, name in metrics.items()}


def _record(system, engine) -> Dict[str, Any]:
    """Everything a point can report, flat."""
    results = engine.results()
    violations = system.sim.checker.violations
    record: Dict[str, Any] = {
        "completed": 1.0 if results["completed"] else 0.0,
        "violations": float(len(violations)),
        "violated_rules": sorted({v.rule for v in violations}),
        "fairness_index": results["fairness_index"],
        "total_gbps": results["total_gbps"],
    }
    for spec in engine.flows:
        flow = results["flows"][spec.name]
        entries: Dict[str, Any] = {key: flow[key] for key in (
            "share", "p99_ns", "mean_ns", "bytes")}
        entries.update(gbps=flow["throughput_gbps"], throughput_gbps=0.0,
                       transfer_gbps=0.0)
        elapsed = flow["elapsed_ticks"]
        if flow["requests_completed"] == spec.requests and elapsed:
            # dd's own arithmetic, so the figures match DdWorkload's.
            dd = DdResult(flow["bytes"],
                          flow["finish_tick"] - engine.start_tick, elapsed)
            entries["throughput_gbps"] = dd.throughput_gbps
            entries["transfer_gbps"] = dd.transfer_gbps
        link = system.links.get(spec.device)
        if link is not None:
            ifaces = (link.upstream_if, link.downstream_if)
            entries.update(
                link_replay_stats(link),
                tlps_corrupted=sum(i.corrupted.value() for i in ifaces),
                dllps_corrupted=sum(i.dllp_corrupted.value() for i in ifaces))
        device = system.devices[spec.device]
        if hasattr(device, "sector_transfer_ticks"):
            sector_mean = device.sector_transfer_ticks.mean
            entries["device_level_gbps"] = (
                device.sector_size * 8 / ticks.to_ns(sector_mean)
                if sector_mean else 0.0)
        record.update((f"{spec.name}_{key}", value)
                      for key, value in entries.items())
    return record
