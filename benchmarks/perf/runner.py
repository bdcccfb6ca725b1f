"""Run one benchmark input document against the simulator.

This is the only place the benchmark calls into the program for its
end-to-end numbers, and it does so through public entry points only:
``Simulator``, ``build_system``, ``DdWorkload``, ``TrafficEngine``,
``SweepEngine``.  The input is a pure document from
:mod:`benchmarks.perf.workloads`; the output is a small JSON-safe
record of exact counts plus a ``stats_digest`` — so the same function
serves as the measured batch of the five simulated workloads and, by
dotted path, as the point runner of the sweep workload.
"""

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional, Sequence

from repro.exp import Sweep, SweepEngine
from repro.sim.simobject import Simulator
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload
from repro.workloads.traffic import FlowSpec, TrafficEngine

#: Dotted path under which sweep workers import :func:`run_sim`.
POINT_RUNNER = "benchmarks.perf.runner:run_sim"

#: Counts every record carries; a sweep reports their sums over points.
COUNT_KEYS = ("attempted", "failed", "violations", "events", "sim_ticks",
              "tlps_sent", "tlp_replays", "fc_stall_ticks")


class WorkloadWedged(RuntimeError):
    """A simulation hit its ``max_events`` guard before the work ended."""


def _sum_suffix(stats: Dict[str, float], *suffixes: str) -> float:
    return sum(v for k, v in stats.items() if k.endswith(suffixes))


def run_sim(doc: Dict[str, Any], backend: Optional[str] = None,
            sink=None, categories: Sequence[str] = ("eventq",),
            keep_stats: bool = False) -> Dict[str, Any]:
    """Build the machine ``doc`` names, drive its work to completion and
    return exact counts and the digest of every statistic.

    Args:
        doc: a ``dd`` or ``flows`` simulation document.
        backend: simulation backend name; None is the default engine.
            Partitioned backends are asked for two ranks.
        sink: a ``TraceSink`` attached after boot, restricted to
            ``categories`` (default: ``eventq`` dispatch labels only).
        keep_stats: also return the full ``dump_stats()`` mapping as
            ``record["stats"]`` (too bulky for a sweep point's result).

    Raises:
        WorkloadWedged: the run stopped on ``max_events`` with work left.
    """
    sim = Simulator(check=doc["check"], backend=backend)
    if doc["check"]:
        sim.checker.record_only = True
    partitions = 2 if getattr(sim.backend, "partitioned", False) else None
    system = build_system(doc["topology"], sim=sim, partitions=partitions)
    if sink is not None:
        sim.tracer.categories = frozenset(categories)
        sim.tracer.attach(sink)

    record: Dict[str, Any] = {}
    if doc["kind"] == "dd":
        driver = system.drivers[doc["device"]]
        dd = DdWorkload(system.kernel, driver, doc["block_bytes"], count=1,
                        buffer_addr=doc["buffer_addr"],
                        startup_overhead=doc["startup_ticks"])
        process = system.kernel.spawn("dd", dd.run())
        system.run(max_events=doc["max_events"])
        done = process.done
        attempted = doc["block_bytes"] // driver.sector_size
        if done:
            record["gbps"] = dd.result.throughput_gbps
    else:
        flows = [FlowSpec.from_dict(flow) for flow in doc["flows"]]
        engine = TrafficEngine(system, flows)
        engine.start()
        system.run(max_events=doc["max_events"])
        done = engine.completed
        attempted = sum(flow.requests for flow in flows)
        results = engine.results()["flows"]
        # A request counts only if it completed and moved its bytes.
        moved = sum(
            min(results[f.name]["requests_completed"],
                results[f.name]["bytes"] // f.bytes_per_request)
            for f in flows)
    if sink is not None:
        sim.tracer.detach(sink)
    if not done:
        raise WorkloadWedged(
            f"{doc['kind']} workload on a {doc['topology']['kind']} machine stopped "
            f"after {sim.eventq.events_processed} events "
            f"(max_events={doc['max_events']}) with work outstanding")

    stats = sim.dump_stats()
    if doc["kind"] == "dd":
        moved = stats[f"{doc['device']}.sectors_transferred"]
    violations = len(sim.checker.violations)
    failed = attempted - min(moved, attempted)
    if violations and not failed:
        failed = 1
    digest = hashlib.sha256(json.dumps(
        [stats, sim.curtick], sort_keys=True,
        separators=(",", ":")).encode("utf-8")).hexdigest()
    record.update(
        attempted=attempted, failed=failed, violations=violations,
        events=sim.eventq.events_processed, sim_ticks=sim.curtick,
        tlps_sent=_sum_suffix(stats, "_if.tlps_sent"),
        tlp_replays=_sum_suffix(stats, "_if.tlp_replays"),
        fc_stall_ticks=_sum_suffix(
            stats, "_if.fc_stall_ticks_p", "_if.fc_stall_ticks_np",
            "_if.fc_stall_ticks_cpl"),
        stats_digest=digest)
    if keep_stats:
        record["stats"] = stats
    return record


def declare_sweep(doc: Dict[str, Any], workdir: str, workers: int):
    """The ``Sweep`` declaration and a ``SweepEngine`` on a fresh cache
    directory and bench path under ``workdir`` — the harness set-up a
    figure pays before its first point runs."""
    sweep = Sweep(doc["name"])
    for key, point in doc["points"].items():
        sweep.add(key, POINT_RUNNER, doc=point)
    root = tempfile.mkdtemp(dir=workdir)
    engine = SweepEngine(cache_dir=os.path.join(root, "cache"),
                         bench_path=os.path.join(root, "BENCH_sweeps.json"),
                         workers=workers)
    return sweep, engine, root


def run_sweep(doc: Dict[str, Any], workdir: str, workers: int) -> Dict[str, Any]:
    """Run a sweep document the way a figure does — declaration, engine
    construction, every point fresh, merged result JSON on disk — and
    return the summed counts of its points.  The caller owns (and
    removes) ``workdir``."""
    sweep, engine, root = declare_sweep(doc, workdir, workers)
    points = engine.run(sweep).results
    path = os.path.join(root, f"{doc['name']}_sweep.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(points, fh, indent=2, sort_keys=True)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    record = {key: sum(p[key] for p in points.values()) for key in COUNT_KEYS}
    # Operations of a sweep are its points.
    record["attempted"] = len(points)
    record["failed"] = sum(1 for p in points.values() if p["failed"])
    record["stats_digest"] = digest
    return record


def run_workload(doc: Dict[str, Any], workdir: str, workers: int) -> Dict[str, Any]:
    """One measured batch of a workload document of any kind."""
    if doc["kind"] == "sweep":
        return run_sweep(doc, workdir, workers)
    return run_sim(doc)
