"""One workload, measured in one fresh interpreter.

The driver (:mod:`benchmarks.perf.cli`) starts this module as
``python -m benchmarks.perf.child '<json request>'`` with every
``REPRO_*`` variable stripped from the environment, so the program runs
on its defaults: default backend, checker, tracer and profiler off.  The
reply is one JSON object on the last line of standard output.

Protocol of an end-to-end run (``trace`` 0): one short discarded
warm-up, then the workload's closed batch of fixed work repeated until
``seconds`` have passed (at least :data:`MIN_REPEATS` times), each
repeat followed by :data:`SETUPS_PER_REPEAT` timed cold set-ups, with
the garbage collector left on as a user would have it.  Set-ups are
spread through the run, not bunched at its start, so that a burst of
interference from the host cannot cover all of them.  Every sample is
reported raw; the driver summarises them.
"""

import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

from benchmarks.perf import layers, runner, workloads
from repro.sim.simobject import Simulator
from repro.system.topology import build_system

#: Fewest timed repeats of the batch, however short ``seconds`` is.
MIN_REPEATS = 3

#: Cold set-ups timed after every repeat (so at least 24 in a run).
SETUPS_PER_REPEAT = 8

#: The discarded warm-up runs the workload at this fraction of its size.
WARMUP_FRACTION = 0.125


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children
    (``getrusage`` resolves microseconds; ``os.times`` only ticks)."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _peak_rss_mb() -> float:
    """Peak resident set of this interpreter, or of its largest reaped
    child (a sweep worker) if that was larger.

    Own peak is ``VmHWM``: ``ru_maxrss`` survives fork and exec, so a
    fat parent would show through it.  A worker's ``ru_maxrss`` starts
    from this process's size for the same reason, which the ``max``
    makes harmless.  Both are KiB.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own_kib = int(line.split()[1])
    except OSError:
        pass  # not Linux: ru_maxrss is the best there is
    workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, workers_kib) / 1024


def time_setups(doc: Dict[str, Any], workdir: str, workers: int) -> List[float]:
    """Seconds of each of :data:`SETUPS_PER_REPEAT` cold set-ups: spec
    document -> finalize -> ``build_system`` -> boot, enumerate, bind;
    for a sweep, the declaration and an engine on a fresh cache
    directory."""
    if doc["kind"] == "sweep":
        def setup():
            runner.declare_sweep(doc, workdir, workers)
    else:
        def setup():
            build_system(doc["topology"], sim=Simulator(check=doc["check"]))
    samples = []
    for __ in range(SETUPS_PER_REPEAT):
        start = time.perf_counter()
        setup()
        samples.append(time.perf_counter() - start)
    return samples


def measure(name: str, seed: int, scale: float, seconds: float,
            workdir: str, workers: int) -> Dict[str, Any]:
    """The end-to-end samples of one workload (tracer, checker and
    profiler off)."""
    doc = workloads.build(name, seed, scale)
    runner.run_workload(workloads.build(name, seed, scale * WARMUP_FRACTION),
                        workdir, workers)

    walls: List[float] = []
    cpus: List[float] = []
    setups: List[float] = []
    records: List[Dict[str, Any]] = []
    begin = time.perf_counter()
    while len(walls) < MIN_REPEATS or time.perf_counter() - begin < seconds:
        cpu0, start = _cpu_seconds(), time.perf_counter()
        records.append(runner.run_workload(doc, workdir, workers))
        walls.append(time.perf_counter() - start)
        cpus.append(_cpu_seconds() - cpu0)
        setups.extend(time_setups(doc, workdir, workers))

    errors = []
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if failed:
        errors.append(f"{failed}/{attempted} operations failed "
                      f"({sum(r['violations'] for r in records)} checker "
                      f"violations)")
    # A deterministic simulator repeats its statistics exactly; a repeat
    # that does not is wrong, whatever it moved.
    drifted = [r for r in records
               if r["stats_digest"] != records[0]["stats_digest"]]
    if drifted:
        errors.append(f"stats_digest differs in {len(drifted)} of "
                      f"{len(records)} repeats")
        failed = max(failed, sum(r["attempted"] for r in drifted))
    return {
        "samples": {
            "wall_s": walls, "cpu_s": cpus, "setup_s": setups,
            "peak_rss_mb": [_peak_rss_mb()],
            "completed_frac": [1.0 - failed / attempted],
        },
        "attempted": attempted, "failed": failed, "errors": errors,
        "stats_digest": records[0]["stats_digest"],
        "counts": {key: records[0][key] for key in runner.COUNT_KEYS},
    }


def trace(name: str, seed: int, scale: float, workdir: str,
          workers: int) -> Dict[str, Any]:
    """The per-layer ledger of one workload: exact counts from a plain
    run, then the traced, profiled and per-backend runs of its
    simulation documents, then the standalone layer microbenchmarks."""
    doc = workloads.build(name, seed, scale)
    runner.run_workload(workloads.build(name, seed, scale * WARMUP_FRACTION),
                        workdir, workers)
    start = time.perf_counter()
    record = runner.run_workload(doc, workdir, workers)
    metrics = layers.count_metrics(record, time.perf_counter() - start)

    sample = workloads.stress_sample(seed, scale) if doc["kind"] == "sweep" else doc
    metrics.update(layers.workload_layers(workloads.sim_docs(sample)))
    metrics.update(layers.standalone_layers(seed, scale, workdir, workers))

    x1, x8 = (record if dd_name == name
              else runner.run_sim(workloads.build(dd_name, seed, scale))
              for dd_name in ("dd_x1_read", "dd_x8_read"))
    metrics.update(layers.validation_metrics(x1, x8))

    failed = record["failed"]
    return {
        "layers": metrics,
        "attempted": record["attempted"], "failed": failed,
        "errors": [f"{failed}/{record['attempted']} operations failed"]
        if failed else [],
        "stats_digest": record["stats_digest"],
        "counts": {key: record[key] for key in runner.COUNT_KEYS},
    }


def main(argv: List[str]) -> int:
    """Serve one request; the reply is the last line of stdout."""
    request = json.loads(argv[1])
    workdir = request["workdir"]  # made, and removed, by the driver
    workers = min(2, os.cpu_count() or 1)
    if request["trace"]:
        reply = trace(request["workload"], request["seed"],
                      request["scale"], workdir, workers)
    else:
        reply = measure(request["workload"], request["seed"],
                        request["scale"], request["seconds"], workdir,
                        workers)
    reply["workers"] = workers
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
