"""The benchmark's one command.

::

    python3 benchmarks/perf                      # all six workloads, end to end
    python3 benchmarks/perf --layers             # all six, the per-layer ledger
    python3 benchmarks/perf --workload dd_x1_read --seed 3 --seconds 10 --trace 0

Each workload runs serially in its own fresh child interpreter (see
:mod:`benchmarks.perf.child`).  Every metric is printed by name with
its unit, the simulated outputs are checked, and one
``repro-perf-bench/1`` result document is written atomically to
``--out``.  With ``--workload`` the last line of standard output is
the one-object summary ``BENCHMARK.json``'s contract asks for.

Exit status: 0 all correct; 1 a correctness check failed (the summary
is still printed, with ``"correct": false``); 2 bad arguments; 3 a child
died, wedged or timed out — then nothing that looks like a result is
printed or written.
"""

import argparse
import heapq
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.perf import workloads

SCHEMA = "repro-perf-bench/1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Scratch space (sweep caches, the default ``--out``); git-ignored and
#: inside the checkout, which is the only place a run may write.
WORKROOT = os.path.join(HERE, ".work")

#: A child that has not replied by then is killed: the contract allows
#: a run 180 s, and a healthy one needs about 25.
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    """A workload's interpreter died, wedged or timed out."""


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# Frozen pure-stdlib workload, copied byte-for-byte from
# benchmarks/core_perf.py so calibration_s stays comparable with the
# BENCH_core.json history.  Recorded for cross-machine reading only; it
# never enters a verdict.  DO NOT CHANGE.
def calibration_workload() -> float:
    """Wall-clock seconds for a fixed heapq push/pop workload."""
    start = time.perf_counter()
    heap: List[int] = []
    push, pop = heapq.heappush, heapq.heappop
    seed = 0x2545F4914F6CDD1D
    value = 88172645463325252
    for __ in range(200_000):
        value ^= (value << 13) & 0xFFFFFFFFFFFFFFFF
        value ^= value >> 7
        value ^= (value << 17) & 0xFFFFFFFFFFFFFFFF
        push(heap, value % (seed & 0xFFFF))
        if len(heap) > 64:
            pop(heap)
    while heap:
        pop(heap)
    return time.perf_counter() - start


def run_child(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one request in a fresh interpreter and return its reply.

    The child sees no ``REPRO_*`` variable (backend, checker,
    partitions, fast-path guard, sweep workers and cache all at their
    defaults) and a ``PYTHONPATH`` of exactly this checkout.  It leads
    its own process group, so a timeout also reaps its pool workers; its
    scratch directory is made and removed here, so even a killed child
    leaves nothing behind.
    """
    os.makedirs(WORKROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKROOT)
    try:
        return _converse(dict(request, workdir=workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _converse(request: Dict[str, Any]) -> Dict[str, Any]:
    """Start the child on ``request``, wait for it, parse its reply."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join((ROOT, os.path.join(ROOT, "src")))
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.perf.child", json.dumps(request)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, __ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(
            f"{request['workload']}: no reply within {CHILD_TIMEOUT_S} s "
            f"(killed)") from None
    if proc.returncode != 0:
        raise ChildFailed(
            f"{request['workload']}: child interpreter exited with status "
            f"{proc.returncode} (its traceback is above)")
    try:
        return json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(
            f"{request['workload']}: child exited 0 without a reply") from None


def summarise(samples: Sequence[float], better: str) -> Dict[str, Any]:
    """One metric's reported value with its median, quartiles, extremes
    and count.  No tail percentile: it would need ten samples beyond it.

    The reported ``value`` is the best sample, not the median.  On the
    shared sandbox this was written on, the host interferes in bursts
    of several seconds that slow a repeat by 30-50 %: between ten runs
    of one commit the median of ~15 repeats spread 14 %, their minimum
    4 %.  Interference only ever adds time, so the fastest repeat is
    the steadiest estimate of what the program itself costs.
    """
    n = len(samples)
    q1, __, q3 = (statistics.quantiles(samples, n=4) if n > 1
                  else (samples[0],) * 3)
    return {"value": min(samples) if better == "lower" else max(samples),
            "median": statistics.median(samples), "q1": q1, "q3": q3,
            "min": min(samples), "max": max(samples), "n": n}


def git_commit() -> str:
    """HEAD's hash, or ``unknown`` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_atomically(path: str, doc: Dict[str, Any]) -> None:
    """Write ``doc`` so a reader sees the old file or the whole new one."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def print_workload(name: str, entry: Dict[str, Any]) -> None:
    """Every metric of one workload, by name, with its unit."""
    print(f"{name}: {entry['attempted'] - entry['failed']}/"
          f"{entry['attempted']} operations ok, stats_digest "
          f"{entry['stats_digest'][:16]}, "
          f"{entry['counts']['events']} events")
    for metric, record in entry["metrics"].items():
        spread = (f"  [median {record['median']:.6g}  q1 {record['q1']:.6g}  "
                  f"q3 {record['q3']:.6g}  max {record['max']:.6g}  "
                  f"n {record['n']}]" if record.get("n", 1) > 1 else "")
        print(f"  {metric:<36} {record['value']:>14.6g} "
              f"{record['unit']:<10}{spread}")
    for error in entry["errors"]:
        print(f"  FAILED: {error}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the benchmark; see the module docstring."""
    contract = load_contract()
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/perf", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run only this workload and end with the "
                             "one-line JSON summary (default: all six)")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds flow RNG seeds and link error seeds")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="how long each workload repeats its batch")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer ledger instead of the "
                             "end-to-end metrics")
    parser.add_argument("--layers", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--scale", type=float,
                        default=workloads.DEFAULT_SCALE,
                        help="transfer-size multiplier (1.0 = the 1 MiB "
                             "dd the workloads were designed at)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="result document (default: "
                             "benchmarks/perf/.work/result.json)")
    args = parser.parse_args(argv)
    if args.scale <= 0 or args.seconds <= 0:
        parser.error("--scale and --seconds must be positive")

    names = [args.workload] if args.workload else list(workloads.WORKLOAD_NAMES)
    if args.workload not in (None,) + workloads.WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOAD_NAMES)}", file=sys.stderr)
        return 2

    declared = {m["name"]: m
                for m in contract["end_to_end"] + contract["per_layer"]}
    wanted = [m["name"] for m in
              contract["per_layer" if args.trace else "end_to_end"]]
    doc: Dict[str, Any] = {
        "schema": SCHEMA, "commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "trace": args.trace,
        "calibration_s": min(calibration_workload() for __ in range(3)),
        "note": "a timing's value is the fastest of n closed batches of "
                "fixed work, with median, quartiles and every raw sample "
                "beside it; n is too small for a tail percentile, so none "
                "is reported",
        "workloads": {},
    }
    try:
        for name in names:
            reply = run_child({
                "workload": name, "seed": args.seed, "scale": args.scale,
                "seconds": args.seconds, "trace": args.trace})
            if args.trace:
                metrics = {key: {"value": value} for key, value in
                           reply.pop("layers").items()}
            else:
                metrics = {key: summarise(samples, declared[key]["better"])
                           for key, samples in reply["samples"].items()}
            if sorted(metrics) != sorted(wanted):
                raise ChildFailed(
                    f"{name}: metrics {sorted(set(metrics) ^ set(wanted))} "
                    f"disagree with BENCHMARK.json")
            reply["metrics"] = {
                key: dict(metrics[key], unit=declared[key]["unit"])
                for key in wanted}
            doc["workloads"][name] = reply
            print_workload(name, reply)
    except ChildFailed as exc:
        print(f"error: ChildFailed: {exc}", file=sys.stderr)
        return 3

    out = args.out or os.path.join(WORKROOT, "result.json")
    write_atomically(out, doc)
    print(f"result document: {out}")

    entries = doc["workloads"].values()
    correct = not any(entry["errors"] for entry in entries)
    if args.workload:
        entry = doc["workloads"][args.workload]
        print(json.dumps({
            "correct": correct,
            "attempted": entry["attempted"], "failed": entry["failed"],
            "metrics": {key: {"value": record["value"], "unit": record["unit"]}
                        for key, record in entry["metrics"].items()},
        }))
    return 0 if correct else 1
