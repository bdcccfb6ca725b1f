"""Core-performance microbenchmark suite (``BENCH_core.json``).

The sweep engine (PR 2) parallelises *across* runs; this suite watches
the speed of *one* run — the hot path PR 4 overhauled — so that future
changes cannot silently regress it.  Three benchmarks, cheapest first:

* **eventq** — raw scheduler throughput: a deterministic synthetic
  workload of self-rescheduling events plus timer-style
  deschedule/reschedule churn, reported as operations per second
  (schedules + dispatches).
* **link** — link-layer saturation: posted MESSAGE TLPs pumped through
  a Gen 2 x1 :class:`~repro.pcie.link.PcieLink` against an
  always-accepting sink, reported as delivered TLPs per second of wall
  clock.
* **dd** — the headline number: the paper's Gen 2 x1 64 MB-scaled
  ``dd`` point, best-of-N wall clock with tracer and checker off, plus
  one run with the invariant checker armed.

Every record also carries a **calibration** time: a frozen heapq
workload that does not touch repro code at all.  Dividing a wall-clock
metric by the calibration time gives a machine-normalised number, which
is what ``tools/check_bench_regression.py`` thresholds — CI runners of
very different speeds can then share one committed threshold file.

The JSON artifact keeps a ``before`` and an ``after`` block so a perf
PR records both sides of its claim::

    python -m benchmarks.core_perf --phase before   # on the old tree
    python -m benchmarks.core_perf --phase after    # on the new tree

Writing one phase preserves the other phase already in the file and
recomputes the ``speedup`` summary.  ``--quick`` shrinks repeat counts
for CI.
"""

import argparse
import heapq
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from benchmarks import config
from repro.mem.packet import MemCmd, Packet
from repro.mem.port import MasterPort, SlavePort
from repro.pcie.link import PcieLink
from repro.pcie.timing import PcieGen
from repro.sim.eventq import Event, EventQueue, ReferenceEventQueue
from repro.sim.simobject import SimObject, Simulator

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BENCH_CORE_PATH = os.path.join(RESULTS_DIR, "BENCH_core.json")

SCHEMA = "repro-bench-core/1"


# ---------------------------------------------------------------------------
# Calibration: a frozen pure-stdlib workload.  DO NOT CHANGE — normalised
# metrics (metric / calibration) are only comparable across commits while
# this loop stays byte-for-byte identical.
# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
# Benchmark 1: event-queue operation throughput.
# ---------------------------------------------------------------------------
class _ChurnEvent(Event):
    """Self-rescheduling event with a deterministic LCG delay stream."""

    __slots__ = ("queue", "state", "budget")

    def __init__(self, queue: EventQueue, seed: int, budget: int):
        super().__init__(name="churn")
        self.queue = queue
        self.state = seed
        self.budget = budget

    def process(self) -> None:
        """Fire: burn one budget unit and reschedule at an LCG delay."""
        if self.budget <= 0:
            return
        self.budget -= 1
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        # Mix of short, medium and far delays.
        pick = self.state >> 61
        if pick < 5:
            delay = 1 + (self.state % 30_000)
        elif pick < 7:
            delay = 1 + (self.state % 700_000)
        else:
            delay = 1 + (self.state % 50_000_000)
        self.queue.schedule(self, self.queue.curtick + delay)


class _TimerEvent(Event):
    """Stands in for replay/ACK timers: mostly rescheduled, rarely fires."""

    __slots__ = ()

    def __init__(self):
        super().__init__(name="timer")

    def process(self) -> None:
        """Timers in this workload are churn; firing needs no work."""


def _churn(queue, n_events: int, n_chains: int,
           n_timers: int) -> Dict[str, float]:
    """Run the churn workload on ``queue`` (either event queue)."""
    per_chain = n_events // n_chains
    chains = [_ChurnEvent(queue, seed=0xC0FFEE + 97 * i, budget=per_chain)
              for i in range(n_chains)]
    timers = [_TimerEvent() for __ in range(n_timers)]

    ops = 0
    start = time.perf_counter()
    for i, ev in enumerate(chains):
        queue.schedule(ev, i)
    dispatched = 0
    while not queue.empty():
        queue.service_one()
        dispatched += 1
        if dispatched % 16 == 0:
            timer = timers[(dispatched // 16) % n_timers]
            queue.reschedule(timer, queue.curtick + 773_000)
            ops += 2  # deschedule + schedule
    elapsed = time.perf_counter() - start
    ops += dispatched * 2  # one schedule + one dispatch per serviced event
    return {"ops_per_sec": ops / elapsed, "wall_s": elapsed,
            "events": dispatched}


def bench_eventq(n_events: int = 60_000, n_chains: int = 24,
                 n_timers: int = 8) -> Dict[str, float]:
    """Measure scheduler ops/sec on a synthetic churn workload.

    ``n_chains`` self-rescheduling events split ``n_events`` dispatches
    between them while ``n_timers`` timer events are rescheduled on
    every 16th dispatch (heavy deschedule traffic, like the link
    layer's replay timers).
    """
    return _churn(EventQueue("bench"), n_events, n_chains, n_timers)


def bench_dispatch(n_events: int = 40_000,
                   repeats: int = 3) -> Dict[str, Any]:
    """Scheduler dispatch overhead of :class:`EventQueue` against the
    :class:`ReferenceEventQueue` spec on one churn workload.

    The headline is ``eventq_vs_reference`` — EventQueue ops per second
    over reference ops per second — which CI bounds from below: if a
    per-dispatch hook ever bloats the real dispatch loop, the ratio
    sinks and the gate trips, machine speed cancelled out by
    construction.  Repeats are interleaved across the two queues and
    each side keeps its best, so a load spike hits both rather than
    skewing the ratio.
    """
    queues = {"reference": ReferenceEventQueue, "eventq": EventQueue}
    best: Dict[str, float] = {}
    for __ in range(repeats):
        for name, queue_cls in queues.items():
            result = _churn(queue_cls(f"dispatch-{name}"), n_events,
                            n_chains=24, n_timers=8)
            if result["ops_per_sec"] > best.get(name, 0.0):
                best[name] = result["ops_per_sec"]
    out: Dict[str, Any] = {
        f"{name}_ops_per_sec": round(ops) for name, ops in best.items()}
    out["eventq_vs_reference"] = round(
        best["eventq"] / best["reference"], 4)
    return out


# ---------------------------------------------------------------------------
# Benchmark 2: link saturation.
# ---------------------------------------------------------------------------
class _LinkDriver(SimObject):
    """Pumps posted MESSAGE TLPs into a link as fast as it will accept."""

    def __init__(self, sim: Simulator, link: PcieLink, n_tlps: int,
                 payload: int = 64):
        super().__init__(sim, "driver")
        self.remaining = n_tlps
        self.payload = payload
        self._pump_pending = False
        self.port = MasterPort(self, "port", recv_timing_resp=lambda pkt: True,
                               recv_req_retry=self._pump_soon)
        self.port.bind(link.upstream_if.slave_port)

    def _pump_soon(self) -> None:
        # Like every real component, respond to a retry through a
        # deferred event — the link issues retries from inside its own
        # transmit path, so a synchronous send would re-enter it.
        if self._pump_pending:
            return
        self._pump_pending = True
        self.schedule(0, self._pump_deferred, name="pump")

    def _pump_deferred(self) -> None:
        self._pump_pending = False
        self.pump()

    def pump(self) -> None:
        """Offer TLPs until the link refuses or the budget is spent."""
        while self.remaining > 0:
            pkt = Packet(MemCmd.MESSAGE, 0x1000, self.payload,
                         data=bytes(self.payload), requestor=self.full_name,
                         create_tick=self.curtick)
            if not self.port.send_timing_req(pkt):
                return
            self.remaining -= 1


class _LinkSink(SimObject):
    """Always-accepting endpoint counting delivered TLPs."""

    def __init__(self, sim: Simulator, link: PcieLink):
        super().__init__(sim, "sink")
        self.received = 0
        self.port = SlavePort(self, "port", recv_timing_req=self._accept,
                              recv_resp_retry=lambda: None)
        self.port.bind(link.downstream_if.master_port)

    def _accept(self, pkt: Packet) -> bool:
        self.received += 1
        return True


def bench_link_saturation(n_tlps: int = 6_000) -> Dict[str, float]:
    """Measure delivered TLPs per wall-clock second on a Gen 2 x1 link."""
    sim = Simulator("linkbench")
    link = PcieLink(sim, "link", gen=PcieGen.GEN2, width=1)
    driver = _LinkDriver(sim, link, n_tlps)
    sink = _LinkSink(sim, link)
    start = time.perf_counter()
    driver.pump()
    sim.run(max_events=200 * n_tlps)
    elapsed = time.perf_counter() - start
    if sink.received != n_tlps:
        raise RuntimeError(
            f"link saturation wedged: delivered {sink.received}/{n_tlps}")
    return {"tlps_per_sec": n_tlps / elapsed, "wall_s": elapsed,
            "sim_ticks": sim.curtick}


# ---------------------------------------------------------------------------
# Benchmark 3: the full dd Gen 2 x1 point.
# ---------------------------------------------------------------------------
def bench_dd(best_of: int = 3, check: bool = False) -> Dict[str, Any]:
    """Best-of-N wall clock of the Gen 2 x1 64 MB-scaled ``dd`` point.

    Tracing stays off; ``check`` arms the runtime invariant checker for
    the whole run.
    """
    from benchmarks.sweeps import FIGURE_METRICS, dd_flows
    from repro.exp.points import run_point
    from repro.system.spec import validation_spec

    topology = validation_spec(root_link_width=1,
                               device_link_width=1).to_dict()
    flows = dd_flows(config.BLOCK_SIZES["64MB"], config.DD_STARTUP)
    runs: List[float] = []
    metrics: Dict[str, Any] = {}
    for __ in range(best_of):
        start = time.perf_counter()
        metrics = run_point(topology, flows, FIGURE_METRICS, check=check)
        runs.append(round(time.perf_counter() - start, 4))
    return {"wall_s": min(runs), "runs_s": runs,
            "throughput_gbps": round(metrics["throughput_gbps"], 6)}


# ---------------------------------------------------------------------------
# Suite driver and artifact handling.
# ---------------------------------------------------------------------------
def run_suite(quick: bool = False, skip_checked: bool = False) -> Dict[str, Any]:
    """Run all benchmarks; return one phase block for BENCH_core.json."""
    calib = min(calibration_workload() for __ in range(2 if quick else 3))
    eventq = bench_eventq()
    dispatch = bench_dispatch()
    link = bench_link_saturation()
    best_of = 2 if quick else 3
    dd = bench_dd(best_of=best_of)
    block: Dict[str, Any] = {
        "calibration_s": round(calib, 4),
        "eventq_ops_per_sec": round(eventq["ops_per_sec"]),
        "eventq_wall_s": round(eventq["wall_s"], 4),
        "dispatch_reference_ops_per_sec": dispatch["reference_ops_per_sec"],
        "dispatch_eventq_ops_per_sec": dispatch["eventq_ops_per_sec"],
        "dispatch_eventq_vs_reference": dispatch["eventq_vs_reference"],
        "link_tlps_per_sec": round(link["tlps_per_sec"]),
        "link_wall_s": round(link["wall_s"], 4),
        "dd_gen2x1_wall_s": dd["wall_s"],
        "dd_gen2x1_runs_s": dd["runs_s"],
        "dd_gen2x1_throughput_gbps": dd["throughput_gbps"],
        # Machine-normalised: wall clock in units of the calibration
        # loop.  These are what the CI thresholds bound.
        "dd_gen2x1_norm": round(dd["wall_s"] / calib, 3),
        "link_norm": round(link["wall_s"] / calib, 3),
        "eventq_norm": round(eventq["wall_s"] / calib, 3),
        "python": platform.python_version(),
    }
    if not skip_checked:
        checked = bench_dd(best_of=1, check=True)
        block["dd_gen2x1_checked_wall_s"] = checked["wall_s"]
        if checked["throughput_gbps"] != dd["throughput_gbps"]:
            raise RuntimeError(
                "checker-armed run changed simulated throughput: "
                f"{checked['throughput_gbps']} != {dd['throughput_gbps']}")
    return block


def load_bench(path: str) -> Dict[str, Any]:
    """Read an existing BENCH_core.json; missing/corrupt files → {}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {}
    return doc if isinstance(doc, dict) else {}


def _speedup(doc: Dict[str, Any]) -> Optional[Dict[str, float]]:
    """Before/after speedup summary when both phases are present."""
    before, after = doc.get("before"), doc.get("after")
    if not before or not after:
        return None
    out = {}
    for key in ("dd_gen2x1_wall_s", "link_wall_s", "eventq_wall_s"):
        if before.get(key) and after.get(key):
            out[key.replace("_wall_s", "")] = round(before[key] / after[key], 3)
    return out or None


def write_bench(phase_block: Dict[str, Any], phase: str,
                path: str = BENCH_CORE_PATH) -> Dict[str, Any]:
    """Merge one phase into the artifact at ``path`` and rewrite it."""
    doc = load_bench(path)
    doc["schema"] = SCHEMA
    doc[phase] = phase_block
    doc["timestamp"] = round(time.time(), 3)
    speedup = _speedup(doc)
    if speedup is not None:
        doc["speedup"] = speedup
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: run the suite and merge one phase block into the artifact."""
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.core_perf",
        description="Single-run hot-path benchmarks (eventq / link / dd).")
    parser.add_argument("--phase", choices=("before", "after"),
                        default="after",
                        help="which block of BENCH_core.json to write "
                             "(default: after)")
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats (CI)")
    parser.add_argument("--skip-checked", action="store_true",
                        help="skip the checker-armed dd run")
    parser.add_argument("--output", default=BENCH_CORE_PATH, metavar="PATH",
                        help=f"artifact path (default: {BENCH_CORE_PATH})")
    args = parser.parse_args(argv)

    block = run_suite(quick=args.quick, skip_checked=args.skip_checked)
    doc = write_bench(block, args.phase, args.output)
    print(json.dumps(doc.get("speedup", block), indent=2, sort_keys=True))
    print(f"wrote {args.phase!r} phase: {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
