#!/usr/bin/env python3
"""Quickstart: build the paper's validation system and run ``dd``.

Assembles the full machine — processor, MemBus, DRAM, IOCache, PCI
host, root complex, a Gen 2 x4 link to a PCI-Express switch, and a
Gen 2 x1 link to an IDE-like disk — boots it (real PCI enumeration with
BAR assignment and bridge-window programming), binds the disk driver,
and reads 1 MB with a ``dd``-style workload.

Run:  python examples/quickstart.py

Optionally emits the observability artifacts:

    python examples/quickstart.py --trace dd.jsonl \
        --chrome-trace dd.chrome.json --stats dd-stats.json

``dd.jsonl`` feeds ``repro.analysis.report.trace_latency_breakdown``;
``dd.chrome.json`` loads in chrome://tracing or Perfetto.
"""

import argparse

from repro.analysis.report import (
    format_latency_breakdown,
    link_replay_stats,
    trace_latency_breakdown,
)
from repro.obs import ChromeTraceSink, JsonlSink, write_stats_json
from repro.sim import ticks
from repro.system.spec import validation_spec
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", metavar="PATH",
                        help="write a JSONL TLP-lifecycle trace of the dd run")
    parser.add_argument("--chrome-trace", metavar="PATH",
                        help="write a chrome://tracing / Perfetto trace")
    parser.add_argument("--stats", metavar="PATH",
                        help="write the typed statistics document")
    args = parser.parse_args()

    system = build_system(validation_spec())

    print("=== discovered PCI hierarchy (lspci-style) ===")
    print(system.kernel.enumerator.tree_text())
    driver = system.disk_driver
    print(f"\ndisk driver: BAR0 at {driver.bar0:#x}, "
          f"interrupt mode: {driver.interrupt_mode}, "
          f"IRQ line {driver.found.interrupt_line}")

    tracer = system.sim.tracer
    chrome_sink = None
    if args.trace or args.chrome_trace:
        tracer.categories = frozenset(("link", "engine"))
    if args.trace:
        tracer.attach(JsonlSink(args.trace, meta={"workload": "dd"}))
    if args.chrome_trace:
        chrome_sink = tracer.attach(ChromeTraceSink())

    dd = DdWorkload(system.kernel, driver, block_size=1 << 20,
                    startup_overhead=ticks.from_us(450))
    process = system.kernel.spawn("dd", dd.run())
    system.run()
    assert process.done

    if chrome_sink is not None:
        chrome_sink.write(args.chrome_trace)
    tracer.close()
    if args.stats:
        write_stats_json(system.sim, args.stats, meta={"workload": "dd"})

    result = dd.result
    print("\n=== dd if=/dev/disk of=/dev/zero bs=1M count=1 iflag=direct ===")
    print(f"{result.nbytes} bytes copied, "
          f"{ticks.to_ms(result.elapsed_ticks):.3f} ms, "
          f"{result.throughput_gbps:.2f} Gbps")
    print(f"transfer phase only: {result.transfer_gbps:.2f} Gbps")

    stats = link_replay_stats(system.disk_link)
    print(f"\ndisk link: {stats['tlps_sent']} TLPs sent, "
          f"{stats['replays']} replayed, {stats['timeouts']} timeouts")
    sector_ns = ticks.to_ns(system.disk.sector_transfer_ticks.mean)
    print(f"device-level sector throughput: "
          f"{4096 * 8 / sector_ns:.2f} Gbps "
          f"(paper: 3.072 Gbps on Gen 2 x1)")

    if args.trace:
        breakdown = trace_latency_breakdown(args.trace)
        print(f"\n{format_latency_breakdown(breakdown)}")
        print(f"trace written to {args.trace}")
    if args.chrome_trace:
        print(f"chrome trace written to {args.chrome_trace}")
    if args.stats:
        print(f"stats document written to {args.stats}")


if __name__ == "__main__":
    main()
