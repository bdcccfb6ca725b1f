#!/usr/bin/env python3
"""Future-system exploration: how wide a link does a storage device need?

This is the kind of question the paper builds the model for: sweep the
PCI-Express generation and width of the whole fabric and watch where the
interconnect stops being the bottleneck for a ``dd``-style sequential
read — including the counter-intuitive regime where a *faster* link
performs no better because the switch port cannot drain it and the
flow-control layer stalls the transmitter waiting for credits (the
paper's Figure 9(b), whose gem5 model shows the same overrun as
replay storms).

The 12-point sweep runs through :class:`repro.exp.SweepEngine`: points
fan out across worker processes and are memoised on disk, so the second
invocation answers from cache in milliseconds.

Run:  python examples/link_width_exploration.py [--workers N] [--fresh]
"""

import argparse
import shutil

from repro.analysis.report import Table
from repro.exp import Sweep, SweepEngine
from repro.system import validation_spec
from repro.workloads import FlowSpec

BLOCK = 512 * 1024  # keep the sweep quick
CACHE_DIR = ".sweep-cache"
GENS = ("GEN1", "GEN2", "GEN3")
WIDTHS = (1, 2, 4, 8)

#: The software: one dd read of the whole block, no startup cost.
DD = [FlowSpec("dd", "dd_read", "disk", requests=1,
               bytes_per_request=BLOCK).to_dict()]
#: What each point reports, read from the dd flow's record.
METRICS = {"throughput_gbps": "dd_throughput_gbps",
           "fc_stall_ticks": "dd_fc_stall_ticks",
           "tlps_sent": "dd_tlps_sent"}


def build_sweep() -> Sweep:
    """Generation × width over the validation fabric, no startup cost."""
    sweep = Sweep("link_width_exploration")
    for gen in GENS:
        for width in WIDTHS:
            spec = validation_spec(gen=gen, root_link_width=width,
                                   device_link_width=width)
            sweep.add(f"{gen}/x{width}", "repro.exp.points:run_point",
                      topology=spec.to_dict(), flows=DD, metrics=METRICS)
    return sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes "
                             "(default: $REPRO_SWEEP_WORKERS or 1)")
    parser.add_argument("--fresh", action="store_true",
                        help="drop the local result cache first")
    args = parser.parse_args()
    if args.fresh:
        shutil.rmtree(CACHE_DIR, ignore_errors=True)

    engine = SweepEngine(cache_dir=CACHE_DIR, workers=args.workers)
    result = engine.run(build_sweep())
    print(result.summary())

    table = Table("dd throughput vs link configuration", "width", "Gbps")
    stall_notes = []
    for gen in GENS:
        series = table.new_series(gen)
        for width in WIDTHS:
            point = result.results[f"{gen}/x{width}"]
            series.add(f"x{width}", point["throughput_gbps"])
            if point["fc_stall_ticks"] > 0:
                per_tlp = point["fc_stall_ticks"] / max(point["tlps_sent"], 1)
                stall_notes.append(
                    f"  {gen} x{width}: {per_tlp:,.0f} credit-stall ticks/TLP "
                    f"(the link outruns the switch port at this width)"
                )
    print(table.render("{:.2f}"))
    if stall_notes:
        print("\nflow-control pressure:")
        print("\n".join(stall_notes))
    print("\nReading: throughput stops scaling once the link outruns the")
    print("switch/root-complex ports — exactly the paper's x8 observation.")
    print(f"(results cached under {CACHE_DIR}/; rerun to see a full-cache hit)")


if __name__ == "__main__":
    main()
