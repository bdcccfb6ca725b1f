#!/usr/bin/env python3
"""Why PCI-Express exists: the same disk on a classic shared PCI bus
versus the PCI-Express fabric.

Section II of the paper contrasts the two interconnects qualitatively —
shared parallel bus with wait states and no split transactions versus
point-to-point serial links with packetized split transactions.  This
example runs the identical ``dd`` workload over both and prints the
quantitative version of that story, including the classic bus's ~50 %
cycle efficiency.

Run:  python examples/pci_vs_pcie.py
"""

from repro.sim import ticks
from repro.system.spec import classic_pci_spec, validation_spec
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload

BLOCK = 256 * 1024


def run_dd(system):
    dd = DdWorkload(system.kernel, system.disk_driver, BLOCK, startup_overhead=0)
    process = system.kernel.spawn("dd", dd.run())
    system.run()
    assert process.done
    return dd.result.throughput_gbps


def main() -> None:
    rows = []

    classic = build_system(classic_pci_spec(clock_mhz=33))
    rows.append(("PCI 33 MHz shared bus", run_dd(classic)))
    bus = classic.devices["pci_bus"]
    stats = classic.sim.dump_stats()
    efficiency = next(v for k, v in stats.items() if k.endswith("pci_bus.efficiency"))

    classic66 = build_system(classic_pci_spec(clock_mhz=66))
    rows.append(("PCI 66 MHz shared bus", run_dd(classic66)))

    for gen, width in (("GEN1", 1), ("GEN2", 1), ("GEN2", 4)):
        system = build_system(validation_spec(gen=gen,
                                              root_link_width=max(width, 4),
                                              device_link_width=width))
        rows.append((f"PCIe {gen} x{width}", run_dd(system)))

    print(f"dd sequential read of {BLOCK >> 10} KB:\n")
    for name, gbps in rows:
        bar = "#" * max(1, int(gbps * 12))
        print(f"  {name:<24} {gbps:5.2f} Gbps  {bar}")
    print(f"\nclassic bus cycle efficiency: {efficiency:.0%} "
          f"(the paper: 'only approximately half of the bus cycles are "
          f"actually used to transfer data')")
    print(f"bus transactions: {int(bus.transactions.value())}, "
          f"target retries: {int(bus.retry_cycles.value())}")


if __name__ == "__main__":
    main()
