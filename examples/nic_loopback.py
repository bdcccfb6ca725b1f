#!/usr/bin/env python3
"""Drive the 8254x-pcie NIC through its e1000e-style driver.

Shows the full device-bring-up story the paper enables in gem5: the
driver probes via the module device table (device id 0x10D3), walks the
capability chain (PM → MSI → PCI-Express → MSI-X), tries MSI-X and MSI —
whose enable bits the capability structures hold at zero — falls back to
a legacy interrupt, maps BAR0, and then moves real descriptor-ring DMA
traffic: frames transmitted in loopback mode come back as received
frames, every descriptor and payload crossing the PCI-Express link.

Run:  python examples/nic_loopback.py
"""

from repro.sim import ticks
from repro.sim.process import WaitFor
from repro.system import build_system, nic_spec
from repro.workloads import FlowSpec, TrafficEngine

FRAMES = 8
FRAME_BYTES = 1500
TX_BUFFER = 0x9100_0000
RX_BUFFER = 0x9200_0000


def main() -> None:
    # The machine as data: nic_spec() is the declarative description of
    # the Table II topology (a NIC directly on a root port); print its
    # JSON form with spec.to_json() to see exactly what gets built.
    system = build_system(nic_spec())
    driver = system.drivers["nic"]
    print("probe results:")
    print(f"  matched {driver.found!r}")
    print(f"  capability chain: "
          f"{[hex(cap_id) for cap_id, __ in driver.found.capabilities]}")
    print(f"  interrupt mode: {driver.interrupt_mode} "
          f"(MSI/MSI-X enables are read-only zero, as in the paper)")
    print(f"  BAR0 mapped at {driver.bar0:#x}")

    done = {}

    def workload():
        yield from driver.bring_up()
        yield from driver.enable_loopback()
        received = []
        for i in range(FRAMES):
            rx_done = driver.post_rx_buffer(RX_BUFFER + i * 2048, 2048)
            received.append(rx_done)
        start = system.sim.curtick
        for i in range(FRAMES):
            tx_done = yield from driver.transmit(TX_BUFFER + i * 2048,
                                                 FRAME_BYTES)
            yield WaitFor(tx_done)
        for rx_done in received:
            yield WaitFor(rx_done)
        done["elapsed"] = system.sim.curtick - start

    system.kernel.spawn("loopback", workload())
    system.run()

    elapsed_us = ticks.to_us(done["elapsed"])
    nic = system.devices["nic"]
    print(f"\nmoved {FRAMES} frames of {FRAME_BYTES}B out and back "
          f"in {elapsed_us:.1f} us")
    print(f"  TX: {int(nic.frames_transmitted.value())} frames, "
          f"{int(nic.tx_bytes.value())} bytes")
    print(f"  RX: {int(nic.frames_received.value())} frames, "
          f"{int(nic.rx_bytes.value())} bytes")
    print(f"  interrupts: {int(system.kernel.intc.dispatched.value())} dispatched")

    # Table II's kernel module: 20 timed 4-byte reads of BAR0 + STATUS.
    engine = TrafficEngine(system, [
        FlowSpec("mmio", "mmio_read", "nic", requests=20)])
    engine.start()
    system.run()
    mean_ns = engine.results()["flows"]["mmio"]["mean_ns"]
    print(f"\n4B MMIO register read latency: {mean_ns:.0f} ns "
          f"(the paper's Table II measures 318-517 ns across RC latencies)")


if __name__ == "__main__":
    main()
