"""End-to-end tests of the MSI extension (the paper's future-work path:
interrupts as posted memory writes through the PCI-Express fabric)."""

import pytest

from repro.sim import ticks
from repro.system.spec import nic_spec, validation_spec
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload


def test_driver_chooses_msi_when_enable_bit_sticks():
    system = build_system(validation_spec(enable_msi=True))
    assert system.disk_driver.interrupt_mode == "msi"


def test_default_system_still_falls_back_to_legacy():
    system = build_system(validation_spec())
    assert system.disk_driver.interrupt_mode == "legacy"


def test_msi_capability_programmed_at_doorbell():
    from repro.pci.capabilities import CAP_ID_MSI, MsiCapability

    system = build_system(validation_spec(enable_msi=True))
    fn = system.disk.function
    offset = fn.find_capability(CAP_ID_MSI)
    assert fn.config_read(offset + MsiCapability.CONTROL, 2) & 0x1
    assert (
        fn.config_read(offset + MsiCapability.ADDRESS, 4)
        == system.kernel.msi_target_addr
    )
    assert (
        fn.config_read(offset + MsiCapability.DATA, 2)
        == system.disk_driver.found.interrupt_line
    )


def test_dd_completes_via_msi_memory_writes():
    system = build_system(validation_spec(enable_msi=True))
    dd = DdWorkload(system.kernel, system.disk_driver, 64 * 1024,
                    startup_overhead=0)
    process = system.kernel.spawn("dd", dd.run())
    system.run(max_events=20_000_000)
    assert process.done
    doorbell = system.msi_doorbell
    # One command (16 sectors < 32/request): one interrupt, as an MSI.
    assert doorbell.msis_received.value() >= 1
    assert system.disk.msis_sent.value() == doorbell.msis_received.value()
    assert system.kernel.intc.dispatched.value() >= 1


def test_msi_throughput_comparable_to_legacy():
    legacy = build_system(validation_spec())
    msi = build_system(validation_spec(enable_msi=True))
    results = {}
    for name, system in (("legacy", legacy), ("msi", msi)):
        dd = DdWorkload(system.kernel, system.disk_driver, 64 * 1024,
                        startup_overhead=0)
        system.kernel.spawn("dd", dd.run())
        system.run(max_events=20_000_000)
        results[name] = dd.result.throughput_gbps
    assert results["msi"] == pytest.approx(results["legacy"], rel=0.10)


def test_nic_msi_loopback_round_trip():
    from repro.sim.process import WaitFor

    system = build_system(nic_spec(enable_msi=True))
    driver = system.nic_driver
    assert driver.interrupt_mode == "msi"
    done = {}

    def body():
        yield from driver.bring_up()
        yield from driver.enable_loopback()
        rx = driver.post_rx_buffer(0x92000000, 2048)
        tx = yield from driver.transmit(0x91000000, 1200)
        yield WaitFor(tx)
        yield WaitFor(rx)
        done["ok"] = True

    system.kernel.spawn("loopback", body())
    system.run(max_events=5_000_000)
    assert done.get("ok")
    assert system.msi_doorbell.msis_received.value() >= 2


def test_msi_writes_travel_the_fabric():
    """The MSI must be a real posted write crossing the links — not a
    wire shortcut."""
    system = build_system(validation_spec(enable_msi=True))
    dd = DdWorkload(system.kernel, system.disk_driver, 16 * 1024,
                    startup_overhead=0)
    system.kernel.spawn("dd", dd.run())
    before = system.disk_link.up_link.packets.value()
    system.run(max_events=20_000_000)
    doorbell = system.msi_doorbell
    assert doorbell.msis_received.value() >= 1
    # The MSI adds at least one extra upstream TLP beyond the DMA writes.
    dma_packets = 4 * 64  # 16 KB of 64B write TLPs
    assert system.disk_link.downstream_if.tlps_sent.value() > dma_packets
