"""End-to-end integration tests on the assembled systems."""

import pytest

from repro.pcie.timing import PcieGen
from repro.sim import ticks
from repro.system.spec import (DeviceSpec, LinkSpec, RootComplexSpec,
                               SwitchSpec, TopologySpec,
                               classic_pci_spec, nic_spec, validation_spec)
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload
from repro.workloads.traffic import FlowSpec, TrafficEngine


# ---------------------------------------------------------------- enumeration


def test_validation_system_enumerates_paper_topology():
    system = build_system(validation_spec())
    enumerator = system.kernel.enumerator
    # Depth-first numbering: root port sec=1, switch upstream sec=2,
    # first downstream sec=3 (the disk's bus), second downstream sec=4.
    rp0 = enumerator.roots[0]
    assert rp0.is_bridge and rp0.secondary_bus == 1
    upstream = rp0.children[0]
    assert upstream.secondary_bus == 2
    down0, down1 = upstream.children
    assert down0.secondary_bus == 3
    assert down1.secondary_bus == 4
    (disk_node,) = down0.children
    assert (disk_node.vendor_id, disk_node.device_id) == (0x8086, 0x7111)
    assert disk_node.bus == 3


def test_disk_driver_probe_falls_back_to_legacy_interrupt():
    system = build_system(validation_spec())
    driver = system.drivers["disk"]
    assert driver.bound
    assert driver.interrupt_mode == "legacy"
    assert driver.bar0 != 0
    assert system.addrmap.pci_mem.contains(driver.bar0)


def test_rc_claims_programmed_windows():
    system = build_system(validation_spec())
    ranges = system.root_complex.upstream_slave.get_ranges()
    assert ranges, "RC must claim the enumerated windows"
    assert any(r.contains(system.drivers["disk"].bar0) for r in ranges)


# ---------------------------------------------------------------- dd workload


def run_dd(system, block_size):
    dd = DdWorkload(system.kernel, system.drivers["disk"], block_size,
                    startup_overhead=0)
    proc = system.kernel.spawn("dd", dd.run())
    system.run(max_events=20_000_000)
    assert proc.done, "dd never finished"
    return dd.result


def test_dd_reads_complete_and_report_throughput():
    system = build_system(validation_spec())
    result = run_dd(system, 64 * 1024)  # 16 sectors
    assert result.nbytes == 64 * 1024
    assert system.devices["disk"].sectors_transferred.value() == 16
    # Gen 2 x1 wire rate for 64B-payload TLPs is ~3.05 Gbps; dd-level
    # throughput must be below that but same order.
    assert 1.0 < result.throughput_gbps < 3.05


def test_dd_device_level_rate_near_wire_rate():
    system = build_system(validation_spec())
    run_dd(system, 128 * 1024)
    mean_ticks = system.devices["disk"].sector_transfer_ticks.mean
    gbps = 4096 * 8 / ticks.to_ns(mean_ticks)
    # The paper reports 3.072 Gbps at device level on Gen 2 x1; the DMA
    # barrier and fabric round trip keep ours a bit below the 3.05 wire
    # rate but well above 2.
    assert 2.0 < gbps <= 3.05


def test_dd_no_replays_at_x1(caplog=None):
    system = build_system(validation_spec())
    run_dd(system, 64 * 1024)
    assert system.links["disk"].downstream_if.tlp_replays.value() == 0
    assert system.links["disk"].downstream_if.timeouts.value() == 0


def test_wider_device_link_is_faster():
    slow = build_system(validation_spec(device_link_width=1))
    fast = build_system(validation_spec(device_link_width=4))
    r1 = run_dd(slow, 64 * 1024)
    r4 = run_dd(fast, 64 * 1024)
    assert r4.throughput_gbps > r1.throughput_gbps * 1.3


def test_lower_switch_latency_slightly_faster():
    slow = build_system(validation_spec(switch_latency=ticks.from_ns(150)))
    fast = build_system(validation_spec(switch_latency=ticks.from_ns(50)))
    rs = run_dd(slow, 64 * 1024)
    rf = run_dd(fast, 64 * 1024)
    assert rf.throughput_gbps > rs.throughput_gbps
    # The paper: ~3% improvement — small, not transformative.
    assert rf.throughput_gbps < rs.throughput_gbps * 1.15


def test_dma_traffic_flows_through_iocache_to_dram():
    system = build_system(validation_spec())
    run_dd(system, 64 * 1024)
    assert system.iocache.allocations.value() > 0
    assert system.dram.writes.value() > 0


def test_posted_write_ablation_is_faster():
    baseline = build_system(validation_spec())
    posted = build_system(validation_spec(posted_writes=True))
    rb = run_dd(baseline, 64 * 1024)
    rp = run_dd(posted, 64 * 1024)
    assert rp.throughput_gbps > rb.throughput_gbps


# ---------------------------------------------------------------- NIC / Table II


def test_nic_system_probe_and_bring_up():
    system = build_system(nic_spec())
    driver = system.drivers["nic"]
    assert driver.interrupt_mode == "legacy"
    done = {}

    def body():
        status = yield from driver.bring_up()
        done["status"] = status

    system.kernel.spawn("bring_up", body())
    system.run()
    assert done["status"] & 0x2  # link up


def test_mmio_latency_grows_with_rc_latency():
    means = {}
    for rc_ns in (50, 150):
        system = build_system(nic_spec(rc_latency=ticks.from_ns(rc_ns)))
        engine = TrafficEngine(system, [
            FlowSpec("mmio", "mmio_read", "nic", requests=20)])
        engine.start()
        system.run()
        means[rc_ns] = engine.results()["flows"]["mmio"]["mean_ns"]
    # Request and response both cross the RC: >= 2x the latency delta.
    delta = means[150] - means[50]
    assert delta >= 2 * (150 - 50) * 0.9
    assert means[50] > 150  # fabric adds more than just the RC


def test_nic_tx_through_full_fabric():
    system = build_system(nic_spec())
    driver = system.drivers["nic"]
    done = {}

    def body():
        yield from driver.bring_up()
        signal = yield from driver.transmit(0x90000000, 1500)
        from repro.sim.process import WaitFor
        yield WaitFor(signal)
        done["tick"] = system.sim.curtick

    system.kernel.spawn("tx", body())
    system.run(max_events=5_000_000)
    assert "tick" in done
    assert system.devices["nic"].frames_transmitted.value() == 1
    assert system.dram.reads.value() > 0  # descriptor + payload fetches


# ---------------------------------------------------------------- dual-device


def dual_device_system():
    """Disk on switch port 0, NIC on port 1, sharing the root link."""
    fast = dict(ack_policy="immediate")
    return build_system(TopologySpec(children=[SwitchSpec(
        name="switch", link=LinkSpec(name="root", width=4, **fast),
        children=[DeviceSpec("disk", name="disk", link=LinkSpec(**fast)),
                  DeviceSpec("nic", name="nic", link=LinkSpec(**fast))])],
        root_complex=RootComplexSpec(num_root_ports=3)).finalize())


def test_dual_device_system_boots_both_drivers():
    system = dual_device_system()
    assert system.drivers["disk"].bound
    assert system.drivers["nic"].bound
    # Disk on bus 3, NIC on bus 4.
    disk_nodes = system.kernel.enumerator.find(0x8086, 0x7111)
    nic_nodes = system.kernel.enumerator.find(0x8086, 0x10D3)
    assert disk_nodes[0].bus == 3
    assert nic_nodes[0].bus == 4


def test_dual_device_concurrent_traffic():
    system = dual_device_system()
    finished = []

    def disk_job():
        dd = DdWorkload(system.kernel, system.drivers["disk"], 32 * 1024,
                        startup_overhead=0)
        yield from dd.run()
        finished.append("disk")

    def nic_job():
        from repro.sim.process import WaitFor
        yield from system.drivers["nic"].bring_up()
        for i in range(4):
            sig = yield from system.drivers["nic"].transmit(0x91000000, 1500)
            yield WaitFor(sig)
        finished.append("nic")

    system.kernel.spawn("disk_job", disk_job())
    system.kernel.spawn("nic_job", nic_job())
    system.run(max_events=20_000_000)
    assert sorted(finished) == ["disk", "nic"]


# ---------------------------------------------------------------- classic PCI


def test_classic_pci_system_boots_and_reads():
    system = build_system(classic_pci_spec())
    assert system.drivers["disk"].bound
    result = run_dd(system, 32 * 1024)
    assert result.nbytes == 32 * 1024
    bus = system.devices["pci_bus"]
    assert bus.transactions.value() > 0


def test_classic_pci_much_slower_than_pcie():
    classic = build_system(classic_pci_spec())
    pcie = build_system(validation_spec())
    rc = run_dd(classic, 32 * 1024)
    rp = run_dd(pcie, 32 * 1024)
    # A 33 MHz shared bus cannot approach a Gen 2 x1 serial link.
    assert rp.throughput_gbps > 2 * rc.throughput_gbps
