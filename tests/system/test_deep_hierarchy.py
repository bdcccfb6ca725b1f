"""Multi-level topologies built from specs: enumeration, routing, and
end-to-end traffic with the invariant checker armed.

Covers the issue's acceptance machine (depth-4 fan-out-4 from a JSON
document), the 3-deep switch chain with two devices per switch, and
the same-kind-device naming bug: two disks must keep distinct stats,
trace and driver identities end to end.
"""

from repro.obs.trace import MemorySink
from repro.pci import header as hdr
from repro.pci.capabilities import CAP_ID_PCIE
from repro.pcie.timing import PcieGen
from repro.system.spec import (DeviceSpec, SwitchSpec, TopologySpec,
                               deep_hierarchy_spec)
from repro.system.topology import build_system
from repro.workloads.dd import DdWorkload
from repro.workloads.traffic import FlowSpec, TrafficEngine


def chain3_spec() -> TopologySpec:
    """A 3-deep switch chain, each switch carrying a disk and a NIC."""

    def level(n: int, children_tail):
        return SwitchSpec(name=f"sw{n}", children=[
            DeviceSpec("disk", name=f"sw{n}_disk"),
            DeviceSpec("nic", name=f"sw{n}_nic"),
        ] + children_tail)

    return TopologySpec(children=[
        level(1, [level(2, [level(3, [])])])
    ]).finalize()


def bridge_mem_window(system, node):
    """Decode a bridge's programmed type-1 memory window from config space."""
    base = system.host.config_read(*node.bdf, hdr.MEMORY_BASE, 2)
    limit = system.host.config_read(*node.bdf, hdr.MEMORY_LIMIT, 2)
    return ((base & 0xFFF0) << 16), (((limit & 0xFFF0) << 16) | 0xFFFFF)


# ------------------------------------------------- 3-deep chain (satellite)


def test_chain3_bus_numbers_follow_depth_first_discovery():
    system = build_system(chain3_spec())
    enumerator = system.kernel.enumerator
    rp0 = enumerator.roots[0]
    assert rp0.secondary_bus == 1 and rp0.subordinate_bus == 12

    by_name = {}
    for name in ("sw1_disk", "sw1_nic", "sw2_disk", "sw2_nic",
                 "sw3_disk", "sw3_nic"):
        fn = system.devices[name].function
        for node in enumerator.all_devices():
            if not node.is_bridge and system.host.function_at(*node.bdf) is fn:
                by_name[name] = node
    assert {n: d.bus for n, d in by_name.items()} == {
        "sw1_disk": 3, "sw1_nic": 4,
        "sw2_disk": 7, "sw2_nic": 8,
        "sw3_disk": 11, "sw3_nic": 12,
    }
    # The chain bridge of each switch subsumes everything below it.
    sw1_up = rp0.children[0]
    assert sw1_up.secondary_bus == 2 and sw1_up.subordinate_bus == 12
    chain_bridge = sw1_up.children[-1]
    assert chain_bridge.secondary_bus == 5 and chain_bridge.subordinate_bus == 12


def test_chain3_bridge_windows_contain_descendant_bars():
    system = build_system(chain3_spec())

    def check(bridge):
        endpoints = [n for n in bridge.endpoints()]
        mem_bars = [bar for node in endpoints for bar in node.bars
                    if not bar.io and bar.assigned is not None]
        assert mem_bars, "every subtree here has memory BARs"
        lo, hi = bridge_mem_window(system, bridge)
        for bar in mem_bars:
            assert lo <= bar.assigned.start and bar.assigned.end - 1 <= hi
        for child in bridge.children:
            if child.is_bridge:
                check(child)

    check(system.kernel.enumerator.roots[0])


def test_chain3_dma_and_mmio_routable_with_checker_armed():
    system = build_system(chain3_spec(), check=True)
    # DMA path: dd against the deepest disk crosses all three switches.
    dd = DdWorkload(system.kernel, system.drivers["sw3_disk"], 64 * 1024,
                    startup_overhead=0)
    dd_proc = system.kernel.spawn("dd", dd.run())
    system.run(max_events=50_000_000)
    assert dd_proc.done
    assert system.devices["sw3_disk"].sectors_transferred.value() == 16
    # MMIO path: register reads against the deepest NIC's BAR0.
    engine = TrafficEngine(system, [
        FlowSpec("mmio", "mmio_read", "sw3_nic", requests=10)])
    engine.start()
    system.run(max_events=50_000_000)
    assert engine.completed
    assert engine.results()["flows"]["mmio"]["mean_ns"] > 0
    assert system.sim.checker.violations == []


def test_deeper_fabric_is_slower():
    shallow = build_system(deep_hierarchy_spec(1, 1))
    deep = build_system(deep_hierarchy_spec(4, 1))

    def throughput(system, name):
        dd = DdWorkload(system.kernel, system.drivers[name], 64 * 1024,
                        startup_overhead=0)
        proc = system.kernel.spawn("dd", dd.run())
        system.run(max_events=50_000_000)
        assert proc.done
        return dd.result.throughput_gbps

    assert throughput(shallow, "sw1_disk0") > throughput(deep, "sw4_disk0")


def test_each_port_advertises_its_own_link():
    # The root link, sw1's uplink and the sw1 -> sw2 link are x4; each
    # disk, and the switch port above it, sits on a device link, Gen 2
    # x1 or Gen 3 x8, which the disk's own capability advertises too.
    for gen, width in (("GEN2", 1), ("GEN3", 8)):
        system = build_system(deep_hierarchy_spec(2, 1, gen=gen, width=width))
        links = {}
        for node in system.kernel.enumerator.all_devices():
            offset = dict(node.capabilities)[CAP_ID_PCIE]
            link_caps = system.host.config_read(*node.bdf, offset + 0x0C, 4)
            links[node.bdf] = (link_caps & 0xF, (link_caps >> 4) & 0x3F)
        speed = PcieGen[gen].speed_code
        assert links == {
            (0, 0, 0): (speed, 4),  # root port -> sw1
            (1, 0, 0): (speed, 4),  # sw1 upstream
            (2, 0, 0): (speed, width),  # sw1 -> sw1_disk0
            (3, 0, 0): (speed, width),  # sw1_disk0
            (2, 1, 0): (speed, 4),  # sw1 -> sw2
            (4, 0, 0): (speed, 4),  # sw2 upstream
            (5, 0, 0): (speed, width),  # sw2 -> sw2_disk0
            (6, 0, 0): (speed, width),  # sw2_disk0
        }, gen


# ------------------------------------------- depth-4 fan-out-4 (acceptance)


def test_depth4_fanout4_builds_from_json_and_completes_dd():
    spec = deep_hierarchy_spec(4, 4)
    assert len(spec.devices()) >= 16
    rebuilt = TopologySpec.from_json(spec.to_json())
    system = build_system(rebuilt, check=True)
    assert len(system.switches) == 4
    # Every one of the 16 disks enumerated, got a BAR, and has a driver.
    for device in rebuilt.devices():
        driver = system.drivers[device.name]
        assert driver.bound and driver.bar0 != 0
    dd = DdWorkload(system.kernel, system.drivers["sw4_disk3"], 64 * 1024,
                    startup_overhead=0)
    proc = system.kernel.spawn("dd", dd.run())
    system.run(max_events=100_000_000)
    assert proc.done
    assert system.sim.checker.violations == []


# ------------------------------------- same-kind device identities (satellite)


def test_two_disks_keep_distinct_identities_end_to_end():
    spec = TopologySpec(children=[SwitchSpec(name="switch", children=[
        DeviceSpec("disk"), DeviceSpec("disk"),
    ])]).finalize()
    system = build_system(spec)
    sink = MemorySink()
    system.sim.tracer.categories = frozenset(("link",))
    system.sim.tracer.attach(sink)

    d0, d1 = system.devices["disk0"], system.devices["disk1"]
    assert d0 is not d1
    assert system.drivers["disk0"].device is d0
    assert system.drivers["disk1"].device is d1
    assert system.drivers["disk0"] is not system.drivers["disk1"]

    # Concurrent dd on both disks: per-instance counters must not alias.
    dd0 = DdWorkload(system.kernel, system.drivers["disk0"], 64 * 1024,
                     startup_overhead=0)
    dd1 = DdWorkload(system.kernel, system.drivers["disk1"], 128 * 1024,
                     startup_overhead=0)
    p0 = system.kernel.spawn("dd0", dd0.run())
    p1 = system.kernel.spawn("dd1", dd1.run())
    system.run(max_events=50_000_000)
    assert p0.done and p1.done
    assert d0.sectors_transferred.value() == 16
    assert d1.sectors_transferred.value() == 32

    # Stats keys are distinct per instance — no silent overwrite.
    stats = system.stats()
    s0 = {k for k in stats if k.startswith("disk0.")}
    s1 = {k for k in stats if k.startswith("disk1.")}
    assert s0 and s1
    assert stats["disk0.sectors_transferred"] == 16
    assert stats["disk1.sectors_transferred"] == 32
    assert {k for k in stats if k.startswith("disk0_link.")}
    assert {k for k in stats if k.startswith("disk1_link.")}

    # Trace component names are distinct per instance too.
    comps = {ev["comp"] for ev in sink.events}
    assert any("disk0_link" in c for c in comps)
    assert any("disk1_link" in c for c in comps)
