"""Frozen benchmark inputs: pure documents, generated from a seed.

Every machine and traffic description the benchmark feeds the simulator
is spelled out here field by field — no ``repro`` import, no builder or
``LinkSpec`` default — so a later change that moves a default cannot
silently change what is measured.  The simulator only ever sees the
documents these functions return (``TopologySpec.to_dict`` /
``FlowSpec.to_dict`` shaped).

``seed`` feeds every link's ``error_seed`` and every flow's RNG seed;
``scale`` multiplies the transfer sizes (1.0 = the sizes the workloads
were designed at, a 1 MiB ``dd``; the benchmark's default is
:data:`DEFAULT_SCALE` so a run fits enough repeats for a steady median).

Tick quantities are plain integers, 1 tick = 1 ps.
"""

from typing import Any, Dict, List

NS = 1_000
US = 1_000_000

#: Disk sector size; every transfer is a whole number of sectors.
SECTOR = 4096

#: Default ``--scale``: a quarter of the design sizes, so one measured
#: batch takes about a second and ten fit in ``run_seconds``.
DEFAULT_SCALE = 0.25

#: dd's fixed software start-up cost at scale 1.0 (the paper's ~29 ms
#: divided by the same 64 as its 64 MB block); scaled with the block so
#: the amortisation, and therefore the reported Gbps, stays put.
DD_STARTUP = 453 * US

#: Base of dd's DRAM buffer (inside the platform's DRAM range, clear of
#: the kernel's descriptor rings).
DD_BUFFER = 0x9000_0000

class UnknownWorkload(ValueError):
    """``--workload`` named something :func:`build` does not know."""


def scaled_bytes(base: int, scale: float) -> int:
    """``base * scale`` rounded to whole sectors, at least one."""
    return max(1, round(base * scale / SECTOR)) * SECTOR


# -- machine documents ------------------------------------------------------

def link_doc(name: str, width: int, seed: int, ack_policy: str,
             error_rate: float = 0.0, dllp_error_rate: float = 0.0,
             replay_buffer_size: int = 4,
             input_queue_size: int = 2) -> Dict[str, Any]:
    """One Gen 2 link, every ``LinkSpec`` field explicit."""
    return {
        "name": name, "gen": "GEN2", "width": width,
        "replay_buffer_size": replay_buffer_size, "ack_policy": ack_policy,
        "input_queue_size": input_queue_size,
        "p_credits": 6, "np_credits": 6, "cpl_credits": 4,
        "error_rate": error_rate, "dllp_error_rate": dllp_error_rate,
        "error_seed": 0x5EED + seed,
        "propagation_delay": 4 * NS, "max_payload": 64,
        "replay_timeout": None, "ack_period": None,
    }


def disk_doc(name: str, link: Dict[str, Any], msi: bool) -> Dict[str, Any]:
    """One IDE disk, every model constructor argument explicit."""
    doc = {
        "node": "device", "kind": "disk", "name": name,
        "params": {
            "sector_size": SECTOR, "access_latency": 1 * US,
            "capacity_sectors": 1 << 30, "posted_writes": False,
            "dma_outstanding": 64, "pio_latency": 30 * NS,
            "msi_functional": msi,
        },
    }
    if link is not None:
        doc["link"] = link
    return doc


def switch_doc(name: str, link: Dict[str, Any], children: List[Dict[str, Any]],
               num_ports: int) -> Dict[str, Any]:
    """One switch: 150 ns store-and-forward, 16-slot port pools, a
    42 ns per-port datapath."""
    return {
        "node": "switch", "name": name, "link": link,
        "latency": 150 * NS, "buffer_size": 16,
        "service_interval": 42 * NS, "datapath_scope": "port",
        "num_ports": num_ports, "children": children,
    }


def topology_doc(name: str, children: List[Dict[str, Any]],
                 num_root_ports: int, msi: bool) -> Dict[str, Any]:
    """A PCI-Express machine around the given root-port subtrees."""
    return {
        "kind": "pcie", "name": name,
        "root_complex": {
            "latency": 150 * NS, "buffer_size": 16,
            "service_interval": 42 * NS, "datapath_scope": "port",
            "num_root_ports": num_root_ports,
        },
        "enable_msi": msi, "children": children,
    }


def validation_topology(root_width: int, disk_width: int, seed: int,
                        **link_knobs) -> Dict[str, Any]:
    """The paper's validation machine: root complex -- switch -- IDE
    disk, immediate ACKs, ``link_knobs`` applied to both links."""
    def link(name, width):
        return link_doc(name, width, seed, "immediate", **link_knobs)
    switch = switch_doc("switch", link("root", root_width),
                        [disk_doc("disk", link("disk", disk_width), msi=False)],
                        num_ports=2)
    return topology_doc("validation", [switch], num_root_ports=3, msi=False)


def deep_topology(depth: int, fanout: int, seed: int) -> Dict[str, Any]:
    """A spine of ``depth`` switches with ``fanout`` x1 disks each, x4
    trunks, timer ACKs and MSI delivered through the fabric."""
    def level(d):
        children = [
            disk_doc(f"sw{d}_disk{i}",
                     link_doc(f"sw{d}_disk{i}", 1, seed, "timer"), msi=True)
            for i in range(fanout)]
        if d < depth:
            children.append(level(d + 1))
        return switch_doc(f"sw{d}", link_doc(f"sw{d}", 4, seed, "timer"),
                          children, num_ports=len(children))
    return topology_doc(f"deep_d{depth}_f{fanout}", [level(1)],
                        num_root_ports=1, msi=True)


def classic_topology() -> Dict[str, Any]:
    """The same disk on a 33 MHz shared classic PCI bus."""
    return {"kind": "classic_pci", "clock_mhz": 33,
            "device": disk_doc("disk", None, msi=False)}


def flow_doc(name: str, kind: str, device: str, requests: int,
             bytes_per_request: int, seed: int, gap: int = 0,
             jitter: float = 0.0) -> Dict[str, Any]:
    """One traffic flow, every ``FlowSpec`` field explicit."""
    return {
        "name": name, "kind": kind, "device": device, "requests": requests,
        "bytes_per_request": bytes_per_request, "gap": gap, "jitter": jitter,
        "burst": 1, "seed": seed, "start_delay": 0, "loopback": False,
        "mmio_offset": 0x8,
    }


# -- simulation documents ---------------------------------------------------
# A simulation document is one closed batch of fixed work:
#   {"kind": "dd",    topology, device, block_bytes, startup_ticks, ...}
#   {"kind": "flows", topology, flows, ...}
# plus "check" (arm the invariant checker in record mode) and
# "max_events" (the wedge guard: ~8x the events the work needs).

def dd_doc(topology: Dict[str, Any], block_bytes: int, startup_ticks: int,
           seed: int, check: bool = False) -> Dict[str, Any]:
    """One ``dd`` read of ``block_bytes`` from the machine's disk into a
    direct-I/O buffer whose DRAM page moves with the seed."""
    return {"kind": "dd", "topology": topology, "device": "disk",
            "block_bytes": block_bytes, "startup_ticks": startup_ticks,
            "buffer_addr": DD_BUFFER + (seed % 256) * SECTOR,
            "check": check, "max_events": 200_000 + 5 * block_bytes}


def flows_doc(topology: Dict[str, Any], flows: List[Dict[str, Any]],
              check: bool = False) -> Dict[str, Any]:
    """Concurrent flows driven through ``TrafficEngine``."""
    moved = sum(f["requests"] * f["bytes_per_request"] for f in flows)
    return {"kind": "flows", "topology": topology, "flows": flows,
            "check": check, "max_events": 200_000 + 10 * moved}


def dd_x1_read(seed: int, scale: float) -> Dict[str, Any]:
    """The paper's validation point and the headline number: one ``dd``
    read over Gen 2 x1/x1.  Wire-serialisation bound in simulated time;
    ``pcie.link`` and ``sim.eventq`` do most of the host work."""
    return dd_doc(validation_topology(1, 1, seed),
                  scaled_bytes(1 << 20, scale), round(DD_STARTUP * scale), seed)


def dd_x8_read(seed: int, scale: float) -> Dict[str, Any]:
    """The same machine at x8/x8: the wire is 8x shorter, so credits,
    port pools and the IOCache/DRAM path bind and the refusal/retry and
    credit-stall paths run that ``dd_x1_read`` never enters.  A link
    fusion that only helps an uncontended wire must not cost this."""
    return dd_doc(validation_topology(8, 8, seed),
                  scaled_bytes(1 << 20, scale), round(DD_STARTUP * scale), seed)


def dd_x1_write(seed: int, scale: float) -> Dict[str, Any]:
    """One ``dd_write`` flow through ``TrafficEngine`` on the x1
    machine: device DMA *reads*, so non-posted requests go upstream and
    data completions come down — the NP/CPL credit classes and the
    opposite data direction to ``dd_x1_read``."""
    return flows_doc(validation_topology(1, 1, seed), [
        flow_doc("writer", "dd_write", "disk", 1,
                 scaled_bytes(1 << 20, scale), seed)])


def deep4_multi_rw(seed: int, scale: float) -> Dict[str, Any]:
    """Four concurrent flows (read, write, read, write) on the second
    disk of each level of a depth-4 fabric, 1 us gaps with 0.5 jitter so
    the seed matters.  Multi-hop, multi-flow, timer ACKs, MSI: routing
    and switch arbitration, traffic accounting, and an 8-device
    enumeration in ``setup_s``."""
    flows = [
        flow_doc(f"flow{d}", "dd_read" if d % 2 else "dd_write",
                 f"sw{d}_disk1", 4, scaled_bytes(32 << 10, scale),
                 seed + d, gap=1 * US, jitter=0.5)
        for d in (1, 2, 3, 4)]
    return flows_doc(deep_topology(4, 2, seed), flows)


def classic_pci_read(seed: int, scale: float) -> Dict[str, Any]:
    """One ``dd`` read on the shared classic PCI bus: no ``pcie.link``
    or ``pcie.fc`` at all.  The bypass workload: a link-layer change
    predicts no movement here; an event-queue, port, kernel or device
    change predicts its largest movement here."""
    return dd_doc(classic_topology(), scaled_bytes(4 << 20, scale),
                  round(DD_STARTUP * scale), seed)


def stress_points(seed: int, scale: float) -> Dict[str, Dict[str, Any]]:
    """The 38 checker-armed points of the fault-injection grid, by key:
    36 error-rate x buffer-size cells of one short ``dd`` each, a
    two-reader contention scenario with a lossy uplink, and the
    two-writer non-posted storm."""
    points: Dict[str, Dict[str, Any]] = {}
    block = scaled_bytes(64 << 10, scale)
    for er in (0.0, 0.02, 0.1):
        for dr in (0.0, 0.1):
            for rb in (1, 2, 4):
                for iq in (1, 2):
                    topology = validation_topology(
                        4, 1, seed, error_rate=er, dllp_error_rate=dr,
                        replay_buffer_size=rb, input_queue_size=iq)
                    doc = dd_doc(topology, block, 0, seed, check=True)
                    # Recovery storms at rb1/er0.1 need far more events
                    # per byte than a clean transfer.
                    doc["max_events"] *= 10
                    points[f"er{er}/dllp{dr}/rb{rb}/iq{iq}"] = doc

    def timer_link(name, width, error_rate=0.0):
        return link_doc(name, width, seed, "timer", error_rate=error_rate)

    leaf = switch_doc(
        "sw_leaf", timer_link("uplink", 1, error_rate=0.02),
        [disk_doc(f"disk{i}", timer_link(f"disk{i}", 4), msi=False)
         for i in range(2)], num_ports=2)
    top = switch_doc("sw_top", timer_link("trunk", 4), [leaf], num_ports=1)
    points["multiflow/er0.02"] = flows_doc(
        topology_doc("fanout_contention", [top], num_root_ports=1, msi=False),
        [flow_doc(f"reader{i}", "dd_read", f"disk{i}", 2,
                  scaled_bytes(8 << 10, scale), seed + i) for i in range(2)],
        check=True)

    storm = switch_doc(
        "switch", timer_link("root_uplink", 1),
        [disk_doc(f"disk{i}", timer_link(f"disk{i}", 1), msi=False)
         for i in range(2)], num_ports=2)
    points["np_storm/unpinned"] = flows_doc(
        topology_doc("np_storm", [storm], num_root_ports=1, msi=False),
        [flow_doc(f"writer{i}", "dd_write", f"disk{i}", 2,
                  scaled_bytes(16 << 10, scale), seed + i) for i in range(2)],
        check=True)
    return points


def stress_sweep_fresh(seed: int, scale: float) -> Dict[str, Any]:
    """The path a figure takes: the 38-point grid through
    ``SweepEngine`` on a fresh cache — harness, cache, spawn pool and
    merge, 38 system builds, the armed checker, and the NAK/replay/
    timeout paths no clean workload touches."""
    return {"kind": "sweep", "name": "stress",
            "points": stress_points(seed, scale)}


def stress_sample(seed: int, scale: float) -> Dict[str, Any]:
    """Every fourth point of the stress grid (ten, one of them the
    multi-flow scenario): what the per-layer run can afford to repeat
    serially, traced, profiled and on every backend."""
    points = stress_points(seed, scale)
    return {"kind": "sweep", "name": "stress_sample",
            "points": {key: points[key] for key in list(points)[::4]}}


_BUILDERS = {
    "dd_x1_read": dd_x1_read,
    "dd_x8_read": dd_x8_read,
    "dd_x1_write": dd_x1_write,
    "deep4_multi_rw": deep4_multi_rw,
    "classic_pci_read": classic_pci_read,
    "stress_sweep_fresh": stress_sweep_fresh,
}


WORKLOAD_NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, scale: float = DEFAULT_SCALE) -> Dict[str, Any]:
    """The input document of workload ``name`` for ``seed``."""
    if name not in _BUILDERS:
        raise UnknownWorkload(
            f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")
    return _BUILDERS[name](seed, scale)


def sim_docs(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The simulation documents inside a workload document: itself, or
    a sweep's points in declaration order."""
    return list(doc["points"].values()) if doc["kind"] == "sweep" else [doc]
