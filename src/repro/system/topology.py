"""Generic, spec-driven system assembly.

:func:`build_system` turns a declarative :class:`~repro.system.spec.TopologySpec`
tree — root complex, arbitrarily deep/fanned switch hierarchies,
per-link PCI-Express parameters, any mix of devices — into a fully
assembled machine of the paper's Figures 3 and 6: processor, MemBus,
DRAM, IOCache, PCI host, root complex, links, switches, devices,
kernel, drivers.  It then boots the kernel (PCI enumeration walks the
same tree through the virtual P2P bridges), binds drivers, and returns
a :class:`PcieSystem` with handles to every component keyed by the
spec's instance names.

Named machines are the presets of :mod:`repro.system.spec`;
``build_system(validation_spec())`` is the paper's validation topology:

    root complex ──Gen2 x4── switch ──Gen2 x1── IDE disk

with the root-complex and switch latencies at 150 ns, port buffers of
16 packets and replay buffers of 4: the defaults of the spec records.
Figure 9 sweeps the switch latency, the link widths and both buffer
sizes, so each is a ``validation_spec`` keyword; Table II's
root-complex latency is a ``nic_spec`` keyword.
"""

from typing import Dict, List, Optional, Union

from repro.devices.accel import DmaAccelerator
from repro.devices.disk import IdeDisk
from repro.devices.nic import Nic8254xPcie
from repro.drivers.accel import DmaAccelDriver
from repro.drivers.e1000e import E1000eDriver
from repro.drivers.ide import IdeDiskDriver
from repro.kernel.kernel import OsKernel
from repro.mem.dram import SimpleMemory
from repro.mem.iocache import IOCache
from repro.mem.xbar import NoncoherentXBar
from repro.pci.host import PciHost
from repro.pcie.link import PcieLink
from repro.pcie.root_complex import RootComplex
from repro.pcie.switch import PcieSwitch
from repro.platform.addrmap import VEXPRESS_GEM5_V1
from repro.sim.simobject import Simulator
from repro.system.spec import (ClassicPciSpec, DeviceSpec, SpecError,
                               SwitchSpec, TopologySpec, spec_from_dict)

#: Device model and driver classes behind each :class:`DeviceSpec` kind,
#: the single place the spec layer's kinds meet classes: a new device
#: model, built as ``model(sim, device_spec)``, is one entry here plus
#: its knob record in :data:`repro.system.spec.DEVICE_KNOBS`.
DEVICE_KINDS = {
    "disk": (IdeDisk, IdeDiskDriver),
    "nic": (Nic8254xPcie, E1000eDriver),
    "accel": (DmaAccelerator, DmaAccelDriver),
}


class PcieSystem:
    """Handles to an assembled, booted system.

    ``devices``/``links``/``switches``/``drivers`` are keyed by the
    spec's unique instance names — the only way to reach a part, since a
    mixed fabric has no single "the disk"; ``spec`` records the topology
    the machine was built from; ``addrmap`` is the platform address
    map every machine is built on.
    """

    addrmap = VEXPRESS_GEM5_V1

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.membus: Optional[NoncoherentXBar] = None
        self.dram: Optional[SimpleMemory] = None
        self.iocache: Optional[IOCache] = None
        self.host: Optional[PciHost] = None
        self.kernel: Optional[OsKernel] = None
        self.root_complex: Optional[RootComplex] = None
        self.switches: Dict[str, PcieSwitch] = {}
        self.links: Dict[str, PcieLink] = {}
        self.devices: Dict[str, object] = {}
        self.drivers: Dict[str, object] = {}
        self.msi_doorbell = None
        self.spec: Optional[Union[TopologySpec, ClassicPciSpec]] = None

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drive the simulator (see :meth:`repro.sim.simobject.Simulator.run`)."""
        return self.sim.run(until=until, max_events=max_events)

    def stats(self) -> dict:
        """Flat dotted-name statistics dump of the whole machine."""
        return self.sim.dump_stats()


def _build_core(sim: Simulator) -> PcieSystem:
    """The common substrate: MemBus + DRAM + IOCache + host + kernel.

    Every part takes only its name and wiring: its timing and sizes are
    its module's or class's constants, since the paper varies only the
    PCI-Express knobs of the spec records."""
    system = PcieSystem(sim)
    system.membus = NoncoherentXBar(sim, "membus")
    system.dram = SimpleMemory(sim, "dram", system.addrmap.dram)
    system.dram.port.bind(system.membus.attach_slave("dram_side"))
    system.host = PciHost(sim)
    system.host.port.bind(system.membus.attach_slave("pci_host_side"))
    system.kernel = OsKernel(sim)
    system.kernel.cpu.port.bind(system.membus.attach_master("cpu"))
    system.iocache = IOCache(sim, "iocache")
    system.iocache.mem_side.bind(system.membus.attach_master("iocache_side"))
    return system


def _attach_msi_doorbell(system: PcieSystem) -> None:
    """Give the platform an MSI doorbell (the extension path): devices
    whose MSI capability the driver enables interrupt by posting memory
    writes here instead of wiggling INTx."""
    from repro.kernel.interrupts import MsiDoorbell

    doorbell = MsiDoorbell(system.sim, intc=system.kernel.intc)
    doorbell.port.bind(system.membus.attach_slave("msi_doorbell_side"))
    system.msi_doorbell = doorbell
    system.kernel.msi_target_addr = doorbell.range.start


def _attach_root_complex(system: PcieSystem, root_complex: RootComplex) -> None:
    root_complex.upstream_slave.bind(system.membus.attach_slave("rc_side"))
    root_complex.upstream_master.bind(system.iocache.cpu_side)
    system.root_complex = root_complex


def _connect_link(link: PcieLink, upstream_port, device=None, switch=None) -> None:
    """Wire a link between an RC/switch port (upstream end) and either a
    device or a switch upstream port (downstream end)."""
    upstream_port.master_port.bind(link.upstream_if.slave_port)
    link.upstream_if.master_port.bind(upstream_port.slave_port)
    if device is not None:
        link.downstream_if.master_port.bind(device.pio_port)
        device.dma_port.bind(link.downstream_if.slave_port)
    elif switch is not None:
        link.downstream_if.master_port.bind(switch.upstream_slave)
        switch.upstream_master.bind(link.downstream_if.slave_port)
    else:
        raise ValueError("link needs a device or a switch at its downstream end")


def _boot_and_bind(system: PcieSystem, driver_specs: List[tuple]) -> None:
    """Enumerate, then bind (name, driver, device_model) triples.

    The name→driver mapping in ``system.drivers`` is made by model
    identity (``driver.device``), not list position, so it stays correct
    however the kernel's first-match binding pairs drivers with multiple
    same-kind devices.
    """
    kernel = system.kernel
    kernel.boot(system.host)
    device_map = {}
    models = {id(model): (name, model) for name, __, model in driver_specs}
    by_function = {id(model.function): model for __, __, model in driver_specs}
    for node in kernel.enumerator.all_devices():
        if node.is_bridge:
            continue
        model = by_function.get(id(system.host.function_at(*node.bdf)))
        if model is not None:
            device_map[node.bdf] = model
    kernel.bind_drivers([drv for __, drv, __ in driver_specs], device_map)
    for __, driver, __ in driver_specs:
        if not driver.bound:
            raise RuntimeError(
                f"{type(driver).__name__} found no device to bind")
        name, model = models[id(driver.device)]
        system.drivers[name] = driver
        model.intc = kernel.intc


# ---------------------------------------------------------------------------
# The generic, spec-driven builder.
# ---------------------------------------------------------------------------


def _build_subtree(sim: Simulator, system: PcieSystem,
                   node: Union[SwitchSpec, DeviceSpec], upstream_port,
                   parent_bus) -> None:
    """Instantiate and wire one spec node (and, for switches, the whole
    subtree behind it) below ``upstream_port``, installing its
    configuration-space presence on ``parent_bus`` as it goes."""
    if isinstance(node, DeviceSpec):
        model_cls, __ = DEVICE_KINDS[node.kind]
        device = model_cls(sim, node)
        system.devices[node.name] = device
        link = PcieLink.from_spec(sim, f"{node.link.name}_link", node.link)
        _connect_link(link, upstream_port, device=device)
        system.links[node.link.name] = link
        parent_bus.add_function(0, 0, device.function)
        return

    switch = PcieSwitch(sim, node)
    system.switches[node.name] = switch
    link = PcieLink.from_spec(sim, f"{node.link.name}_link", node.link)
    _connect_link(link, upstream_port, switch=switch)
    system.links[node.link.name] = link
    down_buses = switch.register_with_host(parent_bus)
    for i, child in enumerate(node.children):
        _build_subtree(sim, system, child, switch.downstream_ports[i],
                       down_buses[i])


def _build_pcie_from_spec(spec: TopologySpec, sim: Simulator) -> PcieSystem:
    """Assemble, boot and bind a PCI-Express machine from a spec tree."""
    system = _build_core(sim)
    system.spec = spec

    root_complex = RootComplex(sim, spec.root_complex,
                               links=spec.root_port_links)
    _attach_root_complex(system, root_complex)
    if spec.enable_msi:
        _attach_msi_doorbell(system)

    # Root ports sit on config bus 0; each subtree hangs behind its
    # root port, in spec (= physical wiring = discovery) order.
    rp_buses = root_complex.register_with_host(system.host)
    for i, child in enumerate(spec.children):
        _build_subtree(sim, system, child, root_complex.root_ports[i],
                       rp_buses[i])

    driver_specs = []
    for device in spec.devices():
        __, driver_cls = DEVICE_KINDS[device.kind]
        driver_specs.append(
            (device.name, driver_cls(), system.devices[device.name]))
    _boot_and_bind(system, driver_specs)
    return system


def _build_classic_from_spec(spec: ClassicPciSpec,
                             sim: Simulator) -> PcieSystem:
    """Assemble the classic shared-PCI-bus baseline from a validated spec.

    CPU requests cross a host bridge onto the shared bus; the disk's DMA
    masters the same bus toward memory (through the IOCache).  Useful
    only for the PCI-vs-PCIe ablation — everything else in the paper
    assumes the PCI-Express fabric.
    """
    from repro.mem.bridge import Bridge
    from repro.pci.bus import PciBus

    system = _build_core(sim)
    system.spec = spec

    bus = PciBus(sim, clock_mhz=spec.clock_mhz)
    system.devices["pci_bus"] = bus

    model_cls, driver_cls = DEVICE_KINDS[spec.device.kind]
    disk = model_cls(sim, spec.device)
    system.devices[spec.device.name] = disk

    # CPU -> membus -> host bridge -> shared bus -> disk PIO.
    host_bridge = Bridge(sim, "host_bridge")
    host_bridge.slave_port.get_ranges = lambda: disk.function.bar_ranges(
        require_enable=False
    )
    host_bridge.slave_port.bind(system.membus.attach_slave("host_bridge_side"))
    host_bridge.master_port.bind(bus.attach_master("host_bridge"))
    bus.attach_target(f"{spec.device.name}_side").bind(disk.pio_port)

    # Disk DMA -> shared bus -> memory target -> IOCache -> membus.
    disk.dma_port.bind(bus.attach_master(f"{spec.device.name}_dma"))
    bus.attach_target(
        "memory_side", ranges=lambda: [VEXPRESS_GEM5_V1.dram]
    ).bind(system.iocache.cpu_side)

    system.host.root_bus.add_function(1, 0, disk.function)
    _boot_and_bind(system, [(spec.device.name, driver_cls(), disk)])
    return system


def build_system(
    spec: Union[TopologySpec, ClassicPciSpec, dict],
    sim: Optional[Simulator] = None,
    check: Optional[bool] = None,
    partitions: Optional[int] = None,
) -> PcieSystem:
    """Build, boot and bind any machine a topology spec can describe.

    Args:
        spec: a :class:`~repro.system.spec.TopologySpec`, a
            :class:`~repro.system.spec.ClassicPciSpec` (validated here),
            or either's :meth:`to_dict` document form (validated once,
            by :func:`~repro.system.spec.spec_from_dict`).
        sim: an existing simulator to build into (a fresh one is created
            otherwise).
        check: arm the runtime invariant checker on the freshly built
            simulator (ignored when ``sim`` is supplied); None defers to
            the ``REPRO_CHECK`` environment variable.
        partitions: must be None.  No engine splits a fabric any more;
            the keyword survives only because the frozen
            ``benchmarks/perf/runner.py`` still passes it, and goes
            when a ``benchmark`` PR drops that argument.

    Returns:
        A :class:`PcieSystem` whose ``devices``/``links``/``switches``/
        ``drivers`` mappings are keyed by the spec's instance names and
        whose ``spec`` attribute records the topology built.  Its
        components refer to the system and its ``sim`` only weakly, so
        keep this handle while using them: dropping it frees the machine
        at once, and a component kept past that cannot run.

    Raises:
        SpecError: for a spec of an unknown type, or ``partitions`` other
            than None.
    """
    if partitions is not None:
        raise SpecError(
            f"build_system(partitions={partitions!r}): must be None")
    if isinstance(spec, dict):
        spec = spec_from_dict(spec)
    elif isinstance(spec, (TopologySpec, ClassicPciSpec)):
        spec.validate()
    else:
        raise SpecError(f"cannot build a system from {type(spec).__name__}")
    sim = sim or Simulator(check=check)
    if isinstance(spec, ClassicPciSpec):
        return _build_classic_from_spec(spec, sim)
    return _build_pcie_from_spec(spec, sim)

