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

with the root-complex latency fixed at 150 ns, switch latency 150 ns,
port buffers of 16 packets and replay buffers of 4 — every one of those
knobs is a ``validation_spec`` keyword argument because the paper's
Figure 9 sweeps them.
"""

from typing import Dict, List, Optional, Union

from repro.devices.accel import DmaAccelerator
from repro.devices.disk import IdeDisk
from repro.devices.nic import Nic8254xPcie
from repro.drivers.accel import DmaAccelDriver
from repro.drivers.e1000e import E1000eDriver
from repro.drivers.ide import IdeDiskDriver
from repro.kernel.kernel import KernelConfig, OsKernel
from repro.mem.dram import SimpleMemory
from repro.mem.iocache import IOCache
from repro.mem.xbar import CoherentXBar
from repro.pci.host import PciHost
from repro.pcie.link import PcieLink
from repro.pcie.root_complex import RootComplex
from repro.pcie.switch import PcieSwitch
from repro.pcie.timing import PcieGen
from repro.platform.addrmap import VEXPRESS_GEM5_V1, AddressMap
from repro.sim import ticks
from repro.sim.simobject import SimObject, Simulator
from repro.system.spec import (ClassicPciSpec, DeviceSpec, LinkSpec, SpecError,
                               SwitchSpec, TopologySpec, spec_from_dict)

#: Device model and driver classes behind each :class:`DeviceSpec` kind.
#: The spec layer names kinds; this registry is the single place the
#: names meet classes, so a new device model is one entry here plus a
#: kind name in :data:`repro.system.spec.DEVICE_KIND_NAMES`.
DEVICE_KINDS = {
    "disk": (IdeDisk, IdeDiskDriver),
    "nic": (Nic8254xPcie, E1000eDriver),
    "accel": (DmaAccelerator, DmaAccelDriver),
}


class AmbiguousDeviceError(LookupError):
    """A singular convenience (``system.disk``, ``system.nic``, ...)
    was used on a fabric with several devices of that kind — name the
    one you mean via ``system.devices[name]`` / ``system.drivers[name]``
    (or ``device=`` in sweep points)."""


class PcieSystem:
    """Handles to an assembled, booted system.

    ``devices``/``links``/``switches``/``drivers`` are keyed by the
    spec's unique instance names; ``spec`` records the topology the
    machine was built from (None for hand-assembled systems).
    """

    def __init__(self, sim: Simulator, addrmap: AddressMap):
        self.sim = sim
        self.addrmap = addrmap
        self.membus: Optional[CoherentXBar] = None
        self.dram: Optional[SimpleMemory] = None
        self.iocache: Optional[IOCache] = None
        self.host: Optional[PciHost] = None
        self.kernel: Optional[OsKernel] = None
        self.root_complex: Optional[RootComplex] = None
        self.switch: Optional[PcieSwitch] = None
        self.switches: Dict[str, PcieSwitch] = {}
        self.links: Dict[str, PcieLink] = {}
        self.devices: Dict[str, object] = {}
        self.drivers: Dict[str, object] = {}
        self.msi_doorbell = None
        self.spec: Optional[Union[TopologySpec, ClassicPciSpec]] = None
        self.found_devices = []

    # -- conveniences -------------------------------------------------------
    def _sole_device(self, cls, kind: str):
        """The unique device instance of ``cls`` — None when the fabric
        has no such device, :class:`AmbiguousDeviceError` when it has
        several (silently picking one would misdirect every stat and
        request that follows)."""
        found = sorted(
            (name for name, d in self.devices.items() if isinstance(d, cls)))
        if len(found) > 1:
            raise AmbiguousDeviceError(
                f"system.{kind} is ambiguous: this fabric has "
                f"{len(found)} {kind} devices ({', '.join(found)}); "
                f"name the one you mean via system.devices[name] / "
                f"system.drivers[name] (or device= in sweep points)")
        return self.devices[found[0]] if found else None

    def _device_name(self, model) -> Optional[str]:
        for name, device in self.devices.items():
            if device is model:
                return name
        return None

    @property
    def disk(self) -> Optional[IdeDisk]:
        """The disk — by its classic ``"disk"`` name, else the sole
        :class:`IdeDisk` instance (None when absent,
        :class:`AmbiguousDeviceError` when there are several)."""
        return self.devices.get("disk") or self._sole_device(IdeDisk, "disk")

    @property
    def nic(self) -> Optional[Nic8254xPcie]:
        """The NIC — by name, else the sole instance (None when absent,
        :class:`AmbiguousDeviceError` when there are several)."""
        return self.devices.get("nic") or self._sole_device(
            Nic8254xPcie, "nic")

    @property
    def accel(self) -> Optional[DmaAccelerator]:
        """The accelerator — by its ``"accel"`` name, else the sole
        instance (None when absent, :class:`AmbiguousDeviceError` when
        there are several)."""
        return self.devices.get("accel") or self._sole_device(
            DmaAccelerator, "accel")

    @property
    def disk_driver(self) -> Optional[IdeDiskDriver]:
        """Driver of :attr:`disk` (None without an unambiguous disk)."""
        disk = self.disk
        return self.drivers.get(self._device_name(disk)) if disk else None

    @property
    def nic_driver(self) -> Optional[E1000eDriver]:
        """Driver of :attr:`nic` (None without an unambiguous NIC)."""
        nic = self.nic
        return self.drivers.get(self._device_name(nic)) if nic else None

    @property
    def accel_driver(self) -> Optional[DmaAccelDriver]:
        """Driver of :attr:`accel` (None without an unambiguous accel)."""
        accel = self.accel
        return self.drivers.get(self._device_name(accel)) if accel else None

    @property
    def disk_link(self) -> Optional[PcieLink]:
        """Link of :attr:`disk` — every device's link shares its name."""
        disk = self.disk
        return self.links.get(self._device_name(disk)) if disk else None

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drive the simulator (see :meth:`repro.sim.simobject.Simulator.run`)."""
        return self.sim.run(until=until, max_events=max_events)

    def stats(self) -> dict:
        """Flat dotted-name statistics dump of the whole machine."""
        return self.sim.dump_stats()


def _build_core(sim: Simulator, addrmap: AddressMap,
                kernel_config: Optional[KernelConfig]) -> PcieSystem:
    """The common substrate: MemBus + DRAM + IOCache + host + kernel."""
    system = PcieSystem(sim, addrmap)
    system.membus = CoherentXBar(
        sim, "membus",
        frontend_latency=ticks.from_ns(1),
        forward_latency=ticks.from_ns(1),
        width=64,
        queue_depth=16,
    )
    system.dram = SimpleMemory(sim, "dram", addrmap.dram)
    system.dram.port.bind(system.membus.attach_slave("dram_side"))
    system.host = PciHost(sim, ecam_base=addrmap.pci_config.start,
                          ecam_size=addrmap.pci_config.size)
    system.host.port.bind(system.membus.attach_slave("pci_host_side"))
    system.kernel = OsKernel(sim, config=kernel_config)
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
    system.found_devices = kernel.boot(
        system.host,
        mem_window=system.addrmap.pci_mem,
        io_window=system.addrmap.pci_io,
    )
    device_map = {}
    models = {id(model): (name, model) for name, __, model in driver_specs}
    for node in kernel.enumerator.all_devices():
        if node.is_bridge:
            continue
        for __, __, model in driver_specs:
            if system.host.function_at(*node.bdf) is model.function:
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


def _advertised_link(node: Union[TopologySpec, SwitchSpec]) -> LinkSpec:
    """The LinkSpec whose gen/width an engine's VP2P bridges advertise.

    Mirrors the historical builders: the root complex advertised its
    root link, the switch its device links — i.e. the first child's
    edge.  A childless switch falls back to its own uplink.
    """
    if node.children:
        return node.children[0].link
    return node.link  # only reachable for SwitchSpec


def _build_link(sim: Simulator, link: LinkSpec) -> PcieLink:
    """Instantiate one :class:`PcieLink` named ``{link.name}_link``."""
    extra = {}
    if link.replay_timeout is not None:
        extra["replay_timeout"] = link.replay_timeout
    if link.ack_period is not None:
        extra["ack_period"] = link.ack_period
    return PcieLink(
        sim, f"{link.name}_link", gen=PcieGen[link.gen], width=link.width,
        propagation_delay=link.propagation_delay,
        replay_buffer_size=link.replay_buffer_size,
        max_payload=link.max_payload, ack_policy=link.ack_policy,
        input_queue_size=link.input_queue_size,
        p_credits=link.p_credits, np_credits=link.np_credits,
        cpl_credits=link.cpl_credits, error_rate=link.error_rate,
        dllp_error_rate=link.dllp_error_rate, error_seed=link.error_seed,
        **extra,
    )


def _build_subtree(sim: Simulator, system: PcieSystem,
                   node: Union[SwitchSpec, DeviceSpec], upstream_port,
                   enable_msi: bool) -> None:
    """Instantiate and wire one spec node (and, for switches, the whole
    subtree behind it) below ``upstream_port``."""
    if isinstance(node, DeviceSpec):
        model_cls, __ = DEVICE_KINDS[node.kind]
        params = dict(node.params)
        if enable_msi:
            params.setdefault("msi_functional", True)
        device = model_cls(sim, name=node.name, **params)
        system.devices[node.name] = device
        link = _build_link(sim, node.link)
        _connect_link(link, upstream_port, device=device)
        system.links[node.link.name] = link
        return

    advert = _advertised_link(node)
    switch = PcieSwitch(
        sim, name=node.name,
        num_downstream_ports=node.effective_num_ports,
        latency=node.latency, buffer_size=node.buffer_size,
        service_interval=node.service_interval,
        datapath_scope=node.datapath_scope,
        link_speed=PcieGen[advert.gen].speed_code, link_width=advert.width,
    )
    system.switches[node.name] = switch
    if system.switch is None:
        system.switch = switch
    link = _build_link(sim, node.link)
    _connect_link(link, upstream_port, switch=switch)
    system.links[node.link.name] = link
    for i, child in enumerate(node.children):
        _build_subtree(sim, system, child, switch.downstream_ports[i],
                       enable_msi)


def _register_subtree(system: PcieSystem,
                      node: Union[SwitchSpec, DeviceSpec], parent_bus) -> None:
    """Install one node's configuration-space presence on ``parent_bus``
    (recursing through switch-internal buses), mirroring the physical
    wiring laid down by :func:`_build_subtree`."""
    if isinstance(node, DeviceSpec):
        parent_bus.add_function(0, 0, system.devices[node.name].function)
        return
    down_buses = system.switches[node.name].register_with_host(parent_bus)
    for i, child in enumerate(node.children):
        _register_subtree(system, child, down_buses[i])


def _build_pcie_from_spec(spec: TopologySpec, sim: Simulator,
                          addrmap: AddressMap,
                          kernel_config: Optional[KernelConfig]) -> PcieSystem:
    """Assemble, boot and bind a PCI-Express machine from a spec tree."""
    spec.validate()
    system = _build_core(sim, addrmap, kernel_config)
    system.spec = spec

    advert = _advertised_link(spec)
    root_complex = RootComplex(
        sim, num_root_ports=spec.effective_num_root_ports,
        latency=spec.rc_latency, buffer_size=spec.rc_buffer_size,
        service_interval=spec.rc_service_interval,
        datapath_scope=spec.rc_datapath_scope,
        link_speed=PcieGen[advert.gen].speed_code, link_width=advert.width,
    )
    _attach_root_complex(system, root_complex)
    if spec.enable_msi:
        _attach_msi_doorbell(system)

    for i, child in enumerate(spec.children):
        _build_subtree(sim, system, child, root_complex.root_ports[i],
                       spec.enable_msi)

    # Configuration-space tree: root ports on bus 0, each subtree behind
    # its root port, in spec (= physical wiring = discovery) order.
    rp_buses = root_complex.register_with_host(system.host)
    for i, child in enumerate(spec.children):
        _register_subtree(system, child, rp_buses[i])

    driver_specs = []
    for device in spec.devices():
        __, driver_cls = DEVICE_KINDS[device.kind]
        driver_specs.append(
            (device.name, driver_cls(), system.devices[device.name]))
    _boot_and_bind(system, driver_specs)
    return system


def _build_classic_from_spec(spec: ClassicPciSpec, sim: Simulator,
                             addrmap: AddressMap,
                             kernel_config: Optional[KernelConfig]) -> PcieSystem:
    """Assemble the classic shared-PCI-bus baseline from a spec.

    CPU requests cross a host bridge onto the shared bus; the disk's DMA
    masters the same bus toward memory (through the IOCache).  Useful
    only for the PCI-vs-PCIe ablation — everything else in the paper
    assumes the PCI-Express fabric.
    """
    from repro.mem.bridge import Bridge
    from repro.pci.bus import PciBus

    spec.validate()
    system = _build_core(sim, addrmap, kernel_config)
    system.spec = spec

    bus = PciBus(sim, clock_mhz=spec.clock_mhz)
    system.devices["pci_bus"] = bus

    model_cls, driver_cls = DEVICE_KINDS[spec.device.kind]
    disk = model_cls(sim, name=spec.device.name, **spec.device.params)
    system.devices[spec.device.name] = disk

    # CPU -> membus -> host bridge -> shared bus -> disk PIO.
    host_bridge = Bridge(sim, "host_bridge", delay=ticks.from_ns(100))
    host_bridge.slave_port.get_ranges = lambda: disk.function.bar_ranges(
        require_enable=False
    )
    host_bridge.slave_port.bind(system.membus.attach_slave("host_bridge_side"))
    host_bridge.master_port.bind(bus.attach_master("host_bridge"))
    bus.attach_target(f"{spec.device.name}_side").bind(disk.pio_port)

    # Disk DMA -> shared bus -> memory target -> IOCache -> membus.
    disk.dma_port.bind(bus.attach_master(f"{spec.device.name}_dma"))
    bus.attach_target(
        "memory_side", ranges=lambda: [addrmap.dram]
    ).bind(system.iocache.cpu_side)

    system.host.root_bus.add_function(1, 0, disk.function)
    _boot_and_bind(system, [(spec.device.name, driver_cls(), disk)])
    return system


def build_system(
    spec: Union[TopologySpec, ClassicPciSpec, dict],
    sim: Optional[Simulator] = None,
    addrmap: AddressMap = VEXPRESS_GEM5_V1,
    kernel_config: Optional[KernelConfig] = None,
    check: Optional[bool] = None,
    partitions: Optional[int] = None,
) -> PcieSystem:
    """Build, boot and bind any machine a topology spec can describe.

    Args:
        spec: a :class:`~repro.system.spec.TopologySpec`, a
            :class:`~repro.system.spec.ClassicPciSpec`, or either's
            :meth:`to_dict`/JSON document form.
        sim: an existing simulator to build into (a fresh one is created
            otherwise).
        addrmap: the platform address map.
        kernel_config: kernel timing/behaviour knobs.
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
        whose ``spec`` attribute records the topology built.

    Raises:
        SpecError: for a spec of an unknown type, or ``partitions`` other
            than None.
    """
    if partitions is not None:
        raise SpecError(
            f"build_system(partitions={partitions!r}): must be None")
    if isinstance(spec, dict):
        spec = spec_from_dict(spec)
    sim = sim or Simulator(check=check)
    if isinstance(spec, ClassicPciSpec):
        return _build_classic_from_spec(spec, sim, addrmap, kernel_config)
    if isinstance(spec, TopologySpec):
        return _build_pcie_from_spec(spec, sim, addrmap, kernel_config)
    raise SpecError(f"cannot build a system from {type(spec).__name__}")

