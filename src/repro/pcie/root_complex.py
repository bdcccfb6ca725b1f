"""The root complex (Figure 6 of the paper).

The root complex connects the PCI-Express fabric to the processor and
memory:

* its **upstream slave port** accepts processor requests destined for
  any PCI-Express device — it claims the union of the address windows
  programmed into its root ports' VP2Ps;
* its **upstream master port** sends DMA requests from the devices
  toward memory (through an IOCache, in the paper's topology);
* each of its **root ports** is a master/slave pair with a VP2P whose
  windows and bus numbers, programmed by the enumeration software,
  drive live routing.

The paper does not place a host-PCI bridge inside the root complex —
configuration accesses go through gem5's functional PCI Host — and
neither do we (:class:`repro.pci.host.PciHost` plays that role).

Requests entering the upstream port are stamped with bus number 0.
"""

from typing import TYPE_CHECKING, List

from repro.mem.addr import AddrRange
from repro.pci.capabilities import PciePortType
from repro.pcie.routing import ComponentPort, PcieRoutingEngine
from repro.pcie.vp2p import VirtualP2PBridge, WILDCAT_ROOT_PORT_IDS
from repro.sim.simobject import Simulator

if TYPE_CHECKING:
    from repro.system.spec import LinkSpec, RootComplexSpec


class RootComplex(PcieRoutingEngine):
    """A root complex with one root port per link in ``links``.

    ``spec`` holds the engine knobs; each root port's VP2P capability
    registers advertise its link's generation and width.
    """

    def __init__(self, sim: Simulator, spec: "RootComplexSpec", *,
                 links: List["LinkSpec"]):
        super().__init__(sim, "root_complex", spec)
        for i, link in enumerate(links):
            device_id = WILDCAT_ROOT_PORT_IDS[i % len(WILDCAT_ROOT_PORT_IDS)]
            vp2p = VirtualP2PBridge(
                link,
                device_id=device_id,
                port_type=PciePortType.ROOT_PORT,
            )
            self.add_downstream_port(vp2p, name=f"root_port{i}")

    # -- aliases matching the paper's vocabulary ---------------------------------
    @property
    def root_ports(self) -> List[ComponentPort]:
        return self.downstream_ports

    @property
    def upstream_slave(self):
        """Accepts processor requests (bind to MemBus/bridge master)."""
        return self.upstream_port.slave_port

    @property
    def upstream_master(self):
        """Sends DMA requests toward memory (bind to the IOCache)."""
        return self.upstream_port.master_port

    @property
    def vp2ps(self) -> List[VirtualP2PBridge]:
        return [port.vp2p for port in self.downstream_ports]

    def config_dict(self) -> dict:
        config = super().config_dict()
        config["kind"] = "root_complex"
        config["num_root_ports"] = len(self.root_ports)
        return config

    # -- routing policy ------------------------------------------------------------
    def upstream_ranges(self) -> List[AddrRange]:
        """The union of every root port's programmed windows — what the
        root complex claims from the processor side."""
        out: List[AddrRange] = []
        for port in self.downstream_ports:
            out.extend(port.vp2p.forwarding_ranges())
        return out

    def upstream_stamp_bus(self) -> int:
        # "The upstream root complex slave port sets the bus number to 0."
        return 0

    def register_with_host(self, host, start_device: int = 0) -> list:
        """Register each root port's VP2P on the host's bus 0.

        Returns the config bus behind each root port, in port order;
        callers install device/switch config models onto those buses so
        that enumeration can discover them (see
        :mod:`repro.system.topology`).
        """
        children = []
        for i, port in enumerate(self.downstream_ports):
            child = host.root_bus.add_bridge(start_device + i, 0, port.vp2p,
                                             child_name=f"{self.name}.rp{i}")
            children.append(child)
        return children
