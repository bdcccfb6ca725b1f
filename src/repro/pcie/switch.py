"""The PCI-Express switch.

A switch interconnects links: one upstream port and one or more
downstream ports, *each* represented by a VP2P (in contrast to the root
complex, where only the root ports carry VP2Ps).  Ours is a
store-and-forward switch — gem5 deals in whole packets — with a
configurable latency; a typical switch on the market is 150 ns.

Differences from the root complex, per the paper:

* the upstream slave port claims the address ranges programmed into the
  *upstream VP2P's* base/limit registers (not the union of the
  downstream ports');
* the upstream port, too, is software-visible as a bridge: enumeration
  discovers upstream-VP2P → bus → downstream-VP2Ps → buses.
"""

from typing import TYPE_CHECKING, List

from repro.mem.addr import AddrRange
from repro.pci.capabilities import PciePortType
from repro.pcie.routing import PcieRoutingEngine
from repro.pcie.vp2p import VirtualP2PBridge
from repro.sim.simobject import Simulator

if TYPE_CHECKING:
    from repro.system.spec import SwitchSpec

# A generic PLX/Broadcom-style switch identity.
PLX_VENDOR_ID = 0x10B5
PLX_SWITCH_DEVICE_ID = 0x8796


class PcieSwitch(PcieRoutingEngine):
    """A store-and-forward PCI-Express switch.

    ``spec`` names the switch and holds its engine knobs, its uplink
    and its downstream ports' links; each port's VP2P capability
    registers advertise its own link's generation and width.
    """

    def __init__(self, sim: Simulator, spec: "SwitchSpec"):
        super().__init__(sim, spec.name, spec)
        self.upstream_vp2p = VirtualP2PBridge(
            spec.link,
            device_id=PLX_SWITCH_DEVICE_ID,
            vendor_id=PLX_VENDOR_ID,
            port_type=PciePortType.UPSTREAM_SWITCH_PORT,
        )
        for i, link in enumerate(spec.port_links):
            vp2p = VirtualP2PBridge(
                link,
                device_id=PLX_SWITCH_DEVICE_ID + 1 + i,
                vendor_id=PLX_VENDOR_ID,
                port_type=PciePortType.DOWNSTREAM_SWITCH_PORT,
            )
            self.add_downstream_port(vp2p, name=f"down_port{i}")

    # -- aliases -------------------------------------------------------------
    @property
    def upstream_slave(self):
        """Accepts requests from the root-complex side link."""
        return self.upstream_port.slave_port

    @property
    def upstream_master(self):
        """Sends DMA requests toward the root complex."""
        return self.upstream_port.master_port

    @property
    def vp2ps(self) -> List[VirtualP2PBridge]:
        return [self.upstream_vp2p] + [p.vp2p for p in self.downstream_ports]

    def config_dict(self) -> dict:
        config = super().config_dict()
        config["kind"] = "switch"
        return config

    # -- routing policy ------------------------------------------------------------
    def upstream_ranges(self) -> List[AddrRange]:
        """What the switch claims from upstream: the windows programmed
        into the *upstream* VP2P."""
        return self.upstream_vp2p.forwarding_ranges()

    def upstream_stamp_bus(self) -> int:
        # A request entering from upstream arrived on the upstream
        # VP2P's primary bus.  (Requests from the processor were already
        # stamped 0 at the root complex; this matters only for unusual
        # topologies where the switch is the first stamping point.)
        return self.upstream_vp2p.primary_bus

    def register_with_host(self, parent_bus, device: int = 0) -> list:
        """Install the switch's VP2P hierarchy into a host config-bus.

        ``parent_bus`` is the config bus behind the root port (or
        upstream switch) this switch hangs off.  The upstream VP2P
        becomes device ``device`` on that bus; the downstream VP2Ps
        populate the internal bus behind it.  Returns the list of config
        buses behind each downstream port, in port order.
        """
        internal = parent_bus.add_bridge(device, 0, self.upstream_vp2p,
                                         child_name=f"{self.name}.internal")
        return [internal.add_bridge(i, 0, port.vp2p,
                                    child_name=f"{self.name}.dp{i}")
                for i, port in enumerate(self.downstream_ports)]
