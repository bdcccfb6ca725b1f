"""Virtual PCI-to-PCI bridges (VP2P).

A VP2P is the software-visible face of a root port or switch port: a
type-1 configuration header (Figure 7) carrying the PCI-Express
capability structure at offset 0xD8 that identifies the port's role
(root port, switch upstream, switch downstream).  The paper configures
its three root-port VP2Ps with vendor 0x8086 and device IDs 0x9C90 /
0x9C92 / 0x9C94 — an Intel Wildcat Point chipset root-port configuration.

The enumeration software programs the VP2P's bus numbers and windows
through ordinary configuration writes; the root complex and switch then
*route live traffic* by reading those same registers, so the datapath
follows whatever topology software configured.
"""

from typing import TYPE_CHECKING

from repro.pci.capabilities import PcieCapability, PciePortType
from repro.pci.header import PciBridgeFunction
from repro.pcie.timing import PcieGen

if TYPE_CHECKING:
    from repro.system.spec import LinkSpec

INTEL_VENDOR_ID = 0x8086
WILDCAT_ROOT_PORT_IDS = (0x9C90, 0x9C92, 0x9C94)
PCIE_CAP_OFFSET = 0xD8


def link_capability(port_type: PciePortType,
                    link: "LinkSpec") -> PcieCapability:
    """The PCI-Express capability of a port or an endpoint on ``link``:
    its role, the link's generation and width (they steer no timing),
    and a slot below a root port or a switch downstream port."""
    return PcieCapability(
        port_type, max_link_speed=PcieGen[link.gen].speed_code,
        max_link_width=link.width,
        slot_implemented=port_type in (PciePortType.ROOT_PORT,
                                       PciePortType.DOWNSTREAM_SWITCH_PORT))


class VirtualP2PBridge(PciBridgeFunction):
    """A type-1 header + PCIe capability identifying the port role.

    Args:
        link: the port's link, which the capability advertises (see
            :func:`link_capability`).
        device_id: configuration device id (the paper's root ports use
            the Wildcat ids above).
        port_type: role advertised in the PCIe capability.
    """

    def __init__(
        self,
        link: "LinkSpec",
        device_id: int = WILDCAT_ROOT_PORT_IDS[0],
        vendor_id: int = INTEL_VENDOR_ID,
        port_type: PciePortType = PciePortType.ROOT_PORT,
    ):
        super().__init__(vendor_id, device_id)
        self.port_type = PciePortType(port_type)
        self.add_capability(link_capability(self.port_type, link),
                            offset=PCIE_CAP_OFFSET)

    def __repr__(self) -> str:
        return (
            f"<VP2P {self.port_type.name} {self.vendor_id:04x}:{self.device_id:04x} "
            f"sec={self.secondary_bus} sub={self.subordinate_bus}>"
        )
