"""PCI / PCI-Express capability structures.

Capability structures live in the PCI-compatible region of the
configuration space (R2 in the paper's Figure 4) and are chained through
their *Next Cap Ptr* bytes starting from the header's capability
pointer.  The paper's NIC model implements, in order, Power Management →
MSI → PCI-Express → MSI-X — with everything except the PCI-Express
structure *disabled* so that the e1000e driver falls back to a legacy
interrupt — and its VP2P bridges implement the PCI-Express structure at
offset 0xD8 presenting themselves as root/switch ports.

Each capability knows its id, its length, and one table of the
registers it exposes and which bits software may write.
"""

import enum
from typing import Tuple

from repro.pci.config import ConfigSpace, Field

CAP_ID_POWER_MANAGEMENT = 0x01
CAP_ID_MSI = 0x05
CAP_ID_PCIE = 0x10
CAP_ID_MSIX = 0x11


class PciePortType(enum.IntEnum):
    """Device/port type field of the PCI-Express capabilities register."""

    ENDPOINT = 0x0
    LEGACY_ENDPOINT = 0x1
    ROOT_PORT = 0x4
    UPSTREAM_SWITCH_PORT = 0x5
    DOWNSTREAM_SWITCH_PORT = 0x6


class Capability:
    """Base class: a chained structure of ``length`` bytes."""

    cap_id = 0x00
    length = 4

    def install(self, config: ConfigSpace, offset: int, next_ptr: int) -> None:
        """Write this capability's registers at ``offset``; chain to
        ``next_ptr`` (0 terminates the list)."""
        config.install(((0, 1, self.cap_id, 0), (1, 1, next_ptr, 0),
                        *self.fields()), base=offset)

    def fields(self) -> Tuple[Field, ...]:
        """The registers after the header, ``(offset within the
        capability, size, value, writable mask)`` each; a register not
        listed reads zero and is read-only."""
        raise NotImplementedError


class PowerManagementCapability(Capability):
    """Power management (id 0x01), presented but disabled.

    The PMC advertises no PME support and the PMCSR power-state field is
    read-only at D0, so a driver can find the capability but cannot use
    it — matching how the paper neutralises PM in gem5.
    """

    cap_id = CAP_ID_POWER_MANAGEMENT
    length = 8

    def fields(self) -> Tuple[Field, ...]:
        """PMC version 3 (PCI PM 1.2) with no PME from any state; the
        PMCSR stuck at D0, nothing writable."""
        return ((2, 2, 0x0003, 0),)


class MsiCapability(Capability):
    """Message-signaled interrupts (id 0x05).

    By default presented but *disabled*: the MSI-enable bit (Message
    Control bit 0) is read-only zero, which is what forces the driver
    down the legacy-INTx path in the paper.  With ``functional=True``
    the enable bit and the address/data registers become writable —
    the extension the paper lists as future work ("A message is a
    posted request that is mainly used for implementing MSI"), letting
    a device raise interrupts as posted memory writes.
    """

    cap_id = CAP_ID_MSI
    length = 14

    # Register offsets within the capability, for drivers and devices.
    CONTROL = 2
    ADDRESS = 4
    DATA = 12
    ENABLE_BIT = 0x0001

    def __init__(self, functional: bool = False):
        self.functional = functional

    def fields(self) -> Tuple[Field, ...]:
        """Message Control (64-bit capable, one message), then the
        message address (its upper half read-only zero) and data,
        writable only when ``functional``."""
        if not self.functional:
            return ((self.CONTROL, 2, 0x0080, 0),)
        return ((self.CONTROL, 2, 0x0080, self.ENABLE_BIT),
                (self.ADDRESS, 4, 0, 0xFFFFFFFF), (self.DATA, 2, 0, 0xFFFF))


class MsixCapability(Capability):
    """MSI-X (id 0x11), presented but disabled (enable bit RO zero)."""

    cap_id = CAP_ID_MSIX
    length = 12

    def __init__(self, table_size: int = 1):
        if not 1 <= table_size <= 2048:
            raise ValueError(f"MSI-X table size must be 1..2048, got {table_size}")
        self.table_size = table_size

    def fields(self) -> Tuple[Field, ...]:
        """Message Control (table size N-1 encoded, enable bit 15
        read-only zero), the table at offset 0 of BAR 0 and the PBA at
        0x800, all read-only."""
        return ((2, 2, self.table_size - 1, 0), (8, 4, 0x0000_0800, 0))


class PcieCapability(Capability):
    """The PCI-Express capability structure (id 0x10) of Figure 5.

    Register groups per the paper: C1 (capabilities/device/link) is
    implemented by every PCI-Express function; C2 (slot) only by ports
    connected to a slot; C3 (root) only by root ports.  We always lay
    out the full structure and zero the groups that do not apply.

    Args:
        port_type: the device/port type advertised to software.
        max_link_speed: 1 = 2.5 GT/s (Gen 1), 2 = 5 GT/s (Gen 2),
            3 = 8 GT/s (Gen 3).
        max_link_width: lanes (x1 .. x32).
        slot_implemented: advertise an attached slot (C2 group valid).
    """

    cap_id = CAP_ID_PCIE
    length = 0x24

    def __init__(
        self,
        port_type: PciePortType = PciePortType.ENDPOINT,
        max_link_speed: int = 2,
        max_link_width: int = 1,
        slot_implemented: bool = False,
    ):
        if max_link_speed not in (1, 2, 3):
            raise ValueError(f"link speed code must be 1/2/3, got {max_link_speed}")
        if max_link_width not in (1, 2, 4, 8, 12, 16, 32):
            raise ValueError(f"invalid link width x{max_link_width}")
        self.port_type = PciePortType(port_type)
        self.max_link_speed = max_link_speed
        self.max_link_width = max_link_width
        self.slot_implemented = slot_implemented

    def fields(self) -> Tuple[Field, ...]:
        """C1 (capabilities, device and link), C2 (slot) and C3 (root);
        device and link control always writable, slot control only with
        a slot, root control only on a root port."""
        # PCIe Capabilities Register: version 2, port type, slot bit.
        caps = 0x2 | (int(self.port_type) << 4) | (self.slot_implemented << 8)
        # Link capabilities and status (negotiated = max): speed + width.
        link = self.max_link_speed | (self.max_link_width << 4)
        is_root = self.port_type is PciePortType.ROOT_PORT
        # Device capabilities (max payload supported 128 B, code 0), the
        # device/slot status and the slot capabilities read zero.
        return (
            (0x02, 2, caps, 0),
            (0x08, 2, 0x0000, 0xFFFF),  # Device Control
            (0x0C, 4, link, 0),  # Link Capabilities
            (0x10, 2, 0x0000, 0xFFFF),  # Link Control
            (0x12, 2, link, 0),  # Link Status
            (0x18, 2, 0x0000, 0xFFFF if self.slot_implemented else 0),  # Slot Ctl
            (0x1C, 2, 0x0000, 0xFFFF if is_root else 0),  # Root Control
        )
