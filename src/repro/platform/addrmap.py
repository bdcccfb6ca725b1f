"""The platform address map.

The paper tests on gem5's ARM ``Vexpress_GEM5_V1`` machine type, which
assigns:

* 256 MB at ``0x30000000`` for the PCI configuration space (ECAM),
* 16 MB at ``0x2F000000`` for the PCI I/O space,
* 1 GB at ``0x40000000`` for the PCI memory (MMIO) space,
* DRAM from 2 GB upward (to 512 GB).

Because all PCI windows sit below 2 GB, devices use 32-bit BARs.
"""

from repro.mem.addr import AddrRange


class AddressMap:
    """The physical address windows of a platform."""

    def __init__(
        self,
        pci_config: AddrRange,
        pci_io: AddrRange,
        pci_mem: AddrRange,
        dram: AddrRange,
    ):
        for a, b in (
            (pci_config, pci_io),
            (pci_config, pci_mem),
            (pci_config, dram),
            (pci_io, pci_mem),
            (pci_io, dram),
            (pci_mem, dram),
        ):
            if a.overlaps(b):
                raise ValueError(f"address windows overlap: {a} and {b}")
        self.pci_config = pci_config
        self.pci_io = pci_io
        self.pci_mem = pci_mem
        self.dram = dram


VEXPRESS_GEM5_V1 = AddressMap(
    pci_config=AddrRange(0x30000000, 0x10000000),
    pci_io=AddrRange(0x2F000000, 0x01000000),
    pci_mem=AddrRange(0x40000000, 0x40000000),
    # The full map runs to 512 GB; 4 GB of modelled DRAM is ample for
    # every experiment while keeping addresses small.
    dram=AddrRange(0x80000000, 0x100000000),
)
