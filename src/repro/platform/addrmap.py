"""The platform address map.

The paper tests on gem5's ARM ``Vexpress_GEM5_V1`` machine type, which
assigns:

* 256 MB at ``0x30000000`` for the PCI configuration space (ECAM),
* 16 MB at ``0x2F000000`` for the PCI I/O space,
* 1 GB at ``0x40000000`` for the PCI memory (MMIO) space,
* DRAM from 2 GB upward (to 512 GB).

Because all PCI windows sit below 2 GB, devices use 32-bit BARs.  The
MSI doorbell, an extension the paper only sketches, takes one 4 KB page
at ``0x10000000``, clear of every window above.

:data:`VEXPRESS_GEM5_V1` is the only place a platform address lives:
the PCI host, the enumerator and the doorbell read their windows'
defaults from it.
"""

import itertools

from repro.mem.addr import AddrRange


class AddressMap:
    """The physical address windows of a platform; no two may overlap."""

    def __init__(
        self,
        pci_config: AddrRange,
        pci_io: AddrRange,
        pci_mem: AddrRange,
        dram: AddrRange,
        msi_doorbell: AddrRange,
    ):
        windows = (pci_config, pci_io, pci_mem, dram, msi_doorbell)
        for a, b in itertools.combinations(windows, 2):
            if a.overlaps(b):
                raise ValueError(f"address windows overlap: {a} and {b}")
        self.pci_config = pci_config
        self.pci_io = pci_io
        self.pci_mem = pci_mem
        self.dram = dram
        self.msi_doorbell = msi_doorbell


VEXPRESS_GEM5_V1 = AddressMap(
    pci_config=AddrRange(0x30000000, 0x10000000),
    pci_io=AddrRange(0x2F000000, 0x01000000),
    pci_mem=AddrRange(0x40000000, 0x40000000),
    # The full map runs to 512 GB; 4 GB of modelled DRAM is ample for
    # every experiment while keeping addresses small.
    dram=AddrRange(0x80000000, 0x100000000),
    msi_doorbell=AddrRange(0x10000000, 0x1000),
)
