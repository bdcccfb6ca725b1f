"""PCI-Express device models.

* :mod:`repro.devices.base` — the generic PCI-Express device template
  (PIO slave port, DMA master port, config function, legacy interrupt),
  the one capability chain every endpoint presents, and the
  command-slot device the disk and the accelerator share;
* :mod:`repro.devices.dma` — a chunking DMA engine with an outstanding
  window and optional per-buffer completion barrier;
* :mod:`repro.devices.disk` — the IDE-like storage device used for the
  ``dd`` experiments (1 µs sector access, no internal bandwidth limit,
  no posted writes: a sector's DMA must be fully acknowledged before the
  next begins);
* :mod:`repro.devices.nic` — the 8254x-pcie NIC model with the paper's
  capability chain (PM → MSI → PCIe → MSI-X, all but PCIe disabled);
* :mod:`repro.devices.accel` — a memory-to-memory DMA copy accelerator
  built on the chunking engine (the ``"accel"`` device kind).
"""

from repro.devices.accel import DmaAccelerator
from repro.devices.base import PcieDevice
from repro.devices.dma import DmaEngine
from repro.devices.disk import IdeDisk
from repro.devices.nic import Nic8254xPcie

__all__ = ["PcieDevice", "DmaEngine", "DmaAccelerator", "IdeDisk",
           "Nic8254xPcie"]
