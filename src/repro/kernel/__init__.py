"""The OS model.

The paper runs a real Linux kernel on gem5's simulated CPU; the
evaluation depends on that software only through (a) enumeration and
driver behaviour and (b) the software overheads around each I/O request.
This package models exactly that surface:

* :mod:`repro.kernel.processor` — an abstract processor that runs
  software *processes* (timed generators) and issues MMIO/PIO requests
  into the memory system;
* :mod:`repro.kernel.interrupts` — a legacy-interrupt controller
  dispatching lines to registered driver handlers;
* :mod:`repro.kernel.blockio` — a block layer that splits reads/writes
  into bounded requests and charges submit/complete/per-sector software
  costs;
* :mod:`repro.kernel.kernel` — the :class:`OsKernel` facade tying it
  together: boot (PCI enumeration), driver binding, process spawning.
"""

from repro.kernel.processor import Processor
from repro.kernel.interrupts import InterruptController, MsiDoorbell
from repro.kernel.blockio import BlockLayer
from repro.kernel.kernel import OsKernel

__all__ = [
    "Processor",
    "InterruptController",
    "MsiDoorbell",
    "BlockLayer",
    "OsKernel",
]
