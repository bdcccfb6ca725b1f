"""A memory-to-memory DMA copy accelerator.

The third device kind of the registry (``"accel"``), built around the
chunking :class:`~repro.devices.dma.DmaEngine` front-end: a copy
command DMA-reads the source buffer out of DRAM chunk by chunk, then
DMA-writes it back to the destination — two full traversals of the
PCI-Express fabric per copied byte, which is what makes the device an
interesting *initiator* for multi-flow contention studies (it loads a
link in both directions without any disk/NIC protocol on top).

The register interface (BAR0, 4 KB MMIO) mirrors the IDE-like disk's
bus-master style:

====== ===========  =================================================
offset name         meaning
====== ===========  =================================================
0x00   CMD          1 = COPY (starts the transfer)
0x08   SRC          physical source address
0x10   DST          physical destination address
0x18   NBYTES       bytes to copy
0x20   STATUS       bit0 busy, bit1 irq pending, bit2 error
0x28   IRQ_CLEAR    write 1 to acknowledge the interrupt
====== ===========  =================================================
"""

from typing import TYPE_CHECKING

from repro.devices.base import (  # noqa: F401 (re-export)
    REG_CMD, REG_IRQ_CLEAR, REG_STATUS, STATUS_BUSY, STATUS_ERROR, STATUS_IRQ,
    CommandDevice)
from repro.devices.dma import DmaEngine
from repro.pci.header import Bar
from repro.sim import ticks
from repro.sim.simobject import Simulator

if TYPE_CHECKING:
    from repro.system.spec import DeviceSpec

REG_SRC = 0x08
REG_DST = 0x10
REG_NBYTES = 0x18

CMD_COPY = 1


class DmaAccelerator(CommandDevice):
    """The copy accelerator; see module docstring.  Its knobs are
    :class:`~repro.system.spec.AccelKnobs`."""

    VENDOR_ID = 0x1DE5  # Eideticom, a real PCIe NVMe-accelerator vendor
    DEVICE_ID = 0x3000
    BARS = (Bar(4096),)
    CLASS_CODE = 0x120000  # processing accelerator
    REGISTERS = (REG_SRC, REG_DST, REG_NBYTES)
    #: Fixed command-decode latency before the first DMA packet of a
    #: copy is issued.
    SETUP_LATENCY = ticks.from_ns(200)

    def __init__(self, sim: Simulator, spec: "DeviceSpec"):
        super().__init__(sim, spec)
        # Cache-line (64 B, the engine's CHUNK) DMA packets.
        self.dma = DmaEngine(sim, "dma_engine", self,
                             max_outstanding=self.knobs.dma_outstanding)
        self._start_tick = 0

        self.copies_completed = self.stats.scalar("copies_completed")
        self.bytes_copied = self.stats.scalar(
            "bytes_copied", "logical bytes copied (fabric traffic is 2x)")
        self.copy_ticks = self.stats.distribution(
            "copy_ticks", "command write to completion interrupt, per copy")

    # -- command execution ---------------------------------------------------
    def _accepts(self, command: int) -> bool:
        return command == CMD_COPY and self._regs[REG_NBYTES] >= 1

    def _run(self, command: int) -> None:
        self._start_tick = self.curtick
        self.schedule(self.SETUP_LATENCY, self._read_source)

    def _read_source(self) -> None:
        transfer = self.dma.read(self._regs[REG_SRC], self._regs[REG_NBYTES])
        transfer.on_complete(lambda __: self._write_destination())

    def _write_destination(self) -> None:
        transfer = self.dma.write(self._regs[REG_DST], self._regs[REG_NBYTES],
                                  posted=self.knobs.posted_writes)
        transfer.on_complete(lambda __: self._complete_command())

    def _complete_command(self) -> None:
        self.copy_ticks.sample(self.curtick - self._start_tick)
        self.copies_completed.inc()
        self.bytes_copied.inc(self._regs[REG_NBYTES])
        super()._complete_command()

    # The registers hold the copy and _start_tick times it: a copy may be
    # captured during its setup latency, with _read_source pending.
    state_fields = {"_start_tick": "exact"}
