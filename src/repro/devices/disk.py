"""The IDE-like storage device.

Stands in for gem5's IDE disk in the paper's evaluation, with the two
properties the methodology depends on:

* the internal medium imposes **no bandwidth limit** — each sector costs
  a constant ``access_latency`` (1 µs in gem5) and nothing else, so the
  PCI-Express interconnect is always the bottleneck;
* DMA uses **no posted writes** — once a sector has been transmitted,
  the responses for all of its write packets must return before the next
  sector starts (``posted_writes=True`` flips this for the ablation).

The register interface (BAR0, 4 KB MMIO) is a simplified bus-master DMA
controller.  A driver programs a buffer address, an LBA and a sector
count, then writes the command register; the device transfers sector by
sector and raises its legacy interrupt when the command completes:

====== ===========  =================================================
offset name         meaning
====== ===========  =================================================
0x00   CMD          1 = READ_DMA, 2 = WRITE_DMA (starts the transfer)
0x08   LBA          starting logical block
0x10   COUNT        sectors to transfer
0x18   BUF_ADDR     physical DMA buffer address
0x20   STATUS       bit0 busy, bit1 irq pending, bit2 error
0x28   IRQ_CLEAR    write 1 to acknowledge the interrupt
====== ===========  =================================================
"""

from typing import TYPE_CHECKING, Callable, Optional

from repro.devices.base import (  # noqa: F401 (re-export)
    REG_CMD, REG_IRQ_CLEAR, REG_STATUS, STATUS_BUSY, STATUS_ERROR, STATUS_IRQ,
    CommandDevice)
from repro.devices.dma import DmaEngine
from repro.pci.header import Bar
from repro.sim.simobject import Origin, Simulator

if TYPE_CHECKING:
    from repro.system.spec import DeviceSpec

REG_LBA = 0x08
REG_COUNT = 0x10
REG_BUF_ADDR = 0x18

CMD_READ_DMA = 1
CMD_WRITE_DMA = 2


class IdeDisk(CommandDevice):
    """The storage device driven by the ``dd`` experiments; its knobs
    are :class:`~repro.system.spec.DiskKnobs`."""

    VENDOR_ID = 0x8086
    DEVICE_ID = 0x7111  # PIIX4 IDE, the identity gem5's IDE controller uses
    BARS = (Bar(4096),)
    CLASS_CODE = 0x010185  # mass storage, IDE, bus-master capable
    REGISTERS = (REG_LBA, REG_COUNT, REG_BUF_ADDR)

    def __init__(self, sim: Simulator, spec: "DeviceSpec"):
        super().__init__(sim, spec)
        self.sector_size = self.knobs.sector_size
        self.capacity_sectors = self.knobs.capacity_sectors
        self.dma = DmaEngine(sim, "dma_engine", self,
                             max_outstanding=self.knobs.dma_outstanding)

        self._sectors_remaining = 0
        self._current_lba = 0
        self._current_buf = 0
        self._is_write_command = False

        self.sectors_transferred = self.stats.scalar("sectors_transferred")
        self.commands_completed = self.stats.scalar("commands_completed")
        self.bytes_transferred = self.stats.scalar("bytes_transferred")
        # Device-level transfer time, excluding OS/driver overheads —
        # what the paper quotes as "3.072 Gbps over our PCI-Express
        # link" for Gen 2 x1.
        self.sector_transfer_ticks = self.stats.distribution(
            "sector_transfer_ticks", "DMA time per sector (barrier to barrier)"
        )

    # -- command execution -----------------------------------------------------
    def _accepts(self, command: int) -> bool:
        count, lba = self._regs[REG_COUNT], self._regs[REG_LBA]
        return (command in (CMD_READ_DMA, CMD_WRITE_DMA) and count >= 1
                and lba + count <= self.capacity_sectors)

    def _run(self, command: int) -> None:
        self._is_write_command = command == CMD_WRITE_DMA
        self._sectors_remaining = self._regs[REG_COUNT]
        self._current_lba = self._regs[REG_LBA]
        self._current_buf = self._regs[REG_BUF_ADDR]
        self._next_sector()

    def _next_sector(self) -> None:
        if self._sectors_remaining == 0:
            self._complete_command()
            return
        # Constant-latency medium access, then the DMA burst.
        self.schedule(self.knobs.access_latency, self._transfer_sector)

    #: Set by the block layer for the command it submits, and called
    #: between events once the medium is ready, before each sector's
    #: DMA starts, as ``sector_boundary(origin, later, until, limit)``:
    #: the command's cursor, the sectors after this one and the run's
    #: limits (see :mod:`repro.kernel.blockio`).
    sector_boundary: Optional[Callable[..., None]] = None

    def _transfer_sector(self) -> None:
        if self.sector_boundary is None or not self.sim.pause(self._at_boundary):
            self._dma_sector()

    def _at_boundary(self, until: Optional[int], limit: Optional[int]) -> None:
        origin = Origin(self.curtick, self._current_buf, self._current_lba, self)
        self.sector_boundary(origin, self._sectors_remaining - 1, until, limit)
        self._dma_sector()

    def _dma_sector(self) -> None:
        start = self.curtick
        if self._is_write_command:
            # Host -> disk: DMA-read the buffer from memory.
            transfer = self.dma.read(self._current_buf, self.sector_size)
        else:
            # Disk -> host: DMA-write the sector into memory.  The
            # paper's model does not support posted writes: the barrier
            # below waits for every write response.
            transfer = self.dma.write(self._current_buf, self.sector_size,
                                      posted=self.knobs.posted_writes)
        transfer.on_complete(lambda __: self._sector_done(start))

    def _sector_done(self, start_tick: int) -> None:
        self.sector_transfer_ticks.sample(self.curtick - start_tick)
        self.sectors_transferred.inc()
        self.bytes_transferred.inc(self.sector_size)
        self._sectors_remaining -= 1
        self._current_lba += 1
        self._current_buf += self.sector_size
        self._next_sector()

    def _complete_command(self) -> None:
        self.commands_completed.inc()
        super()._complete_command()

    # -- checkpointing -----------------------------------------------------------
    # The medium holds no data (reads return zeros), so the registers and
    # the command cursors are all the state.  A command may be captured
    # between sectors, where the only pending work is the next sector's
    # describable _transfer_sector.  The sectors a command has left bound
    # a skip, so the driven disk's relative state leaves them out.
    state_fields = {"_sectors_remaining": "accumulator",
                    "_current_lba": "exact", "_current_buf": "exact",
                    "_is_write_command": "exact"}

    def relative_state(self, state: dict, origin) -> dict:
        """On the device a transfer drives, the LBA and buffer cursors
        relative to the boundary's cursor.  The LBA and buffer registers
        are relative too: between commands to the cursor, which they
        trail by one request; during a command to its first sector,
        where they stay while its cursor moves (nothing reads them
        before it completes), so the same sector of two commands
        compares equal.  A running command's count register is left
        out (nothing reads it before the next start), so a shorter last
        command starts a full command's remembered period."""
        if origin.device is not self:
            return state
        regs = dict(state["regs"])
        done = 0
        if self.busy:
            del regs[str(REG_COUNT)]
            done = state["current_lba"] - regs[str(REG_LBA)]
        regs[str(REG_LBA)] -= origin.lba - done
        regs[str(REG_BUF_ADDR)] -= origin.addr - done * self.sector_size
        return dict(super().relative_state(state, origin), regs=regs,
                    current_lba=state["current_lba"] - origin.lba,
                    current_buf=state["current_buf"] - origin.addr)
