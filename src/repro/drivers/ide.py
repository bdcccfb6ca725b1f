"""The storage (IDE-like) block driver.

Talks to :class:`repro.devices.disk.IdeDisk` through timed MMIO: each
request costs three register writes to program the transfer plus the
command write, and the interrupt handler reads the status register and
acknowledges — all real round trips through the PCI-Express fabric, so
driver overhead scales with interconnect latency exactly as on the
paper's machine.
"""

from repro.devices import disk as hw
from repro.drivers.base import CommandDriver


class IdeDiskDriver(CommandDriver):
    """Block driver for the IDE-like disk."""

    device_table = [(hw.IdeDisk.VENDOR_ID, hw.IdeDisk.DEVICE_ID)]

    @property
    def sector_size(self) -> int:
        """The bound disk's sector size."""
        return self.device.sector_size

    # -- request path (generator: run inside a kernel process) ----------------------
    def start_request(self, lba: int, n_sectors: int, buffer_addr: int,
                      is_write: bool):
        """Program and start one DMA transfer.  Returns the completion
        signal (``yield from`` this, then ``yield WaitFor(signal)``)."""
        command = hw.CMD_WRITE_DMA if is_write else hw.CMD_READ_DMA
        return (yield from self._submit(
            ((hw.REG_LBA, lba, 4), (hw.REG_COUNT, n_sectors, 4),
             (hw.REG_BUF_ADDR, buffer_addr, 8)), command))
