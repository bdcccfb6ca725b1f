"""Driver for the DMA copy accelerator.

Mirrors the IDE block driver's shape: program the transfer through
timed MMIO register writes (each a real round trip through the
fabric), kick the command, and complete from the interrupt handler —
one copy in flight at a time, like the hardware's single command slot.
"""

from repro.devices import accel as hw
from repro.drivers.base import CommandDriver, DriverError


class DmaAccelDriver(CommandDriver):
    """Driver for :class:`repro.devices.accel.DmaAccelerator`."""

    device_table = [(hw.DmaAccelerator.VENDOR_ID,
                     hw.DmaAccelerator.DEVICE_ID)]

    # -- copy path (generator: run inside a kernel process) ----------------------
    def start_copy(self, src: int, dst: int, nbytes: int):
        """Program and start one memory-to-memory copy.  Returns the
        completion signal (``yield from`` this, then
        ``yield WaitFor(signal)``)."""
        if nbytes < 1:
            raise DriverError("copy must move at least one byte")
        return (yield from self._submit(
            ((hw.REG_SRC, src, 8), (hw.REG_DST, dst, 8),
             (hw.REG_NBYTES, nbytes, 8)), hw.CMD_COPY))
