"""Driver base class and binding machinery.

:class:`Driver` binds through its module device table and runs the one
probe every endpoint driver shares; :class:`CommandDriver` drives a
:class:`~repro.devices.base.CommandDevice`, one command at a time.
"""

from typing import Iterable, List, Optional, Tuple

from repro.devices.base import (REG_CMD, REG_IRQ_CLEAR, REG_STATUS,
                                STATUS_ERROR, STATUS_IRQ)
from repro.pci.capabilities import (CAP_ID_MSI, CAP_ID_MSIX, CAP_ID_PCIE,
                                     MsiCapability)
from repro.pci.enumeration import FoundDevice
from repro.sim import ticks
from repro.sim.eventq import proxy
from repro.sim.process import Delay, Signal


class DriverError(RuntimeError):
    """Probe or request-level driver failure."""


class Driver:
    """Base class for device drivers.

    Subclasses set :attr:`device_table` and implement
    :meth:`_irq_handler`.
    """

    #: The module device table: (vendor_id, device_id) pairs this driver
    #: claims.
    device_table: List[Tuple[int, int]] = []
    #: CPU cost charged at handler entry (context save, IRQ bookkeeping).
    IRQ_ENTRY_OVERHEAD = ticks.from_us(1)

    def __init__(self):
        self.kernel = None
        self.found: Optional[FoundDevice] = None
        self.device = None  # the hardware model (functional side-channel)
        self.bound = False
        self.bar0 = 0
        self.interrupt_mode = ""

    # -- binding ------------------------------------------------------------
    def matches(self, node: FoundDevice) -> bool:
        return (node.vendor_id, node.device_id) in self.device_table

    def bind(self, kernel, node: FoundDevice, device_model) -> None:
        """Called by the kernel when the module device table matches."""
        if self.bound:
            raise DriverError(f"{type(self).__name__} is already bound")
        self.kernel = proxy(kernel)  # the kernel owns its drivers
        self.found = node
        self.device = device_model
        self.probe()
        self.bound = True

    def probe(self) -> None:
        """Check for the PCI-Express capability, choose the interrupt
        mode, map BAR0, program MSI if it stuck, and hook
        :meth:`_irq_handler` to the vector or line either way."""
        if self.device is None:
            raise DriverError(
                f"{type(self).__name__} probed without a hardware model")
        if self._find_cap(CAP_ID_PCIE) is None:
            raise DriverError(f"{type(self).__name__}: device advertises "
                              f"no PCI-Express capability")
        self.interrupt_mode = self.choose_interrupt_mode()
        self.bar0 = self.bar_base(0)
        vector = self.found.interrupt_line
        if self.interrupt_mode == "msi":
            self.program_msi(vector)
        self.kernel.intc.register(vector, self._irq_handler)

    # -- common helpers -----------------------------------------------------------
    @property
    def host(self):
        return self.kernel.enumerator.host

    @property
    def cpu(self):
        return self.kernel.cpu

    def config_read(self, offset: int, size: int = 4) -> int:
        return self.host.config_read(*self.found.bdf, offset, size)

    def config_write(self, offset: int, value: int, size: int = 4) -> None:
        self.host.config_write(*self.found.bdf, offset, value, size)

    def bar_base(self, index: int) -> int:
        for bar in self.found.bars:
            if bar.index == index:
                if bar.assigned is None:
                    raise DriverError(f"BAR{index} was never assigned an address")
                return bar.assigned.start
        raise DriverError(f"device has no BAR{index}")

    def choose_interrupt_mode(self) -> str:
        """Prefer MSI-X, then MSI, falling back to legacy INTx.

        The paper's capability structures present MSI and MSI-X with
        read-only-zero enable bits, so this always lands on "legacy"
        there — but the selection logic is real: the driver attempts to
        enable each mechanism and checks whether the bit stuck.
        """
        for cap_id, control_bit in ((CAP_ID_MSIX, 1 << 15), (CAP_ID_MSI, 1 << 0)):
            offset = self._find_cap(cap_id)
            if offset is None:
                continue
            control = self.config_read(offset + 2, 2)
            self.config_write(offset + 2, control | control_bit, 2)
            if self.config_read(offset + 2, 2) & control_bit:
                return "msix" if cap_id == CAP_ID_MSIX else "msi"
        return "legacy"

    def _find_cap(self, cap_id: int) -> Optional[int]:
        for found_id, offset in self.found.capabilities:
            if found_id == cap_id:
                return offset
        return None

    def program_msi(self, vector: int) -> None:
        """Point the device's (enabled) MSI capability at the platform
        doorbell with ``vector`` as the message data."""
        if self.kernel.msi_target_addr is None:
            raise DriverError("platform has no MSI doorbell")
        offset = self._find_cap(CAP_ID_MSI)
        if offset is None:
            raise DriverError("device has no MSI capability")
        self.config_write(offset + MsiCapability.ADDRESS,
                          self.kernel.msi_target_addr, 4)
        self.config_write(offset + MsiCapability.DATA, vector, 2)

    def _irq_handler(self):
        raise NotImplementedError


class CommandDriver(Driver):
    """Driver for a :class:`~repro.devices.base.CommandDevice`: program
    the command through timed MMIO register writes (each a real round
    trip through the fabric), write ``CMD``, and complete from the
    interrupt handler.  One command is in flight at a time, like the
    hardware's single command slot.
    """

    def __init__(self):
        super().__init__()
        self._completion = Signal("completion")
        self._active = False

    def _submit(self, writes: Iterable[Tuple[int, int, int]], command: int):
        """Generator: write each ``(offset, value, size)`` register,
        then ``command`` to ``CMD``.  Returns the completion signal,
        notified with ``{"error": bool}`` from the interrupt handler."""
        if self._active:
            raise DriverError(
                f"{type(self).__name__} handles one command at a time")
        self._active = True
        self._completion = Signal("completion", latch=True)
        cpu = self.cpu
        for offset, value, size in writes:
            yield from cpu.timed_write(self.bar0 + offset, value, size)
        yield from cpu.timed_write(self.bar0 + REG_CMD, command, 4)
        return self._completion

    def _irq_handler(self):
        yield Delay(self.IRQ_ENTRY_OVERHEAD)
        resp = yield from self.cpu.timed_read(self.bar0 + REG_STATUS, 4)
        status = self.cpu.read_value(resp)
        if not status & STATUS_IRQ:
            return  # spurious (line shared / already handled)
        yield from self.cpu.timed_write(self.bar0 + REG_IRQ_CLEAR, 1, 4)
        self._active = False
        self._completion.notify({"error": bool(status & STATUS_ERROR)})
