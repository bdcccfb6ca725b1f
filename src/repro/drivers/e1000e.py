"""The e1000e-style NIC driver.

Reproduces the paper's driver-facing behaviour: the module device table
claims device id 0x10D3, the probe walks the capability chain (PM → MSI
→ PCI-Express → MSI-X), attempts MSI-X and MSI — whose enable bits are
read-only zero — and falls back to a legacy interrupt handler.

The data path manages software TX/RX descriptor rings in DRAM: transmit
posts a descriptor and bumps the tail register (one timed MMIO write);
the interrupt handler reads ICR (read-to-clear) and completes waiting
senders/receivers.
"""

from collections import deque
from typing import Deque, Tuple

from repro.devices import nic as hw
from repro.drivers.base import Driver, DriverError
from repro.sim.process import Delay, Signal


class E1000eDriver(Driver):
    """NIC driver; see module docstring."""

    device_table = [(hw.Nic8254xPcie.VENDOR_ID, hw.Nic8254xPcie.DEVICE_ID)]
    #: DRAM address where the driver lays out its rings.
    RING_BASE = 0x8100_0000
    #: Descriptors per ring.
    RING_ENTRIES = 256

    def __init__(self):
        super().__init__()
        self._tx_index = 0
        self._rx_index = 0
        # (signal, frame_number) in issue order.
        self._tx_waiters: Deque[Tuple[Signal, int]] = deque()
        self._rx_waiters: Deque[Signal] = deque()
        self._frames_issued = 0

    # -- ring geometry -------------------------------------------------------
    def _tx_descriptor_addr(self, index: int) -> int:
        return self.RING_BASE + (index % self.RING_ENTRIES) * hw.DESCRIPTOR_BYTES

    def _rx_descriptor_addr(self, index: int) -> int:
        rx_ring = self.RING_BASE + self.RING_ENTRIES * hw.DESCRIPTOR_BYTES
        return rx_ring + (index % self.RING_ENTRIES) * hw.DESCRIPTOR_BYTES

    # -- bring-up -----------------------------------------------------------------
    def bring_up(self):
        """Generator: post-probe device initialisation (link check,
        interrupt unmasking) over timed MMIO."""
        resp = yield from self.cpu.timed_read(self.bar0 + hw.REG_STATUS, 4)
        status = self.cpu.read_value(resp)
        if not status & hw.STATUS_LINK_UP:
            raise DriverError("NIC reports link down")
        yield from self.cpu.timed_write(
            self.bar0 + hw.REG_IMS, hw.ICR_TXDW | hw.ICR_RXT0, 4
        )
        return status

    def enable_loopback(self):
        """Generator: set CTRL.LOOPBACK so TX frames return on RX."""
        yield from self.cpu.timed_write(self.bar0 + hw.REG_CTRL, hw.CTRL_LOOPBACK, 4)

    # -- data path -------------------------------------------------------------------
    def transmit(self, buffer_addr: int, length: int):
        """Generator: queue one frame; returns a signal notified when
        the TX-done interrupt covers it."""
        desc_addr = self._tx_descriptor_addr(self._tx_index)
        self._tx_index += 1
        self._frames_issued += 1
        done = Signal(f"tx{self._frames_issued}", latch=True)
        self._tx_waiters.append((done, self._frames_issued))
        self.device.post_tx_descriptor(desc_addr, buffer_addr, length)
        yield from self.cpu.timed_write(self.bar0 + hw.REG_TDT,
                                        self._tx_index % self.RING_ENTRIES, 4)
        return done

    def post_rx_buffer(self, buffer_addr: int, capacity: int) -> Signal:
        """Make a receive buffer available; the returned signal notifies
        when a frame lands in it (FIFO order)."""
        desc_addr = self._rx_descriptor_addr(self._rx_index)
        self._rx_index += 1
        done = Signal(f"rx{self._rx_index}", latch=True)
        self._rx_waiters.append(done)
        self.device.post_rx_buffer(desc_addr, buffer_addr, capacity)
        return done

    # -- interrupt handler ------------------------------------------------------------
    def _irq_handler(self):
        yield Delay(self.IRQ_ENTRY_OVERHEAD)
        resp = yield from self.cpu.timed_read(self.bar0 + hw.REG_ICR, 4)
        causes = self.cpu.read_value(resp)
        if causes & hw.ICR_TXDW:
            transmitted = self.device.frames_transmitted.value()
            while self._tx_waiters and self._tx_waiters[0][1] <= transmitted:
                signal, __ = self._tx_waiters.popleft()
                signal.notify()
        if causes & hw.ICR_RXT0:
            received = self.device.frames_received.value()
            completed = self._rx_index - len(self._rx_waiters)
            to_wake = min(len(self._rx_waiters), int(received) - completed)
            for __ in range(max(0, to_wake)):
                self._rx_waiters.popleft().notify()
