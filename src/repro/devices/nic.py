"""The 8254x-pcie NIC model.

The paper takes gem5's Intel 8254x NIC, sets its device id to 0x10D3 so
the PCI-Express ``e1000e`` driver probes it, and adds the capability
chain PM → MSI → PCI-Express → MSI-X with everything but PCI-Express
disabled (forcing a legacy interrupt).  This model does the same and
implements an e1000-style register file plus descriptor-ring DMA:

* **TX**: the driver posts descriptors and bumps the tail register; the
  NIC DMA-reads each descriptor (16 B) and its packet buffer, writes the
  descriptor back with the done bit, and interrupts.
* **RX (loopback)**: transmitted frames are looped back into posted RX
  buffers: the NIC DMA-writes packet data and the RX descriptor, and
  interrupts.

Simulated memory carries no data contents, so descriptor *values*
travel through a functional side-channel (:meth:`post_tx_descriptor`,
:meth:`post_rx_buffer`) while every DMA access is still performed on the
timing path with its real size — timing-faithful, functionally simple.

Register map (BAR0, 128 KB):

======= ======  ===================================================
offset  name    meaning
======= ======  ===================================================
0x00000 CTRL    device control (bit 26: ``LOOPBACK``)
0x00008 STATUS  device status (link up, speed, ...)
0x000C0 ICR     interrupt cause, cleared on read
0x000D0 IMS     interrupt mask set (enable bits)
0x000D8 IMC     interrupt mask clear
0x03818 TDT     TX tail: writing it starts transmission
======= ======  ===================================================
"""

from collections import deque
from typing import TYPE_CHECKING, Deque, Tuple

from repro.devices.base import PcieDevice
from repro.devices.dma import DmaEngine
from repro.pci.header import Bar
from repro.sim import ticks
from repro.sim.simobject import Simulator

if TYPE_CHECKING:
    from repro.system.spec import DeviceSpec

REG_CTRL = 0x00000
REG_STATUS = 0x00008
REG_ICR = 0x000C0
REG_IMS = 0x000D0
REG_IMC = 0x000D8
REG_TDT = 0x03818

CTRL_LOOPBACK = 1 << 26

ICR_TXDW = 1 << 0  # transmit descriptor written back
ICR_RXT0 = 1 << 7  # receive timer / packet delivered

STATUS_LINK_UP = 1 << 1

DESCRIPTOR_BYTES = 16


class Nic8254xPcie(PcieDevice):
    """See module docstring.  Its knobs are
    :class:`~repro.system.spec.NicKnobs`."""

    VENDOR_ID = 0x8086
    DEVICE_ID = 0x10D3  # invokes the e1000e probe function
    # A 128 KB MMIO BAR and a 32 B I/O BAR.
    BARS = (Bar(128 * 1024), Bar(0), Bar(32, io=True))
    CLASS_CODE = 0x020000  # Ethernet controller
    MSIX_TABLE_SIZE = 5
    #: Per-frame internal processing time.
    TX_PROCESS_LATENCY = ticks.from_ns(500)
    #: Delay between TX completion and RX delivery in loopback.
    LOOPBACK_WIRE_LATENCY = ticks.from_us(1)
    #: In-flight DMA packets within one transfer.
    DMA_OUTSTANDING = 32

    def __init__(self, sim: Simulator, spec: "DeviceSpec"):
        super().__init__(sim, spec)
        self.dma = DmaEngine(sim, "dma_engine", self,
                             max_outstanding=self.DMA_OUTSTANDING)

        self._regs = {
            REG_CTRL: 0,
            REG_STATUS: STATUS_LINK_UP | (2 << 6),  # link up at 1000 Mbps
            REG_ICR: 0,
            REG_IMS: 0,
            REG_TDT: 0,
        }
        # Functional descriptor side-channels: (descriptor_addr,
        # buffer_addr, length).
        self._tx_ring: Deque[Tuple[int, int, int]] = deque()
        self._rx_ring: Deque[Tuple[int, int, int]] = deque()
        self._tx_busy = False

        self.frames_transmitted = self.stats.scalar("frames_transmitted")
        self.frames_received = self.stats.scalar("frames_received")
        self.tx_bytes = self.stats.scalar("tx_bytes")
        self.rx_bytes = self.stats.scalar("rx_bytes")
        self.frames_dropped = self.stats.scalar(
            "frames_dropped", "loopback frames with no RX buffer posted"
        )

    # -- functional descriptor side-channel -----------------------------------------
    def post_tx_descriptor(self, descriptor_addr: int, buffer_addr: int,
                           length: int) -> None:
        """Driver-side: a TX descriptor now sits at ``descriptor_addr``
        describing ``length`` bytes at ``buffer_addr``.  Transmission
        starts when the driver writes TDT."""
        if length < 1:
            raise ValueError("cannot transmit an empty frame")
        self._tx_ring.append((descriptor_addr, buffer_addr, length))

    def post_rx_buffer(self, descriptor_addr: int, buffer_addr: int,
                       capacity: int) -> None:
        """Driver-side: an RX descriptor/buffer is available."""
        self._rx_ring.append((descriptor_addr, buffer_addr, capacity))

    # -- register file ---------------------------------------------------------------
    def mmio_read(self, bar: int, offset: int, size: int) -> int:
        if offset == REG_ICR:
            value = self._regs[REG_ICR]
            self._regs[REG_ICR] = 0  # read-to-clear
            return value
        return self._regs.get(offset, 0)

    def mmio_write(self, bar: int, offset: int, size: int, value: int) -> None:
        if offset == REG_IMS:
            self._regs[REG_IMS] |= value
            return
        if offset == REG_IMC:
            self._regs[REG_IMS] &= ~value
            return
        if offset == REG_TDT:
            self._regs[REG_TDT] = value
            self._maybe_start_tx()
            return
        if offset in self._regs:
            self._regs[offset] = value

    # -- TX path ------------------------------------------------------------------------
    def _maybe_start_tx(self) -> None:
        if self._tx_busy or not self._tx_ring:
            return
        self._tx_busy = True
        desc_addr, buf_addr, length = self._tx_ring.popleft()
        # 1. DMA-read the descriptor.
        fetch = self.dma.read(desc_addr, DESCRIPTOR_BYTES)
        fetch.on_complete(
            lambda __: self._tx_fetch_buffer(desc_addr, buf_addr, length)
        )

    def _tx_fetch_buffer(self, desc_addr: int, buf_addr: int, length: int) -> None:
        # 2. DMA-read the packet payload.
        payload = self.dma.read(buf_addr, length)
        payload.on_complete(
            lambda __: self.schedule(
                self.TX_PROCESS_LATENCY, self._tx_writeback,
                (desc_addr, buf_addr, length))
        )

    def _tx_writeback(self, frame: Tuple[int, int, int]) -> None:
        # 3. Write the descriptor back with the done bit set.
        desc_addr, buf_addr, length = frame
        writeback = self.dma.write(desc_addr, DESCRIPTOR_BYTES)
        writeback.on_complete(
            lambda __: self._tx_complete(buf_addr, length)
        )

    def _tx_complete(self, buf_addr: int, length: int) -> None:
        self.frames_transmitted.inc()
        self.tx_bytes.inc(length)
        self._signal_interrupt(ICR_TXDW)
        if self._regs[REG_CTRL] & CTRL_LOOPBACK:
            self.schedule(self.LOOPBACK_WIRE_LATENCY, self._rx_deliver,
                          length)
        self._tx_busy = False
        self._maybe_start_tx()

    # -- RX path -------------------------------------------------------------------------
    def _rx_deliver(self, length: int) -> None:
        if not self._rx_ring:
            self.frames_dropped.inc()
            return
        desc_addr, buf_addr, capacity = self._rx_ring.popleft()
        length = min(length, capacity)
        data = self.dma.write(buf_addr, length)
        data.on_complete(
            lambda __: self._rx_writeback(desc_addr, length)
        )

    def _rx_writeback(self, desc_addr: int, length: int) -> None:
        writeback = self.dma.write(desc_addr, DESCRIPTOR_BYTES)
        writeback.on_complete(lambda __: self._rx_complete(length))

    def _rx_complete(self, length: int) -> None:
        self.frames_received.inc()
        self.rx_bytes.inc(length)
        self._signal_interrupt(ICR_RXT0)

    # -- interrupts -----------------------------------------------------------------------
    def _signal_interrupt(self, cause: int) -> None:
        self._regs[REG_ICR] |= cause
        if self._regs[REG_IMS] & cause:
            self.raise_interrupt()
