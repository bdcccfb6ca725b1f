"""The generic PCI-Express device template.

The paper enables one concrete device (the 8254x-pcie NIC) but stresses
that it "can serve as a template for future PCI-Express device model
developments".  :class:`PcieDevice` is that template:

* a :class:`~repro.pci.header.PciEndpointFunction` holding the config
  header, BARs and capability chain (register it with the PCI host to
  make the device discoverable);
* a **PIO slave port** accepting processor requests — the device
  decodes the target BAR and dispatches to :meth:`mmio_read` /
  :meth:`mmio_write` hooks;
* a **DMA master port** for bus mastering (drive it through a
  :class:`~repro.devices.dma.DmaEngine`);
* a legacy INTx interrupt raised through the platform interrupt
  controller at the line the enumeration software assigned.

:class:`PcieDevice` builds each endpoint from its
:class:`~repro.system.spec.DeviceSpec`, its config function through
:func:`endpoint_function`, and :class:`CommandDevice` is the
one-command-slot device the disk and the accelerator share.
"""

import copy
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.mem.addr import AddrRange
from repro.mem.packet import MemCmd, Packet
from repro.mem.port import MasterPort, PacketQueue, SlavePort
from repro.pci.capabilities import (CAP_ID_MSI, MsiCapability, MsixCapability,
                                     PciePortType, PowerManagementCapability)
from repro.pci.header import PciEndpointFunction
from repro.pcie.vp2p import link_capability
from repro.sim.eventq import proxy
from repro.sim.simobject import SimObject, Simulator

if TYPE_CHECKING:
    from repro.system.spec import DeviceSpec, LinkSpec


def endpoint_function(device: type, link: "LinkSpec",
                      msi_functional: bool) -> PciEndpointFunction:
    """An endpoint's configuration function: the identity and BARs the
    ``device`` class declares, and the paper's capability chain PM →
    MSI → PCI-Express → MSI-X, with everything but PCI-Express disabled
    unless ``msi_functional`` makes MSI's enable bit writable.  The
    PCI-Express capability advertises ``link`` as a VP2P's does."""
    fn = PciEndpointFunction(device.VENDOR_ID, device.DEVICE_ID,
                             bars=[copy.copy(bar) for bar in device.BARS],
                             class_code=device.CLASS_CODE)
    fn.add_capability(PowerManagementCapability())
    fn.add_capability(MsiCapability(functional=msi_functional))
    fn.add_capability(link_capability(PciePortType.ENDPOINT, link))
    fn.add_capability(MsixCapability(table_size=device.MSIX_TABLE_SIZE))
    return fn


class _MsiPump:
    """A DMA pump that sends one MSI once the DMA queue has space.  Not
    a closure: one that removes itself would be a reference cycle."""

    def __init__(self, device: "PcieDevice", msi: Packet):
        self.device, self.msi = proxy(device), msi  # the device holds us

    def __call__(self) -> None:
        device = self.device
        if device.dma_space > 0:
            device.remove_dma_pump(self)
            device.dma_send(self.msi, None)


class PcieDevice(SimObject):
    """Base class for endpoint device models, each built from its
    :class:`~repro.system.spec.DeviceSpec`: the spec names it, its link
    is what its PCI-Express capability advertises, and its
    :meth:`~repro.system.spec.DeviceSpec.knobs` set the rest.

    A subclass declares its identity: ``VENDOR_ID``, ``DEVICE_ID``,
    ``BARS`` (templates, copied into each device's function),
    ``CLASS_CODE`` and ``MSIX_TABLE_SIZE``.
    """

    CLASS_CODE = 0
    MSIX_TABLE_SIZE = 1
    #: Bounded in-flight PIO requests.
    PIO_BUFFER = 8

    in_flight = ("_pio_respq", "_dma_queue", "_dma_pumps", "_dma_waiters")

    def __init__(self, sim: Simulator, spec: "DeviceSpec"):
        super().__init__(sim, spec.name)
        self.knobs = spec.knobs()
        self.function = endpoint_function(type(self), spec.link,
                                          self.knobs.msi_functional)
        self.pio_latency = self.knobs.pio_latency
        self.intc = None  # wired by the system builder

        self.pio_port = SlavePort(
            self,
            "pio",
            recv_timing_req=self._recv_pio,
        )
        self.pio_port.get_ranges = self._pio_ranges
        self.dma_port = MasterPort(
            self,
            "dma",
            recv_timing_resp=self._recv_dma_response,
        )
        self._pio_respq = PacketQueue(
            self, "pio_respq", self.pio_port.send_timing_resp, self.PIO_BUFFER
        )
        self._pio_respq.on_space_freed = self._maybe_retry_pio
        self._dma_queue = PacketQueue(self, "dmaq", self.dma_port.send_timing_req, 64)
        self._dma_queue.on_space_freed = self._pump_dma
        self.pio_port.recv_resp_retry = self._pio_respq.retry
        self.dma_port.recv_req_retry = self._dma_queue.retry
        # DMA completions dispatch by req_id to whoever issued them.
        self._dma_waiters = {}
        # Active DMA transfers poked whenever queue space frees (this is
        # how posted transfers pace themselves without responses).
        self._dma_pumps = []

        self.mmio_reads = self.stats.scalar("mmio_reads")
        self.msis_sent = self.stats.scalar("msis_sent", "MSI memory writes issued")
        self.mmio_writes = self.stats.scalar("mmio_writes")
        self.interrupts_raised = self.stats.scalar("interrupts_raised")

    # -- discovery ------------------------------------------------------------
    def _pio_ranges(self) -> List[AddrRange]:
        """The device claims whatever its (enabled) BARs decode."""
        return self.function.bar_ranges()

    def locate_bar(self, addr: int):
        """Return (bar_index, offset) for an address, or (None, None).

        Honours the command register: with memory/I/O decode disabled
        the device does not recognise the address (a request that still
        reaches it through a stale window gets an all-ones response).
        """
        for index, bar in enumerate(self.function.bars):
            rng = bar.range()
            if rng is None or addr not in rng:
                continue
            enabled = self.function.io_enabled if bar.io else self.function.memory_enabled
            if not enabled:
                continue
            return index, rng.offset(addr)
        return None, None

    # -- PIO path ---------------------------------------------------------------
    def _recv_pio(self, pkt: Packet) -> bool:
        if self._pio_respq.full:
            return False
        bar, offset = self.locate_bar(pkt.addr)
        if bar is None:
            # Claimed by a stale window: respond all-ones like absent
            # config space rather than wedging the fabric.
            data = b"\xff" * pkt.size if pkt.is_read else None
            if pkt.needs_response:
                self._pio_respq.push(pkt.make_response(data), self.pio_latency)
            return True
        if pkt.is_read:
            self.mmio_reads.inc()
            value = self.mmio_read(bar, offset, pkt.size)
            data = (value & ((1 << (8 * pkt.size)) - 1)).to_bytes(pkt.size, "little")
            self._pio_respq.push(pkt.make_response(data), self.pio_latency)
        else:
            self.mmio_writes.inc()
            value = int.from_bytes(pkt.data or bytes(pkt.size), "little")
            self.mmio_write(bar, offset, pkt.size, value)
            if pkt.needs_response:
                self._pio_respq.push(pkt.make_response(), self.pio_latency)
        return True

    def _maybe_retry_pio(self) -> None:
        if self.pio_port.retry_owed:
            self.pio_port.send_retry_req()

    # -- register hooks (override in concrete devices) ------------------------------
    def mmio_read(self, bar: int, offset: int, size: int) -> int:
        """Read a device register.  Default: all zeros."""
        return 0

    def mmio_write(self, bar: int, offset: int, size: int, value: int) -> None:
        """Write a device register.  Default: ignored."""

    # -- DMA path ----------------------------------------------------------------
    def dma_send(self, pkt: Packet, on_response) -> None:
        """Issue a DMA request; ``on_response(resp)`` fires when (and
        if) the response returns.  Pass None for posted requests.

        Callers must respect :attr:`dma_space` — the engine's issue
        window guarantees it."""
        if self._dma_queue.full:
            raise RuntimeError(f"{self.full_name}: DMA queue overrun")
        if on_response is not None:
            self._dma_waiters[pkt.req_id] = on_response
        self._dma_queue.push(pkt)

    @property
    def dma_backlog(self) -> int:
        return len(self._dma_queue)

    @property
    def dma_space(self) -> int:
        return self._dma_queue.capacity - len(self._dma_queue)

    def add_dma_pump(self, pump) -> None:
        self._dma_pumps.append(pump)

    def remove_dma_pump(self, pump) -> None:
        self._dma_pumps.remove(pump)

    def _pump_dma(self) -> None:
        for pump in list(self._dma_pumps):
            pump()

    def _recv_dma_response(self, pkt: Packet) -> bool:
        waiter = self._dma_waiters.pop(pkt.req_id, None)
        if waiter is not None:
            waiter(pkt)
        return True

    # -- interrupts -----------------------------------------------------------------
    def raise_interrupt(self) -> None:
        """Signal an interrupt: an MSI memory write when the function's
        MSI capability is enabled, the legacy INTx wire otherwise.

        MSI is the paper's future-work path — "a message is a posted
        request that is mainly used for implementing message signaled
        interrupts (MSI).  A device uses MSI to write a programmed value
        to a specified address location in order to raise an interrupt."
        The write travels the PCI-Express fabric like any other posted
        request and lands on the platform's MSI doorbell.
        """
        self.interrupts_raised.inc()
        if self._send_msi():
            return
        if self.intc is None:
            raise RuntimeError(
                f"{self.full_name} has no interrupt controller wired"
            )
        self.intc.raise_irq(self.function.interrupt_line)

    def _send_msi(self) -> bool:
        offset = self.function.find_capability(CAP_ID_MSI)
        if offset is None:
            return False
        control = self.function.config_read(offset + MsiCapability.CONTROL, 2)
        if not control & MsiCapability.ENABLE_BIT:
            return False
        address = self.function.config_read(offset + MsiCapability.ADDRESS, 4)
        data = self.function.config_read(offset + MsiCapability.DATA, 2)
        msi = Packet(
            MemCmd.MESSAGE, address, 4,
            data=data.to_bytes(4, "little"),
            requestor=self.full_name,
            create_tick=self.curtick,
        )
        self.msis_sent.inc()
        if self.dma_space > 0:
            self.dma_send(msi, None)
            return True
        # Posted writes still fill the queue: the MSI follows them out,
        # ahead of any request issued after it (a posted request never
        # passes another).
        self._dma_pumps.insert(0, _MsiPump(self, msi))
        return True


# The BAR0 registers and STATUS bits every CommandDevice shares.
REG_CMD = 0x00
REG_STATUS = 0x20
REG_IRQ_CLEAR = 0x28

STATUS_BUSY = 1 << 0
STATUS_IRQ = 1 << 1
STATUS_ERROR = 1 << 2


class CommandDevice(PcieDevice):
    """A device with one command slot behind BAR0.

    A driver programs the subclass's :attr:`REGISTERS`, then writes a
    command to ``CMD``.  A command written while one runs sets the
    error bit; one the subclass's ``_accepts(command)`` refuses also
    interrupts, so no driver waits forever.  Otherwise STATUS reads
    busy and ``_run(command)`` starts it; the subclass ends it with
    :meth:`_complete_command`, which raises the interrupt with STATUS
    reading irq-pending until the driver writes ``IRQ_CLEAR``.
    """

    #: The BAR0 offsets a driver programs before ``CMD``, in map order.
    REGISTERS: Tuple[int, ...] = ()

    def __init__(self, sim: Simulator, spec: "DeviceSpec"):
        super().__init__(sim, spec)
        self._regs: Dict[int, int] = dict.fromkeys(
            (REG_CMD, *self.REGISTERS, REG_STATUS), 0)

    def mmio_read(self, bar: int, offset: int, size: int) -> int:
        """A register's value; an unmapped offset reads 0."""
        return self._regs.get(offset, 0)

    def mmio_write(self, bar: int, offset: int, size: int, value: int) -> None:
        """Acknowledge, start a command or program a register."""
        if offset == REG_IRQ_CLEAR:
            self._regs[REG_STATUS] &= ~STATUS_IRQ
        elif offset == REG_CMD:
            self._start_command(value)
        elif offset in self._regs:
            self._regs[offset] = value

    def _start_command(self, command: int) -> None:
        if self._regs[REG_STATUS] & STATUS_BUSY:
            self._regs[REG_STATUS] |= STATUS_ERROR
        elif not self._accepts(command):
            self._regs[REG_STATUS] |= STATUS_ERROR
            self.raise_interrupt()
        else:
            self._regs[REG_STATUS] = STATUS_BUSY
            self._run(command)

    def _complete_command(self) -> None:
        self._regs[REG_STATUS] = STATUS_IRQ  # busy clear, irq pending
        self.raise_interrupt()

    # The register file is checkpointed keyed by str (a JSON object key).
    def state_dict(self) -> dict:
        """The declared fields plus the register file."""
        state = super().state_dict()
        state["regs"] = {str(offset): value for offset, value in self._regs.items()}
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore the declared fields and the register file."""
        state = dict(state)
        regs = state.pop("regs")
        super().load_state_dict(state)
        self._regs = {int(offset): value for offset, value in regs.items()}

    @property
    def busy(self) -> bool:
        """A command is running."""
        return bool(self._regs[REG_STATUS] & STATUS_BUSY)

    @property
    def irq_pending(self) -> bool:
        """The completion interrupt has not been acknowledged."""
        return bool(self._regs[REG_STATUS] & STATUS_IRQ)
